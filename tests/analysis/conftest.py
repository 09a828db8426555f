"""Shared fixture: lint a source snippet through the real runner."""

import textwrap

import pytest

from repro.analysis import lint_paths


@pytest.fixture
def lint_source(tmp_path):
    """Write ``source`` to a temp file and lint it; returns the report."""

    def run(source, rules=None):
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(source))
        return lint_paths([str(path)], rules=rules)

    return run


@pytest.fixture
def lint_rules(lint_source):
    """Like ``lint_source`` but returns just the set of fired rule ids."""

    def run(source, rules=None):
        return {finding.rule for finding in lint_source(source, rules).findings}

    return run
