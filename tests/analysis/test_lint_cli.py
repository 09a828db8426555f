"""``repro lint`` CLI: exit codes, JSON contract, rule filtering, and the
dogfood gate — the repo's own src/ tree must lint clean."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths, rule_catalog
from repro.analysis.lint_cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD = """
    import threading

    def start(target):
        return threading.Thread(target=target)
"""
GOOD = """
    import threading

    def start(target):
        return threading.Thread(target=target, daemon=True)
"""


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(textwrap.dedent(BAD))
    return path


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(textwrap.dedent(GOOD))
    return path


def test_exit_zero_on_clean(good_file, capsys):
    assert main([str(good_file)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_on_findings(bad_file, capsys):
    assert main([str(bad_file)]) == 1
    out = capsys.readouterr().out
    assert "C203" in out and "fix:" in out


def test_exit_two_on_unknown_rule(bad_file, capsys):
    assert main([str(bad_file), "--rules", "C999"]) == 2


def test_exit_two_on_missing_path(tmp_path):
    assert main([str(tmp_path / "nope")]) == 2


def test_json_contract(bad_file, capsys):
    assert main([str(bad_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert payload["files"] == 1
    finding = payload["findings"][0]
    assert {"path", "line", "col", "rule", "severity",
            "message", "fix_hint"} <= set(finding)
    assert finding["rule"] == "C203"


def test_rules_filter(bad_file, capsys):
    assert main([str(bad_file), "--rules", "C204"]) == 0
    assert main([str(bad_file), "--rules", "C203,C204"]) == 1


def test_list_rules(capsys):
    """The catalog printed is exactly the registry's, each rule with its
    severity, summary and fix hint; a full run runs every one of them."""
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    catalog = rule_catalog()
    assert [line.split()[0] for line in lines[::2]] == sorted(catalog)
    for head, hint in zip(lines[::2], lines[1::2]):
        rule = catalog[head.split()[0]]
        assert head.split(None, 2)[1:] == [rule.severity, rule.summary]
        assert rule.fix_hint and hint.strip() == f"fix: {rule.fix_hint}"
    assert lint_paths([], relative_to=str(REPO_ROOT)).rules == sorted(catalog)


def test_overlapping_paths_lint_each_file_once(tmp_path, monkeypatch, capsys):
    (tmp_path / "dup").mkdir()
    (tmp_path / "dup" / "bad.py").write_text(textwrap.dedent(BAD))
    monkeypatch.chdir(tmp_path)
    assert main(["dup", "./dup", "dup/bad.py", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["C203"]


def test_undecodable_file_is_a_finding_not_a_crash(tmp_path, good_file, capsys):
    broken = tmp_path / "latin.py"
    broken.write_bytes(b"x = '\xff'\n")
    assert main([str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 2
    [finding] = payload["findings"]
    assert finding["rule"] == "E001" and finding["path"].endswith("latin.py")
    assert "UTF-8" in finding["message"]


def test_repro_cli_exposes_lint(bad_file):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad_file),
         "--format", "json"],
        capture_output=True, text=True,
        # the bytecode policy passes through: no .pyc under src/ when unset
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin",
             **{name: value for name, value in os.environ.items()
                if name == "PYTHONDONTWRITEBYTECODE"}},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["findings"]


def test_dogfood_repo_src_is_clean():
    """The gate the Makefile/CI enforce, asserted from the suite too:
    src/ lints clean and every suppression carries a reason."""
    report = lint_paths([str(REPO_ROOT / "src")],
                        relative_to=str(REPO_ROOT))
    assert report.ok, [f"{f.location} {f.rule} {f.message}"
                       for f in report.findings]
    assert report.suppressions > 0  # the by-design cases are documented
