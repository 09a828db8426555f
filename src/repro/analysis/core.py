"""The checker framework behind ``repro lint``.

Stdlib-only (:mod:`ast` + :mod:`tokenize`) static analysis of what
only a static pass can say: how the serving stack holds its locks. The
repo's other contracts (float32 scans, no pickle, no scipy at start-up,
no difference cube) are tier-1 laws on the behaviour itself. The moving
parts:

* :class:`Rule` — one lintable defect class: stable id (``C2xx``
  concurrency, ``S0xx`` suppression hygiene, ``E0xx`` framework),
  severity, summary and a fix hint;
* :class:`Finding` — one occurrence of a rule at ``path:line:col``;
* :class:`Checker` — a registered visitor producing findings, either
  per-file (:meth:`Checker.check_file`) or across the whole file set
  (:meth:`Checker.check_project` — the lock rules resolve a class's
  base classes by name across it);
* :class:`FileContext` — one parsed file: source, AST and its
  suppression comments;
* :func:`lint_paths` — the runner: discover files, run every enabled
  checker, apply suppressions, append the suppression-hygiene findings,
  and return a :class:`LintReport`.

Suppressions: a finding is silenced by a comment of the form ::

    something_flagged()  # repro: allow[C204] bounded by the poll timeout

naming the rule id(s) in brackets, followed by a *required* reason — a
reasonless suppression is itself a finding (``S001``), and a suppression
that silences nothing is one too (``S002``), so the allow-list can never
rot silently. A standalone suppression comment applies to the next code
line.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Rule",
    "Finding",
    "Suppression",
    "Checker",
    "FileContext",
    "LintReport",
    "register_checker",
    "all_rules",
    "rule_catalog",
    "lint_paths",
    "iter_python_files",
]

#: finding severities, most serious first
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """One defect class the linter knows how to spot."""

    id: str
    severity: str
    summary: str
    fix_hint: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str
    fix_hint: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


def _finding(rule: Rule, path: str, line: int, col: int, message: str) -> Finding:
    return Finding(path=path, line=line, col=col, rule=rule.id,
                   severity=rule.severity, message=message,
                   fix_hint=rule.fix_hint)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
#: matches "repro: allow" suppressions; bracketed ids comma-separated
_SUPPRESSION_RE = re.compile(
    r"repro:\s*allow\[\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\]\s*(.*)"
)


@dataclass
class Suppression:
    """One ``# repro: allow[...]`` comment and the line it covers."""

    path: str
    comment_line: int
    target_line: int
    rules: frozenset
    reason: str
    used: bool = field(default=False, compare=False)


def _parse_suppressions(path: str, source: str) -> List[Suppression]:
    suppressions: List[Suppression] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions  # the parse-error finding covers this file
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = match.group(2).strip()
        row = token.start[0]
        target = row
        before = lines[row - 1][: token.start[1]].strip()
        if not before:
            # A standalone comment suppresses the next line holding code.
            target = row + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
        suppressions.append(Suppression(path, row, target, rules, reason))
    return suppressions


# ----------------------------------------------------------------------
# File context
# ----------------------------------------------------------------------
class FileContext:
    """One parsed source file, shared by every checker that visits it."""

    def __init__(self, path: str, source: str, display_path: Optional[str] = None):
        self.path = path
        self.display_path = display_path or path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.suppressions = _parse_suppressions(self.display_path, source)

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        return _finding(rule, self.display_path, getattr(node, "lineno", 1),
                        getattr(node, "col_offset", 0) + 1, message)


# ----------------------------------------------------------------------
# Checker registry
# ----------------------------------------------------------------------
class Checker:
    """Base class: subclasses declare ``rules`` and override one hook."""

    rules: Tuple[Rule, ...] = ()

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, contexts: Sequence[FileContext]) -> Iterable[Finding]:
        return ()


_CHECKERS: List[Checker] = []

#: framework rules not owned by any registered checker
PARSE_RULE = Rule(
    "E001", "error", "file does not parse",
    "fix the syntax error (sources are UTF-8); nothing else can be "
    "checked until it parses",
)
MISSING_REASON_RULE = Rule(
    "S001", "error",
    "`# repro: allow[...]` suppression without a reason",
    "append a short justification after the bracket, e.g. "
    "`# repro: allow[C204] bounded by the 1s poll timeout`",
)
UNUSED_SUPPRESSION_RULE = Rule(
    "S002", "warning",
    "suppression does not silence any finding",
    "delete the stale `# repro: allow[...]` comment (or fix the rule id)",
)
_META_RULES = (PARSE_RULE, MISSING_REASON_RULE, UNUSED_SUPPRESSION_RULE)


def register_checker(cls):
    """Class decorator adding a checker (instantiated once) to the run."""
    _CHECKERS.append(cls())
    return cls


def _checkers() -> List[Checker]:
    """The registered checkers; the shipped lock rules register on the
    first read, however this module was reached."""
    from . import concurrency  # noqa: F401  (its import registers them)

    return _CHECKERS


def all_rules() -> List[Rule]:
    """Every shipped rule, framework rules included, sorted by id."""
    rules = list(_META_RULES)
    for checker in _checkers():
        rules.extend(checker.rules)
    return sorted(rules, key=lambda rule: rule.id)


def rule_catalog() -> Dict[str, Rule]:
    return {rule.id: rule for rule in all_rules()}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files: int
    rules: List[str]
    suppressions: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict:
        return {
            "version": 1,
            "ok": self.ok,
            "files": self.files,
            "rules": self.rules,
            "suppressions": self.suppressions,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories to a sorted ``.py`` list in which each
    file appears once, however many of ``paths`` reach it."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    seen, unique = set(), []
    for path in out:
        key = os.path.realpath(path)  # "dup/bad.py" is "./dup/bad.py"
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
    relative_to: Optional[str] = None,
) -> LintReport:
    """Run the enabled checkers over ``paths`` and return the report.

    ``rules`` restricts the run to the named rule ids (suppression
    hygiene still runs, but ``S002`` — unused suppression — only fires on
    full runs, where "nothing matched" is meaningful). Paths in findings
    are made relative to ``relative_to`` (default: the current directory)
    so output is stable regardless of where the tree lives.
    """
    files = iter_python_files(paths)
    base = relative_to or os.getcwd()
    selected = set(rules) if rules else None
    known = set(rule_catalog())
    if selected is not None:
        unknown = selected - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")

    contexts: List[FileContext] = []
    findings: List[Finding] = []
    for path in files:
        display = os.path.relpath(path, base)
        if display.startswith(".." + os.sep):
            display = path
        try:
            with open(path, encoding="utf-8") as handle:
                contexts.append(FileContext(path, handle.read(),
                                            display_path=display))
        except UnicodeDecodeError as error:
            findings.append(_finding(PARSE_RULE, display, 1, 1,
                                     f"not UTF-8: {error}"))
        except SyntaxError as error:
            findings.append(_finding(PARSE_RULE, display, error.lineno or 1,
                                     error.offset or 1,
                                     f"syntax error: {error.msg}"))

    ran = {PARSE_RULE.id, MISSING_REASON_RULE.id}
    if selected is None:
        ran.add(UNUSED_SUPPRESSION_RULE.id)
    for checker in _checkers():
        ids = {rule.id for rule in checker.rules}
        if selected is not None and not ids & selected:
            continue
        ran |= ids if selected is None else ids & selected
        for ctx in contexts:
            for finding in checker.check_file(ctx):
                if selected is None or finding.rule in selected:
                    findings.append(finding)
        for finding in checker.check_project(contexts):
            if selected is None or finding.rule in selected:
                findings.append(finding)

    # Apply suppressions: a finding on a covered line with a matching rule
    # id is dropped (and the suppression marked used).
    suppressions = [s for ctx in contexts for s in ctx.suppressions]
    by_site: Dict[Tuple[str, int], List[Suppression]] = {}
    for suppression in suppressions:
        by_site.setdefault(
            (suppression.path, suppression.target_line), []
        ).append(suppression)
    kept: List[Finding] = []
    for finding in findings:
        matched = False
        for suppression in by_site.get((finding.path, finding.line), ()):
            if finding.rule in suppression.rules:
                suppression.used = True
                matched = True
        if not matched:
            kept.append(finding)

    # Suppression hygiene: every allow[] carries a reason, and (on full
    # runs) actually silences something.
    for suppression in suppressions:
        if not suppression.reason:
            kept.append(_finding(
                MISSING_REASON_RULE, suppression.path, suppression.comment_line,
                1, f"suppression of {sorted(suppression.rules)} carries no "
                "reason"))
        if selected is None and not suppression.used:
            kept.append(_finding(
                UNUSED_SUPPRESSION_RULE, suppression.path,
                suppression.comment_line, 1,
                f"suppression of {sorted(suppression.rules)} on line "
                f"{suppression.target_line} silences nothing"))

    kept.sort(key=Finding.sort_key)
    return LintReport(
        findings=kept,
        files=len(files),
        rules=sorted(ran),
        suppressions=len(suppressions),
    )
