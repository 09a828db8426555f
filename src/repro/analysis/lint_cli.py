"""``repro lint`` — CLI entry point over :func:`repro.analysis.lint_paths`.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error. The JSON
format (``--format json``) is the machine interface consumed by
``scripts/lint_smoke.py`` and CI, so its shape is part of the contract:
``{"version", "ok", "files", "rules", "suppressions", "findings": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# The checkers (``from . import all_rules, lint_paths``) load inside the
# functions that run them: ``repro.cli.build_parser`` imports this module
# for ``add_lint_arguments`` on every command, including ``serve``.

__all__ = ["add_lint_arguments", "cmd_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is the CI/smoke interface)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _print_rules(stream) -> None:
    from . import all_rules

    for rule in all_rules():
        print(f"{rule.id}  {rule.severity:<7}  {rule.summary}", file=stream)
        if rule.fix_hint:
            print(f"      fix: {rule.fix_hint}", file=stream)


def _print_text(report, stream) -> None:
    for finding in report.findings:
        print(
            f"{finding.location} {finding.rule} "
            f"{finding.severity}: {finding.message}",
            file=stream,
        )
        if finding.fix_hint:
            print(f"    fix: {finding.fix_hint}", file=stream)
    status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
    print(
        f"repro lint: {status} across {report.files} file(s), "
        f"{len(report.rules)} rule(s), {report.suppressions} suppression(s)",
        file=stream,
    )


def cmd_lint(args: argparse.Namespace) -> int:
    from . import lint_paths

    stream = sys.stdout
    if getattr(args, "list_rules", False):
        _print_rules(stream)
        return 0
    rules = None
    if getattr(args, "rules", None):
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        report = lint_paths(args.paths, rules=rules)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        json.dump(report.to_dict(), stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        _print_text(report, stream)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Concurrency-aware lint for the repro serving stack.",
    )
    add_lint_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
