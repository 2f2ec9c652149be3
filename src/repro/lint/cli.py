"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

Lints the :data:`~repro.lint.config.DEFAULTS` ``paths`` under ``--root``
with every registered rule.  Inline ``# repro-lint: disable=<rule>``
comments are the only suppression.

Exit codes:

* 0 — clean (every finding suppressed inline)
* 1 — findings
* 2 — usage or parse error
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .config import DEFAULTS
from .engine import LintError, lint_paths
from .rules import RULES

__all__ = ["build_parser", "main", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the FsEncr simulator "
        "(see docs/LINT.md for the rule catalogue).",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root whose src/ and benchmarks/ are linted (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json for scripts and CI)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules(fmt: str) -> int:
    if fmt == "json":
        payload = {
            name: {"summary": rule.summary, "contract": rule.contract}
            for name, rule in sorted(RULES.items())
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, rule in sorted(RULES.items()):
            print(f"{name}: {rule.summary}")
            if rule.contract:
                print(f"    protects: {rule.contract}")
    return 0


def run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        return _list_rules(args.format)

    root = Path(args.root)
    if not root.is_dir():
        raise LintError(f"root is not a directory: {root}")
    paths = [root / str(p) for p in DEFAULTS["paths"] if (root / str(p)).exists()]
    findings, suppressed, project = lint_paths(paths, root, list(RULES.values()), DEFAULTS)

    exit_code = 1 if findings else 0
    summary = {
        "findings": len(findings),
        "suppressed": suppressed,
        "files": len(project.files),
    }

    if args.format == "json":
        payload = {
            "version": 3,
            "findings": [f.to_dict() for f in findings],
            "summary": summary,
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2))
        return exit_code

    for finding in findings:
        print(finding.render())
    status = "FAILED" if exit_code else "ok"
    print(
        f"repro-lint: {status} — {len(findings)} finding(s), {suppressed} suppressed "
        f"across {len(project.files)} files"
    )
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run(argv)
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
