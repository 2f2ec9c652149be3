"""Tier-1 guard: the tree itself must be lint-clean.

Runs the full rule set over ``src`` and ``benchmarks`` exactly as CI
does and fails on any finding not suppressed inline.  Keeping this in
the ordinary pytest run means a contract violation fails locally before
it ever reaches CI.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint import RULES
from repro.lint.config import DEFAULTS
from repro.lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_tree_is_lint_clean():
    paths = [REPO_ROOT / str(p) for p in DEFAULTS["paths"]]
    findings, _, project = lint_paths(paths, REPO_ROOT, list(RULES.values()), DEFAULTS)
    assert len(project.files) > 50, "linter saw suspiciously few files — path config broken?"
    assert not findings, "lint findings:\n" + "\n".join(f.render() for f in findings)


def test_rule_catalogue_matches_registry():
    # docs/LINT.md has exactly one ### `name` heading per registered rule
    # and no heading for a rule that does not exist.
    text = (REPO_ROOT / "docs" / "LINT.md").read_text(encoding="utf-8")
    headings = re.findall(r"^### `([^`]+)`\s*$", text, flags=re.MULTILINE)
    assert sorted(headings) == sorted(RULES)


def test_no_contract_in_an_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # silently stops checking; src/ raises ValueError/RuntimeError.
    asserts = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, "assert statements in src/repro: " + ", ".join(asserts)
