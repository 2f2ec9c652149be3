"""Tier-1 guard: the tree itself must be lint-clean.

Runs the full rule set over ``src`` and ``benchmarks`` exactly as CI
does and fails on any finding that is neither suppressed inline nor
grandfathered by the committed baseline.  Keeping this in the ordinary
pytest run means a contract violation fails locally before it ever
reaches CI.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint import RULES
from repro.lint.baseline import Baseline, split_findings
from repro.lint.config import load_config
from repro.lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_linter():
    options = load_config(REPO_ROOT)
    paths = [REPO_ROOT / p for p in options["paths"]]
    findings, suppressed, file_count = lint_paths(
        paths, REPO_ROOT, list(RULES.values()), options
    )
    baseline = Baseline.load(REPO_ROOT / str(options["baseline"]))
    new, baselined, stale = split_findings(findings, baseline)
    return new, baselined, stale, file_count


def test_tree_is_lint_clean():
    new, _, _, file_count = _run_linter()
    assert file_count > 50, "linter saw suspiciously few files — path config broken?"
    assert not new, "non-baselined lint findings:\n" + "\n".join(
        f.render() for f in new
    )


def test_baseline_has_no_stale_entries():
    _, _, stale, _ = _run_linter()
    assert not stale, (
        "baseline entries whose findings no longer occur (debt paid — "
        "shrink .repro-lint-baseline.json):\n"
        + "\n".join(f"{e['rule']} in {e['path']} (x{e['count']})" for e in stale)
    )


def test_baseline_entries_carry_reasons():
    # Every grandfathered finding must explain itself; the baseline is
    # documentation of accepted debt, not a dumping ground.
    baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
    missing = [fp for fp in baseline.entries if fp not in baseline.reasons]
    assert not missing, f"baseline entries without a reason: {missing}"


def test_rule_catalogue_matches_registry():
    # docs/LINT.md has exactly one ### `name` heading per registered rule
    # and no heading for a rule that does not exist.
    text = (REPO_ROOT / "docs" / "LINT.md").read_text(encoding="utf-8")
    headings = re.findall(r"^### `([^`]+)`\s*$", text, flags=re.MULTILINE)
    assert sorted(headings) == sorted(RULES)
