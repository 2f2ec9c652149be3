"""Run every example script the way its docstring says to.

Examples are documentation that executes; a broken example is a broken
deliverable.  Each runs as ``python examples/<name>.py`` in a fresh
interpreter with ``PYTHONPATH=src`` — its ``__main__`` guard included —
and must exit 0 (the scripts assert their own invariants internally).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) > 3  # every example narrates its run


def test_all_expected_examples_present():
    assert set(EXAMPLES) >= {
        "quickstart",
        "multi_user_protection",
        "encrypted_kv_store",
        "crash_recovery",
        "machine_migration",
    }
