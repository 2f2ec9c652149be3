"""Configuration: defaults merged with ``[tool.repro-lint]`` in pyproject.

Python 3.11+ parses pyproject with :mod:`tomllib`; on 3.9/3.10 (no
tomllib, and this repo adds no third-party deps) a minimal fallback
parser handles the subset this table actually uses — string, integer,
boolean, and string-list values under ``[tool.repro-lint]``.
"""

from __future__ import annotations

import ast as _ast
import re
from pathlib import Path
from typing import Dict, List, Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    tomllib = None

__all__ = ["DEFAULTS", "load_config"]

DEFAULTS: Dict[str, object] = {
    # What to lint when no paths are given on the command line.
    "paths": ["src", "benchmarks"],
    # Committed baseline of accepted findings (repo-root relative).
    "baseline": ".repro-lint-baseline.json",
    # Layers whose timing/crypto state must be a pure function of the
    # seed (no-wallclock-or-unseeded-rng).
    "deterministic-paths": [
        "repro/sim/",
        "repro/secmem/",
        "repro/mem/",
        "repro/core/",
        "repro/crypto/",
        "repro/faults/",
    ],
    # Worker-executed runner code: wall-timing is fine here, but seeds
    # must come from the cell spec (no-worker-seed-entropy's per-file check).
    "worker-paths": ["repro/exec/"],
    # Layers that handle key material (key-hygiene's per-file check).
    "crypto-paths": [
        "repro/crypto/",
        "repro/core/",
        "repro/secmem/",
        "repro/kernel/",
        "repro/fs/",
        "repro/faults/",
    ],
    # Layers allowed to write NVM-backed state (persist-through-wpq checks
    # that their writes reach the WPQ).
    "nvm-write-paths": ["repro/mem/", "repro/secmem/", "repro/core/", "repro/faults/"],
    # Where the config-not-component contract applies.
    "benchmark-paths": ["benchmarks/"],
    # The one module allowed to construct wired machine components
    # (builder-owns-wiring).
    "builder-paths": ["repro/sim/build.py"],
    # The one module allowed to touch CounterBlock fields directly.
    "counter-modules": ["repro/secmem/counters.py"],
    # Narrowest *_BITS width policed as a literal mask/shift.
    "mask-min-bits": 14,
    # Where the incremental flow index lives (repo-root relative; empty
    # string disables persistence, keeping each run in memory).
    "flow-index-dir": ".repro-lint-index",
    # Worker execution entry points ("module:qualname") for the call-graph
    # check of no-worker-seed-entropy.  execute_cell is the pure cell
    # evaluator; the runner's timing wrapper legitimately reads the host
    # clock *around* it, never inside it.
    "flow-entry-points": ["repro.exec.spec:execute_cell"],
    # Functions whose return value is raw key material (taint seeds for
    # key-hygiene; resolved against the call graph by bare name).
    "key-source-functions": [
        "generate_fek",
        "derive_fekek",
        "unwrap_key",
        "derive_file_key",
        "rotated_file_key",
    ],
}

_SECTION = "repro-lint"


def load_config(root: Path, pyproject: Optional[Path] = None) -> Dict[str, object]:
    """DEFAULTS overlaid with the repo's ``[tool.repro-lint]`` table."""
    merged = dict(DEFAULTS)
    path = pyproject or root / "pyproject.toml"
    if not path.exists():
        return merged
    text = path.read_text(encoding="utf-8")
    if tomllib is not None:
        data = tomllib.loads(text)
        table = data.get("tool", {}).get(_SECTION, {})
    else:
        table = _parse_toml_subset(text).get(f"tool.{_SECTION}", {})
    for key, value in table.items():
        merged[key] = value
    return merged


# -- 3.9/3.10 fallback ----------------------------------------------------

_HEADER_RE = re.compile(r"^\s*\[([^\]]+)\]\s*$")
_KEY_RE = re.compile(r"^\s*([A-Za-z0-9_\-\.\"']+)\s*=\s*(.*)$")


def _parse_toml_subset(text: str) -> Dict[str, Dict[str, object]]:
    """Parse only what [tool.repro-lint] needs: flat tables of strings,
    ints, booleans, and (possibly multi-line) string arrays."""
    tables: Dict[str, Dict[str, object]] = {}
    current: Dict[str, object] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].split("#", 1)[0] if not lines[i].lstrip().startswith('"') else lines[i]
        header = _HEADER_RE.match(line)
        if header:
            name = header.group(1).strip().strip('"')
            current = tables.setdefault(name, {})
            i += 1
            continue
        key_match = _KEY_RE.match(line)
        if key_match:
            key = key_match.group(1).strip().strip("\"'")
            value_text = key_match.group(2).strip()
            # Accumulate multi-line arrays until brackets balance.
            while value_text.count("[") > value_text.count("]") and i + 1 < len(lines):
                i += 1
                value_text += " " + lines[i].split("#", 1)[0].strip()
            current[key] = _parse_value(value_text)
        i += 1
    return tables


def _parse_value(text: str) -> object:
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    try:
        return _ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text.strip("\"'")
