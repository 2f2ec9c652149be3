"""repro.exec — parallel, cache-aware execution of grids.

Every figure/sweep in this reproduction is a grid of fully independent
simulation cells.  This package makes "run this grid" a first-class
operation: :class:`CellSpec` describes one cell by value,
:class:`ExperimentRunner` fans cells out over a process pool (``jobs=1``
is the exact serial path), memoises results content-addressed on disk
(``.repro-cache/``, keyed by spec + source fingerprint) and fails fast:
the first failed cell raises :class:`CellExecutionError`, while the
cells finished before it stay cached.  :class:`RunnerStats` records the
observability every consumer persists alongside its results.  See
docs/RUNNER.md.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, payload_checksum
from .fingerprint import reset_fingerprint_cache, source_fingerprint
from .runner import CellExecutionError, CellResult, ExperimentRunner, RunnerStats
from .spec import (
    CellSpec,
    canonical_json,
    cell_key,
    execute_cell,
    payload_to_runs,
    payload_to_sweep,
    resolve_workload,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "payload_checksum",
    "source_fingerprint",
    "reset_fingerprint_cache",
    "CellExecutionError",
    "CellResult",
    "ExperimentRunner",
    "RunnerStats",
    "CellSpec",
    "canonical_json",
    "cell_key",
    "execute_cell",
    "payload_to_runs",
    "payload_to_sweep",
    "resolve_workload",
]
