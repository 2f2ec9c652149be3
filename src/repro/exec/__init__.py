"""repro.exec — parallel execution of grids.

Every figure/sweep in this reproduction is a grid of fully independent
simulation cells.  This package makes "run this grid" a first-class
operation: :class:`CellSpec` describes one cell by value,
:class:`ExperimentRunner` fans cells out over a process pool (``jobs=1``
is the exact serial path) and fails fast: the first failed cell raises
:class:`CellExecutionError`.  :class:`RunnerStats` records the
observability every consumer persists alongside its results.  See
docs/RUNNER.md.
"""

from .runner import CellExecutionError, CellResult, ExperimentRunner, RunnerStats
from .spec import (
    CellSpec,
    canonical_json,
    execute_cell,
    payload_to_runs,
    payload_to_sweep,
    resolve_workload,
)

__all__ = [
    "CellExecutionError",
    "CellResult",
    "ExperimentRunner",
    "RunnerStats",
    "CellSpec",
    "canonical_json",
    "execute_cell",
    "payload_to_runs",
    "payload_to_sweep",
    "resolve_workload",
]
