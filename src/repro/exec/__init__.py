"""repro.exec — parallel execution of grids.

Every figure/sweep in this reproduction is a grid of fully independent
simulation cells.  This package makes "run this grid" a first-class
operation: a :class:`Cell` is a label plus a zero-argument picklable
call, :class:`ExperimentRunner` fans cells out over a process pool
(``jobs=1`` is the exact serial path) and fails fast: the first failed
cell raises :class:`CellExecutionError`.  :class:`RunnerStats` records
the observability every consumer persists alongside its results.  See
docs/RUNNER.md.
"""

from .runner import Cell, CellExecutionError, ExperimentRunner, RunnerStats
from .spec import canonical_json, resolve_workload

__all__ = [
    "Cell",
    "CellExecutionError",
    "ExperimentRunner",
    "RunnerStats",
    "canonical_json",
    "resolve_workload",
]
