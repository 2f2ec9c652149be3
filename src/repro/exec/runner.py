"""The parallel experiment runner.

A grid is a list of :class:`Cell`: a label plus a zero-argument call,
a ``functools.partial`` over the module-level function that does the
work (``compare_schemes``, ``sweep_workload``, ``load_curve``).
``ExperimentRunner.run`` returns what the calls return, in cell order,
fanning the cells out over a ``ProcessPoolExecutor``.  The contract
that makes this safe:

* a cell's call is a *pure function* of its bound arguments — so
  running it in any process, in any order, yields the same result;
* ``jobs=1`` executes in-process with no pool at all — the exact serial
  path, used by tests to prove the parallel path changes nothing.  Only
  the pool pickles a cell.

Failure semantics follow from purity: a retry cannot turn a failure
into a pass, so the first failed cell raises :class:`CellExecutionError`
naming it, with the worker's traceback.  The pool holds at most one
outstanding cell per worker; when the pool dies, the outstanding cells
are exactly the ones in flight, and the error names them — never a cell
that was still queued.

Observability: every ``run`` records its wall and cell seconds and
throughput into :class:`RunnerStats` (``runner.last_stats``, with a
lifetime accumulation in ``runner.lifetime``); consumers persist it
into their results JSON so a figure's provenance records how it was
produced.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

__all__ = ["Cell", "CellExecutionError", "RunnerStats", "ExperimentRunner"]


class Cell(NamedTuple):
    """One grid cell: the label logs and errors name it by, and the
    zero-argument call that computes it.  The call must pickle (a
    ``functools.partial`` over a module-level function with picklable
    arguments) for the cell to run on a worker."""

    label: str
    call: Callable[[], Any]


class CellExecutionError(RuntimeError):
    """A cell failed, or the worker pool died.  The grid run raises —
    it never returns a silent partial grid — and the message names the
    failed cell (or, for a pool death, the cells that were in flight)."""


@dataclass
class RunnerStats:
    """Counters for one ``run`` call (or a lifetime accumulation)."""

    cells_total: int = 0
    wall_seconds: float = 0.0   # elapsed for the whole run() call
    cell_seconds: float = 0.0   # sum of per-cell simulation time
    jobs: int = 1

    @property
    def cells_per_second(self) -> float:
        return self.cells_total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def stat(self, key: str) -> float:
        """Strict counter lookup: raises on an unknown key.

        Mirrors :meth:`repro.sim.results.RunResult.stat` — a misspelled
        counter must fail loudly, never read as a plausible zero.
        """
        data = self.to_dict()
        try:
            return data[key]
        except KeyError:
            known = ", ".join(sorted(data))
            raise KeyError(f"unknown runner stat {key!r} (known: {known})") from None

    def merge(self, other: "RunnerStats") -> None:
        self.cells_total += other.cells_total
        self.wall_seconds += other.wall_seconds
        self.cell_seconds += other.cell_seconds
        self.jobs = max(self.jobs, other.jobs)

    def summary(self) -> str:
        return (
            f"exec: {self.cells_total} cells "
            f"in {self.wall_seconds:.2f}s wall / {self.cell_seconds:.2f}s cell time, "
            f"{self.cells_per_second:.2f} cells/s, jobs={self.jobs}"
        )

    def to_dict(self) -> Dict:
        return {
            "cells_total": self.cells_total,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "cells_per_second": self.cells_per_second,
            "jobs": self.jobs,
        }


def _execute_timed(cell: Cell):
    """Run one cell, time it.  Wall time is measured *around* the pure
    simulation, never fed into it."""
    start = time.perf_counter()
    result = cell.call()
    return result, time.perf_counter() - start


def _format_error(exc: BaseException) -> str:
    """The exception plus its remote worker traceback, if one travelled."""
    if exc.__traceback__ is not None:
        return "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        text = f"{text}\n{str(cause).strip()}"
    return text


def _cell_failed(cell: Cell, exc: BaseException) -> CellExecutionError:
    return CellExecutionError(f"cell {cell.label} failed: {_format_error(exc)}")


def _run_pool(
    cells: Sequence[Cell],
    workers: int,
    store: Callable[[int, Any, float], None],
) -> None:
    """Execute ``cells`` over ``workers`` processes, fail fast.

    At most one future per worker is outstanding, so every outstanding
    future is a cell a worker holds: a pool death is blamed on exactly
    those cells.
    """
    queue = deque(range(len(cells)))
    outstanding: Dict[Future, int] = {}

    def pool_died() -> CellExecutionError:
        labels = ", ".join(cells[i].label for i in sorted(outstanding.values()))
        return CellExecutionError(
            f"worker pool died (BrokenProcessPoolError) with {len(outstanding)} "
            f"cell(s) in flight: {labels}"
        )

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or outstanding:
            while queue and len(outstanding) < workers:
                index = queue.popleft()
                try:
                    outstanding[pool.submit(_execute_timed, cells[index])] = index
                except BrokenProcessPool:
                    raise pool_died() from None
            done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
            if any(isinstance(f.exception(), BrokenProcessPool) for f in done):
                raise pool_died()
            failed = {}
            for future in done:
                index = outstanding.pop(future)
                if future.exception() is None:
                    store(index, *future.result())
                else:
                    failed[index] = future.exception()
            if failed:
                index = min(failed)
                raise _cell_failed(cells[index], failed[index])
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


class ExperimentRunner:
    """Fan a grid of cells out over processes.

    ``jobs`` is the worker count; ``None`` means ``os.cpu_count()``;
    ``1`` is the exact in-process serial path (no pool, no pickling).
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.last_stats = RunnerStats(jobs=self.jobs)
        self.lifetime = RunnerStats(jobs=self.jobs)

    def run(self, cells: Sequence[Cell]) -> List[Any]:
        """Execute a grid; the calls' results come back in cell order.

        The first failed cell raises :class:`CellExecutionError` — never
        a silent partial grid.
        """
        start = time.perf_counter()
        results: List[Any] = [None] * len(cells)
        seconds: List[float] = []

        def store(index: int, result: Any, cell_seconds: float) -> None:
            results[index] = result
            seconds.append(cell_seconds)

        try:
            if self.jobs == 1 or len(cells) <= 1:
                for index, cell in enumerate(cells):
                    try:
                        result, cell_seconds = _execute_timed(cell)
                    except Exception as exc:
                        raise _cell_failed(cell, exc) from exc
                    store(index, result, cell_seconds)
            else:
                _run_pool(cells, min(self.jobs, len(cells)), store)
        finally:
            stats = RunnerStats(
                cells_total=len(cells),
                wall_seconds=time.perf_counter() - start,
                cell_seconds=sum(seconds),
                jobs=self.jobs,
            )
            self.last_stats = stats
            self.lifetime.merge(stats)
        return results
