"""The parallel, memoised experiment runner.

``ExperimentRunner.run`` takes a list of :class:`CellSpec` and returns
their payloads in order, fanning uncached cells out over a
``ProcessPoolExecutor``.  The contract that makes this safe is division
of labour:

* cells are *pure functions* of their spec (``execute_cell``) — so
  running them in any process, in any order, any number of times,
  yields the same bytes;
* the cache key binds spec + source fingerprint — so a hit can be
  served without re-simulating, and any simulator edit misses;
* ``jobs=1`` executes in-process with no pool at all — the exact serial
  path, used by tests to prove the parallel path changes nothing.

Failure semantics follow from purity: a retry cannot turn a failure
into a pass, so the first failed cell raises :class:`CellExecutionError`
naming it, with the worker's traceback.  Results are stored *as cells
complete*, so the cells that finished before it stay cached.  The pool
holds at most one outstanding cell per worker; when the pool dies, the
outstanding cells are exactly the ones in flight, and the error names
them — never a cell that was still queued.

Observability: every ``run`` records per-cell wall-seconds, hit/miss
counts and throughput into :class:`RunnerStats` (``runner.last_stats``,
with a lifetime accumulation in ``runner.lifetime``); consumers persist
it into their results JSON so a figure's provenance records how it was
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
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .cache import ResultCache
from .fingerprint import source_fingerprint
from .spec import CellSpec, cell_key, execute_cell

__all__ = ["CellExecutionError", "CellResult", "RunnerStats", "ExperimentRunner"]


class CellExecutionError(RuntimeError):
    """A cell failed, or the worker pool died.  The grid run raises —
    it never returns a silent partial grid — and the message names the
    failed cell (or, for a pool death, the cells that were in flight)."""


@dataclass
class CellResult:
    """One executed (or cache-served) cell."""

    spec: CellSpec
    key: str
    payload: Dict
    wall_seconds: float
    from_cache: bool


@dataclass
class RunnerStats:
    """Counters for one ``run`` call (or a lifetime accumulation)."""

    cells_total: int = 0
    cache_hits: int = 0
    simulated: int = 0
    wall_seconds: float = 0.0   # elapsed for the whole run() call
    cell_seconds: float = 0.0   # sum of per-cell simulation time
    jobs: int = 1

    @property
    def cache_misses(self) -> int:
        return self.cells_total - self.cache_hits

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
        self.cache_hits += other.cache_hits
        self.simulated += other.simulated
        self.wall_seconds += other.wall_seconds
        self.cell_seconds += other.cell_seconds
        self.jobs = max(self.jobs, other.jobs)

    def summary(self) -> str:
        return (
            f"exec: {self.cells_total} cells "
            f"({self.simulated} simulated, {self.cache_hits} cached) "
            f"in {self.wall_seconds:.2f}s wall / {self.cell_seconds:.2f}s cell time, "
            f"{self.cells_per_second:.2f} cells/s, jobs={self.jobs}"
        )

    def to_dict(self) -> Dict:
        return {
            "cells_total": self.cells_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "cells_per_second": self.cells_per_second,
            "jobs": self.jobs,
        }


def _execute_timed(spec: CellSpec):
    """Run one cell, time it.  Wall time is measured *around* the pure
    simulation, never fed into it."""
    start = time.perf_counter()
    payload = execute_cell(spec)
    return payload, time.perf_counter() - start


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


def _cell_failed(spec: CellSpec, exc: BaseException) -> CellExecutionError:
    return CellExecutionError(f"cell {spec.label} failed: {_format_error(exc)}")


def _run_pool(
    specs: Sequence[CellSpec],
    pending: Sequence[int],
    workers: int,
    store: Callable[[int, Dict, float], None],
) -> None:
    """Execute ``pending`` over ``workers`` processes, fail fast.

    At most one future per worker is outstanding, so every outstanding
    future is a cell a worker holds: a pool death is blamed on exactly
    those cells.
    """
    queue = deque(pending)
    outstanding: Dict[Future, int] = {}

    def pool_died() -> CellExecutionError:
        labels = ", ".join(specs[i].label for i in sorted(outstanding.values()))
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
                    outstanding[pool.submit(_execute_timed, specs[index])] = index
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
                raise _cell_failed(specs[index], failed[index])
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


class ExperimentRunner:
    """Fan a grid of cells out over processes, memoising on disk.

    * ``jobs`` — worker count; ``None`` means ``os.cpu_count()``; ``1``
      is the exact in-process serial path (no pool, no pickling).
    * ``use_cache`` — serve unchanged cells from ``.repro-cache/``
      (``--no-cache`` maps to False: always simulate, never read/write).
    * ``cache_dir`` — override the cache location.
    * ``fingerprint`` — override the source fingerprint (tests use this
      to prove a "source change" invalidates every key).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        use_cache: bool = True,
        cache_dir: Optional[Path] = None,
        cache: Optional[ResultCache] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.use_cache = use_cache
        self.cache = cache or ResultCache(cache_dir)
        self._fingerprint = fingerprint
        self.last_stats = RunnerStats(jobs=self.jobs)
        self.lifetime = RunnerStats(jobs=self.jobs)

    def fingerprint(self) -> str:
        return self._fingerprint or source_fingerprint()

    def clear_cache(self) -> int:
        return self.cache.clear()

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[CellSpec]) -> List[CellResult]:
        """Execute a grid; results come back in spec order.

        The first failed cell raises :class:`CellExecutionError` — never
        a silent partial grid.  Cells that completed before it are
        already cached, so a re-run after a fix only pays for what never
        finished.
        """
        start = time.perf_counter()
        fingerprint = self.fingerprint()
        keys = [cell_key(spec, fingerprint) for spec in specs]
        results: List[Optional[CellResult]] = [None] * len(specs)
        pending: List[int] = []
        for index, (spec, key) in enumerate(zip(specs, keys)):
            entry = self.cache.get(key) if self.use_cache else None
            if entry is None:
                pending.append(index)
            else:
                results[index] = CellResult(
                    spec=spec,
                    key=key,
                    payload=entry["payload"],
                    wall_seconds=entry.get("wall_seconds", 0.0),
                    from_cache=True,
                )

        def store(index: int, payload: Dict, seconds: float) -> None:
            results[index] = self._store(specs[index], keys[index], payload, seconds, fingerprint)

        try:
            if self.jobs == 1 or len(pending) <= 1:
                for index in pending:
                    try:
                        payload, seconds = _execute_timed(specs[index])
                    except Exception as exc:
                        raise _cell_failed(specs[index], exc) from exc
                    store(index, payload, seconds)
            else:
                _run_pool(specs, pending, min(self.jobs, len(pending)), store)
        finally:
            simulated = [r for r in results if r is not None and not r.from_cache]
            stats = RunnerStats(
                cells_total=len(specs),
                cache_hits=len(specs) - len(pending),
                simulated=len(simulated),
                wall_seconds=time.perf_counter() - start,
                cell_seconds=sum(r.wall_seconds for r in simulated),
                jobs=self.jobs,
            )
            self.last_stats = stats
            self.lifetime.merge(stats)
        return results

    def run_one(self, spec: CellSpec) -> CellResult:
        return self.run([spec])[0]

    # ------------------------------------------------------------------

    def _store(self, spec: CellSpec, key: str, payload: Dict, seconds: float,
               fingerprint: str) -> CellResult:
        if self.use_cache:
            self.cache.put(
                key,
                {
                    "spec": spec.canonical(),
                    "fingerprint": fingerprint,
                    "payload": payload,
                    "wall_seconds": seconds,
                },
            )
        return CellResult(
            spec=spec, key=key, payload=payload, wall_seconds=seconds, from_cache=False
        )
