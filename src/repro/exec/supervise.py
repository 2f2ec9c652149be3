"""Supervised cell execution: timeouts, retries, pool-crash recovery.

The simulator side of this reproduction enforces *detected-or-recovered-
never-silent* for the simulated machine; this module gives the
experiment harness the same discipline.  Every cell an
:class:`~repro.exec.runner.ExperimentRunner` submits terminates in
exactly one recorded outcome:

``cached``     served from ``.repro-cache/`` without simulating;
``simulated``  executed (possibly after retries) and stored;
``failed``     every attempt errored — quarantined with its tracebacks;
``timed-out``  exceeded the per-cell wall-clock budget on its final
               attempt (the hung worker is killed, never abandoned);
``cancelled``  a ``fail_fast`` grid aborted before the cell ran.

Two value objects carry the policy and the evidence:

* :class:`SupervisionPolicy` — per-cell timeout, bounded retries with
  *deterministic seeded* exponential backoff (delays are a pure function
  of ``(backoff_seed, cell key, attempt)``; no wall clock or ambient
  entropy feeds a policy decision), a pool-rebuild budget for poison
  cells, and the ``failure_policy`` (``fail_fast`` raises on the first
  quarantined cell, ``continue`` finishes the grid around it).
* :class:`GridReport` — one :class:`CellRecord` per submitted cell with
  its full attempt history (outcome, traceback, wall seconds, backoff),
  persisted under ``runner.grid_report`` in results JSON.

The :class:`Supervisor` is the engine: the pool path replaces the old
``wait(FIRST_EXCEPTION)`` barrier with as-completed draining (finished
cells are stored the moment they finish, so a later failure throws
nothing away), kills workers that blow their deadline, and survives
``BrokenProcessPoolError`` by rebuilding the pool, re-queueing the cells
that were in flight, and attributing the death to them by name — never
to whichever future happened to iterate first.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import tempfile
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from .chaos import ChaosPolicy, apply_worker_chaos
from .spec import CellSpec, execute_cell

__all__ = [
    "OUTCOME_CACHED",
    "OUTCOME_SIMULATED",
    "OUTCOME_FAILED",
    "OUTCOME_TIMED_OUT",
    "OUTCOME_CANCELLED",
    "FINAL_OUTCOMES",
    "FAILURE_POLICIES",
    "SupervisionPolicy",
    "CellAttempt",
    "CellRecord",
    "GridReport",
    "Supervisor",
]

OUTCOME_CACHED = "cached"
OUTCOME_SIMULATED = "simulated"
OUTCOME_FAILED = "failed"
OUTCOME_TIMED_OUT = "timed-out"
OUTCOME_CANCELLED = "cancelled"

#: Every submitted cell must end in exactly one of these.
FINAL_OUTCOMES = (
    OUTCOME_CACHED,
    OUTCOME_SIMULATED,
    OUTCOME_FAILED,
    OUTCOME_TIMED_OUT,
    OUTCOME_CANCELLED,
)

FAILURE_POLICIES = ("fail_fast", "continue")


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the runner fights for each cell before giving up.

    The defaults reproduce the pre-supervision semantics exactly: no
    timeout, one attempt, ``fail_fast``.
    """

    timeout_seconds: Optional[float] = None  # None = no per-cell deadline
    max_attempts: int = 1                    # executed attempts per cell
    backoff_base: float = 0.0                # delay before the 2nd attempt
    backoff_factor: float = 2.0              # growth per further attempt
    backoff_seed: int = 0xB0FF
    max_pool_rebuilds: int = 3               # non-timeout pool deaths tolerated
    failure_policy: str = "fail_fast"
    poll_seconds: float = 0.05               # supervisor wake-up tick

    def __post_init__(self) -> None:
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"not {self.failure_policy!r}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def backoff_seconds(self, key: str, executed_attempts: int) -> float:
        """Delay before the next attempt of the cell addressed by ``key``.

        A pure function of (policy, key, attempt count): exponential in
        the attempt number with jitter drawn from a sha256 of the seed
        and the cell key — never from the wall clock or the process
        environment, so two runs of the same grid back off identically
        (the no-worker-seed-entropy contract, docs/RUNNER.md).
        """
        if self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base * (self.backoff_factor ** max(0, executed_attempts - 1))
        blob = f"{self.backoff_seed}:{key}:{executed_attempts}".encode()
        jitter = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64
        return delay * (0.5 + jitter)


@dataclass
class CellAttempt:
    """One try at one cell — executed, killed, or lost to a pool death."""

    attempt: int            # 1-based position in the record's history
    outcome: str            # "ok" | "error" | "timeout" | "pool-death"
    error: str = ""         # traceback / blame text for non-ok outcomes
    wall_seconds: float = 0.0
    backoff_seconds: float = 0.0  # delay applied before the *next* attempt

    def to_dict(self) -> Dict:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "backoff_seconds": self.backoff_seconds,
        }

    @classmethod
    def from_dict(cls, raw: Dict) -> "CellAttempt":
        return cls(
            attempt=raw["attempt"],
            outcome=raw["outcome"],
            error=raw.get("error", ""),
            wall_seconds=raw.get("wall_seconds", 0.0),
            backoff_seconds=raw.get("backoff_seconds", 0.0),
        )


@dataclass
class CellRecord:
    """The audited life of one submitted cell: attempts, then a verdict."""

    label: str
    key: str
    outcome: str = ""  # one of FINAL_OUTCOMES once the grid finishes
    attempts: List[CellAttempt] = field(default_factory=list)

    @property
    def executed_attempts(self) -> int:
        """Attempts that actually consumed the cell's retry budget.

        ``pool-death`` entries are excluded: when the pool dies with
        several cells in flight, any of them may be the innocent
        bystander, so a death is bounded by the pool-rebuild budget
        instead of charging every victim an attempt.
        """
        return sum(1 for a in self.attempts if a.outcome in ("ok", "error", "timeout"))

    def note(
        self,
        outcome: str,
        error: str = "",
        wall_seconds: float = 0.0,
        backoff_seconds: float = 0.0,
    ) -> CellAttempt:
        attempt = CellAttempt(
            attempt=len(self.attempts) + 1,
            outcome=outcome,
            error=error,
            wall_seconds=wall_seconds,
            backoff_seconds=backoff_seconds,
        )
        self.attempts.append(attempt)
        return attempt

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "key": self.key,
            "outcome": self.outcome,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    @classmethod
    def from_dict(cls, raw: Dict) -> "CellRecord":
        return cls(
            label=raw["label"],
            key=raw["key"],
            outcome=raw.get("outcome", ""),
            attempts=[CellAttempt.from_dict(a) for a in raw.get("attempts", [])],
        )


@dataclass
class GridReport:
    """Every submitted cell's recorded fate — the harness-level audit log.

    The invariant mirrors the crash sweep's: no cell is ever silently
    missing.  ``complete()`` checks it; the chaos tests assert it after
    injected hangs, deaths, and transient failures.
    """

    cells: List[CellRecord] = field(default_factory=list)
    failure_policy: str = "fail_fast"

    def counts(self) -> Dict[str, int]:
        tally = {outcome: 0 for outcome in FINAL_OUTCOMES}
        for record in self.cells:
            tally[record.outcome] = tally.get(record.outcome, 0) + 1
        return tally

    @property
    def quarantined(self) -> List[CellRecord]:
        """Cells that never produced a payload (failed or timed out)."""
        return [
            r for r in self.cells if r.outcome in (OUTCOME_FAILED, OUTCOME_TIMED_OUT)
        ]

    def complete(self) -> bool:
        """True iff every submitted cell has exactly one final outcome."""
        return all(record.outcome in FINAL_OUTCOMES for record in self.cells)

    def summary(self) -> str:
        tally = self.counts()
        parts = [f"{count} {outcome}" for outcome, count in tally.items() if count]
        return f"grid: {len(self.cells)} cells ({', '.join(parts) or 'empty'})"

    def failure_lines(self) -> List[str]:
        """Human-readable quarantine block for the CLI."""
        lines: List[str] = []
        for record in self.quarantined:
            last = record.attempts[-1] if record.attempts else None
            reason = (last.error.strip().splitlines() or [""])[-1] if last else ""
            lines.append(
                f"  quarantined [{record.outcome}] {record.label} "
                f"({record.executed_attempts} attempt(s)): {reason}"
            )
        return lines

    def to_dict(self) -> Dict:
        return {
            "failure_policy": self.failure_policy,
            "counts": self.counts(),
            "cells": [record.to_dict() for record in self.cells],
        }

    @classmethod
    def from_dict(cls, raw: Dict) -> "GridReport":
        return cls(
            cells=[CellRecord.from_dict(c) for c in raw.get("cells", [])],
            failure_policy=raw.get("failure_policy", "fail_fast"),
        )


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------


def _execute_supervised(
    spec: CellSpec, marker: Optional[str], chaos: Optional[ChaosPolicy]
):
    """Run one cell in a worker under supervision.

    Writes a ``<marker>`` file holding this worker's pid before touching
    the cell and removes it afterwards, so the supervisor can (a) name
    the cells that were genuinely in flight when the pool dies and
    (b) kill this exact process when the cell blows its deadline.  The
    pid never flows into the simulation — ``execute_cell`` stays a pure
    function of the spec.
    """
    path = Path(marker) if marker else None
    if path is not None:
        path.write_text(str(os.getpid()), encoding="utf-8")
    try:
        apply_worker_chaos(spec, chaos)
        start = time.perf_counter()
        payload = execute_cell(spec)
        return payload, time.perf_counter() - start
    finally:
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass


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


# ----------------------------------------------------------------------
# The supervisor engine
# ----------------------------------------------------------------------


class Supervisor:
    """Drive a set of pending cells to exactly-one-outcome each.

    The runner owns caching and result placement; the supervisor owns
    scheduling, deadlines, retries, and recovery.  ``store`` is called
    at most once per cell, the moment its payload exists — incremental
    by construction, so a failure later in the grid never discards
    finished work.
    """

    def __init__(
        self,
        specs: Sequence[CellSpec],
        keys: Sequence[str],
        records: Sequence[CellRecord],
        policy: SupervisionPolicy,
        chaos: Optional[ChaosPolicy],
        store: Callable[[int, Dict, float], None],
        stats,
    ) -> None:
        self.specs = specs
        self.keys = keys
        self.records = records
        self.policy = policy
        self.chaos = chaos
        self.store = store
        self.stats = stats  # RunnerStats: retries/timeouts/requeues/pool_rebuilds
        self.aborted = False
        # pool-path state (initialised in run_pool)
        self.queue: Deque[int] = deque()
        self.delayed: List[Tuple[float, int]] = []
        self.outstanding: Dict[object, int] = {}
        self.submitted_at: Dict[int, float] = {}
        self.kill_pending: Set[int] = set()
        # Cells in flight during a spontaneous pool death: each runs
        # alone from then on, so a later death names exactly one cell.
        self.suspects: Set[int] = set()
        self.death_rebuilds = 0
        self.workers = 1
        self.pool: Optional[ProcessPoolExecutor] = None
        self.scratch: Optional[Path] = None

    # -- shared bookkeeping ---------------------------------------------

    def _finish_ok(self, index: int, payload: Dict, seconds: float) -> None:
        record = self.records[index]
        record.note("ok", wall_seconds=seconds)
        record.outcome = OUTCOME_SIMULATED
        self.store(index, payload, seconds)

    def _after_failed_attempt(self, index: int, kind: str, error: str) -> bool:
        """Record a failed attempt; True if the cell will be retried."""
        record = self.records[index]
        attempt = record.note(kind, error=error)
        if kind == "timeout":
            self.stats.timeouts += 1
        if record.executed_attempts < self.policy.max_attempts:
            attempt.backoff_seconds = self.policy.backoff_seconds(
                self.keys[index], record.executed_attempts
            )
            self.stats.retries += 1
            return True
        record.outcome = OUTCOME_TIMED_OUT if kind == "timeout" else OUTCOME_FAILED
        if self.policy.failure_policy == "fail_fast":
            self.aborted = True
        return False

    # -- serial path -----------------------------------------------------

    def run_serial(self, pending: Sequence[int]) -> None:
        """In-process execution with retries and failure policy.

        Wall-clock preemption needs a separate worker process, so
        ``timeout_seconds`` is not enforced here (docs/RUNNER.md); the
        lethal chaos kinds are rejected by ``apply_worker_chaos`` for
        the same reason.
        """
        for index in pending:
            record = self.records[index]
            if self.aborted:
                record.outcome = OUTCOME_CANCELLED
                continue
            while True:
                start = time.perf_counter()
                try:
                    apply_worker_chaos(self.specs[index], self.chaos, in_pool_worker=False)
                    payload = execute_cell(self.specs[index])
                    seconds = time.perf_counter() - start
                except Exception as exc:
                    if self._after_failed_attempt(index, "error", _format_error(exc)):
                        time.sleep(record.attempts[-1].backoff_seconds)
                        continue
                    break
                else:
                    self._finish_ok(index, payload, seconds)
                    break

    # -- pool path -------------------------------------------------------

    def run_pool(self, pending: Sequence[int], jobs: int) -> None:
        self.workers = min(jobs, len(pending))
        self.queue = deque(pending)
        self.scratch = Path(tempfile.mkdtemp(prefix="repro-supervise-"))
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while (self.queue or self.delayed or self.outstanding) and not self.aborted:
                self._promote_delayed()
                self._top_up()
                if not self.outstanding:
                    if self.queue:
                        continue
                    if self.delayed:
                        self._sleep_until_next_retry()
                        continue
                    break
                done, _not_done = wait(
                    set(self.outstanding),
                    timeout=self._wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                broken = self._drain(done)
                self._enforce_timeouts()
                if broken:
                    self._recover()
            if self.aborted:
                self._cancel_unfinished()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
            if self.scratch is not None:
                shutil.rmtree(self.scratch, ignore_errors=True)

    # -- scheduling ------------------------------------------------------

    def _marker_path(self, index: int) -> Path:
        assert self.scratch is not None
        return self.scratch / f"{index:05d}.pid"

    def _promote_delayed(self) -> None:
        now = time.monotonic()
        still: List[Tuple[float, int]] = []
        for ready_at, index in self.delayed:
            if ready_at <= now:
                self.queue.append(index)
            else:
                still.append((ready_at, index))
        self.delayed = still

    def _top_up(self) -> None:
        while self.queue and len(self.outstanding) < self.workers:
            if self.outstanding and (
                self.queue[0] in self.suspects
                or not self.suspects.isdisjoint(self.outstanding.values())
            ):
                return  # a suspect runs alone
            index = self.queue.popleft()
            try:
                future = self.pool.submit(
                    _execute_supervised,
                    self.specs[index],
                    str(self._marker_path(index)),
                    self.chaos,
                )
            except BrokenProcessPool:
                self.queue.appendleft(index)
                self._recover()
                continue
            self.outstanding[future] = index
            self.submitted_at[index] = time.monotonic()

    def _sleep_until_next_retry(self) -> None:
        ready_at = min(ready for ready, _ in self.delayed)
        time.sleep(max(0.0, ready_at - time.monotonic()))

    def _wait_timeout(self) -> Optional[float]:
        """How long wait() may block before the supervisor must look up."""
        candidates: List[float] = []
        now = time.monotonic()
        if self.policy.timeout_seconds is not None:
            deadlines = [
                self.submitted_at[index] + self.policy.timeout_seconds
                for index in self.outstanding.values()
                if index not in self.kill_pending
            ]
            if deadlines:
                candidates.append(min(deadlines) - now)
        if self.kill_pending:
            # A kill is in flight; poll for the pool-break it triggers.
            candidates.append(self.policy.poll_seconds)
        if self.delayed:
            candidates.append(min(ready for ready, _ in self.delayed) - now)
        if not candidates:
            return None
        return max(0.01, min(candidates))

    # -- completion / failure handling ----------------------------------

    def _drain(self, done) -> bool:
        """Store finished cells, route failures; True if the pool broke."""
        broken = False
        for future in done:
            index = self.outstanding.get(future)
            if index is None:
                continue
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                # Leave it in `outstanding`: _recover() attributes all
                # the broken futures together, with the in-flight set.
                broken = True
                continue
            del self.outstanding[future]
            if exc is None:
                payload, seconds = future.result()
                self._finish_ok(index, payload, seconds)
            elif self._after_failed_attempt(index, "error", _format_error(exc)):
                self._schedule_retry(index)
        return broken

    def _schedule_retry(self, index: int) -> None:
        backoff = self.records[index].attempts[-1].backoff_seconds
        self.delayed.append((time.monotonic() + backoff, index))

    def _enforce_timeouts(self) -> None:
        if self.policy.timeout_seconds is None:
            return
        now = time.monotonic()
        for future, index in list(self.outstanding.items()):
            if index in self.kill_pending or future.done():
                continue
            if now - self.submitted_at[index] < self.policy.timeout_seconds:
                continue
            pid = self._read_marker_pid(index)
            if pid is None:
                continue  # not started yet; re-check next tick
            try:
                os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
            except OSError:
                continue  # already gone; the pool break will attribute it
            self.kill_pending.add(index)

    def _read_marker_pid(self, index: int) -> Optional[int]:
        try:
            return int(self._marker_path(index).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    # -- pool-death recovery --------------------------------------------

    def _recover(self) -> None:
        """Rebuild a broken pool; re-queue and attribute the in-flight cells.

        Deliberate deaths (a timeout kill) charge the timed-out cell an
        attempt.  Spontaneous deaths (OOM kill, ``os._exit``, a crashed
        interpreter) are attributed to the cells whose pid markers were
        live — the cells actually running — and bounded by the policy's
        pool-rebuild budget rather than the cells' retry budgets,
        because any one of several in-flight cells may be the poison.

        Every worker dies with the pool, so a death with several cells
        in flight cannot say which one killed it.  Those cells become
        suspects and run alone afterwards; an over-budget death
        quarantines its cell only when that cell was alone in flight,
        so a bystander is never blamed for the poison's death.
        """
        deliberate = bool(self.kill_pending)
        in_flight: List[int] = []
        queued_back: List[int] = []
        for index in self.outstanding.values():
            if index in self.kill_pending:
                continue
            if self._marker_path(index).exists():
                in_flight.append(index)
            else:
                queued_back.append(index)

        for index in sorted(self.kill_pending):
            error = (
                f"cell exceeded its {self.policy.timeout_seconds:g}s timeout; "
                f"worker killed by the supervisor"
            )
            if self._after_failed_attempt(index, "timeout", error):
                self._schedule_retry(index)

        labels = ", ".join(self.specs[i].label for i in sorted(in_flight))
        blame = (
            "worker pool died (BrokenProcessPoolError) while these cells "
            f"were in flight: {labels or '(none had started)'}"
        )
        if not deliberate:
            self.suspects.update(in_flight)
        over_budget = (
            not deliberate
            and len(in_flight) == 1
            and self.death_rebuilds >= self.policy.max_pool_rebuilds
        )
        for index in sorted(in_flight):
            record = self.records[index]
            record.note("pool-death", error=blame)
            if over_budget:
                record.outcome = OUTCOME_FAILED
                if self.policy.failure_policy == "fail_fast":
                    self.aborted = True
            else:
                self.queue.append(index)
                self.stats.requeues += 1
        for index in sorted(queued_back):
            self.queue.append(index)
            self.stats.requeues += 1

        if not deliberate:
            self.death_rebuilds += 1
        self.stats.pool_rebuilds += 1
        self.kill_pending.clear()
        self.outstanding.clear()
        for path in self.scratch.glob("*.pid"):
            try:
                path.unlink()
            except OSError:
                pass
        self.pool.shutdown(wait=False)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)

    def _cancel_unfinished(self) -> None:
        unfinished = (
            list(self.queue)
            + [index for _, index in self.delayed]
            + list(self.outstanding.values())
            + list(self.kill_pending)
        )
        for index in unfinished:
            record = self.records[index]
            if not record.outcome:
                record.outcome = OUTCOME_CANCELLED
