"""The memory controller's Write Pending Queue (the ADR domain).

``clwb + sfence`` does not wait for the PCM array: it completes when the
line reaches the controller's write-pending queue, which ADR guarantees
to drain on power failure.  That makes persist latency *burst-
sensitive*: a queue with free slots absorbs a flush in tens of
nanoseconds, but a workload flushing faster than the PCM array drains
(150 ns/entry) fills the queue and stalls — the cliff behind many real
PM performance anomalies.

The machine's persist path uses this model when
``MachineConfig.model_wpq`` is on; the default keeps the simpler fixed
ADR constant for backwards-comparable figures, and an ablation measures
the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .stats import StatCounters

__all__ = ["WPQConfig", "WritePendingQueue"]


@dataclass(frozen=True)
class WPQConfig:
    """Queue geometry and timing."""

    entries: int = 16  # typical ADR-protected depth
    accept_ns: float = 30.0  # flush completion when a slot is free
    drain_ns_per_entry: float = 150.0  # PCM array write service rate

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("WPQ needs at least one entry")
        if not self.accept_ns >= 0.0:
            raise ValueError(f"WPQ accept_ns must be >= 0, got {self.accept_ns!r}")
        if not self.drain_ns_per_entry > 0.0:
            # occupancy_at divides by the drain time.
            raise ValueError(
                f"WPQ drain_ns_per_entry must be > 0, got {self.drain_ns_per_entry!r}"
            )


class WritePendingQueue:
    """Occupancy-over-time model against the machine's global clock.

    The queue drains continuously at one entry per ``drain_ns_per_entry``;
    ``accept(now_ns)`` returns the latency the flushing store observes:
    the accept cost alone while slots are free, plus the wait for the
    next drain slot when the queue is full.
    """

    def __init__(self, config: Optional[WPQConfig] = None, stats: Optional[StatCounters] = None) -> None:
        self.config = config or WPQConfig()
        self.stats = stats or StatCounters("wpq")
        # Time at which the queue's backlog will have fully drained.
        self._backlog_clear_ns = 0.0

    def occupancy_at(self, now_ns: float) -> int:
        """Entries still queued at ``now_ns``."""
        remaining_ns = max(0.0, self._backlog_clear_ns - now_ns)
        return min(
            self.config.entries,
            int(-(-remaining_ns // self.config.drain_ns_per_entry)),
        )

    def accept(self, now_ns: float) -> float:
        """Enqueue one persist write at ``now_ns``; returns its latency."""
        self.stats.counters["accepts"] += 1
        drain = self.config.drain_ns_per_entry
        backlog_ns = max(0.0, self._backlog_clear_ns - now_ns)
        occupancy = self.occupancy_at(now_ns)
        if occupancy >= self.config.entries:
            # Full: the flush waits for one drain slot to open.
            wait_ns = backlog_ns - (self.config.entries - 1) * drain
            self.stats.counters["stalls"] += 1
            latency = wait_ns + self.config.accept_ns
            self._backlog_clear_ns = now_ns + backlog_ns + drain
            return latency
        # Free slot: accept immediately; the entry joins the backlog.
        self._backlog_clear_ns = max(self._backlog_clear_ns, now_ns) + drain
        return self.config.accept_ns

    def drain_all(self, now_ns: float) -> float:
        """Fence-to-durability (e.g. shutdown): time to empty the queue."""
        remaining = max(0.0, self._backlog_clear_ns - now_ns)
        self.stats.add("full_drains")
        self._backlog_clear_ns = now_ns
        return remaining

    def crash_drain(self, now_ns: float, drain_fraction: float) -> "tuple[int, int]":
        """Power failure: ADR drains what it can, the rest is lost.

        ``drain_fraction`` models how far the stored energy gets through
        the backlog (1.0 = healthy ADR, everything lands; 0.0 = none of
        the queue survives).  Returns ``(drained, lost)`` entry counts;
        the queue is empty afterwards either way — there is no machine
        left to drain into.
        """
        if not 0.0 <= drain_fraction <= 1.0:
            raise ValueError("drain_fraction must be in [0, 1]")
        occupancy = self.occupancy_at(now_ns)
        drained = int(occupancy * drain_fraction)
        lost = occupancy - drained
        self._backlog_clear_ns = now_ns
        self.stats.add("crash_drains")
        self.stats.add("crash_drained_entries", drained)
        self.stats.add("crash_lost_entries", lost)
        return drained, lost
