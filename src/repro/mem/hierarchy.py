"""Three-level data-cache hierarchy in front of the memory controller.

Geometry and latencies follow Table III: private 32 KB 8-way L1
(2 cycles), private 512 KB 8-way L2 (20 cycles), shared 4 MB 64-way L3
(32 cycles), all with 64 B blocks.  The simulated CPU runs at 1 GHz so a
cycle is exactly one nanosecond — the code accounts in ns throughout.

The hierarchy is inclusive-enough for a trace model: a miss allocates in
every level on the way back, a dirty eviction propagates downward (a
dirty line pushed out of L3 is written back to memory), and a ``clwb``
walks all three levels.  Coherence between cores is
not modelled (the paper's overheads are memory-side, not coherence-side);
multi-threaded workloads interleave their traces onto one shared
hierarchy, which is how sharing pressure shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .cache import CacheConfig, SetAssociativeCache
from .stats import StatsRegistry

__all__ = ["HierarchyConfig", "AccessOutcome", "CacheHierarchy"]


@dataclass(frozen=True)
class HierarchyConfig:
    """Per-level cache configs; defaults mirror Table III."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l1", size_bytes=32 * 1024, ways=8, hit_latency=2.0
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l2", size_bytes=512 * 1024, ways=8, hit_latency=20.0
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l3", size_bytes=4 * 1024 * 1024, ways=64, hit_latency=32.0
        )
    )


class AccessOutcome:
    """Result of pushing one CPU access through the hierarchy.

    ``miss_addr`` is set when the access fell through to memory, and
    ``writeback_addrs`` lists the dirty lines that fell out of L3, which
    the controller must write back (each one a memory write the paper's
    figures count).

    One outcome is minted per line access, so this is a ``__slots__``
    class rather than a dataclass.
    """

    __slots__ = ("latency_ns", "miss_addr", "writeback_addrs")

    def __init__(
        self,
        latency_ns: float,
        miss_addr: Optional[int],
        writeback_addrs: "tuple[int, ...]",
    ) -> None:
        self.latency_ns = latency_ns
        self.miss_addr = miss_addr
        self.writeback_addrs = writeback_addrs


class CacheHierarchy:
    """L1 -> L2 -> L3 with allocate-on-miss and downward dirty propagation.

    The levels are bare tag stores; the hierarchy counts each level's
    hits, misses, evictions, dirty evictions and clwb write-backs on
    that level's registered bundle.
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        registry = registry or StatsRegistry()
        self.l1 = SetAssociativeCache(self.config.l1)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.l3 = SetAssociativeCache(self.config.l3)
        self._levels = (self.l1, self.l2, self.l3)
        # Per level, top down: its tag store and registered counters.
        self._fills = tuple(
            (cache, registry.create(name).counters)
            for cache, name in zip(self._levels, ("l1", "l2", "l3"))
        )
        # Per level: its counters, sets and geometry, so the per-access
        # probe walks the tag store without a method call per level.
        self._walk = tuple(
            (counters, cache._sets, cache._line_size, cache._num_sets, cache.config.hit_latency)
            for cache, counters in self._fills
        )

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Walk the hierarchy for one line access.

        Returns the accumulated lookup latency and the memory traffic
        implied by allocations.  Each level is probed without
        allocating: a hit refreshes LRU (and dirties the line on a
        write), a miss falls through.  The levels above the hit, or all
        three on a full miss, then allocate the line top down; a full
        miss installs it dirty in L1 on a write.
        """
        latency = 0.0
        for level, (counters, sets, line_size, num_sets, hit_latency) in enumerate(self._walk):
            latency += hit_latency
            line = addr // line_size
            entries = sets[line % num_sets]
            if line in entries:
                counters["hits"] += 1
                entries.move_to_end(line)
                if is_write:
                    entries[line] = True
                writebacks: "tuple[int, ...]" = ()
                for upper in range(level):
                    writebacks += self._fill(upper, addr, False)
                return AccessOutcome(latency, None, writebacks)
            counters["misses"] += 1
        writebacks = self._fill(0, addr, is_write)
        writebacks += self._fill(1, addr, False)
        writebacks += self._fill(2, addr, False)
        return AccessOutcome(latency, addr, writebacks)

    def _fill(self, level: int, addr: int, dirty: bool) -> "tuple[int, ...]":
        """Install a line at ``level`` (0 is L1), counting its victim.

        A dirty victim is written back into the next level down, and so
        on; returns the dirty line that fell out of L3, if any, which
        the caller must write back to memory.
        """
        for cache, counters in self._fills[level:]:
            eviction = cache.fill(addr, dirty)
            if eviction is None:
                return ()
            counters["evictions"] += 1
            if not eviction.dirty:
                return ()
            counters["dirty_evictions"] += 1
            addr = eviction.addr
            dirty = True
        return (addr,)

    def flush_line(self, addr: int) -> bool:
        """clwb across all levels: clean each level's copy in place.

        Returns True if any level held the line dirty — meaning the
        controller must issue a persist write to the NVM.
        """
        was_dirty = False
        for counters, sets, line_size, num_sets, _ in self._walk:
            line = addr // line_size
            entries = sets[line % num_sets]
            if entries.get(line):
                entries[line] = False
                counters["writebacks"] += 1
                was_dirty = True
        return was_dirty

    def drain_dirty(self) -> List[int]:
        """Crash/shutdown: collect every dirty line across the hierarchy."""
        dirty: List[int] = []
        for cache in self._levels:
            for eviction in cache.drain():
                dirty.append(eviction.addr)
        return sorted(set(dirty))
