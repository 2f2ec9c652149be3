"""Three-level data-cache hierarchy in front of the memory controller.

Geometry and latencies follow Table III: private 32 KB 8-way L1
(2 cycles), private 512 KB 8-way L2 (20 cycles), shared 4 MB 64-way L3
(32 cycles), all with 64 B blocks.  The simulated CPU runs at 1 GHz so a
cycle is exactly one nanosecond — the code accounts in ns throughout.

The hierarchy is inclusive-enough for a trace model: a miss allocates in
every level on the way back, a dirty eviction propagates downward, and a
``clwb``/``clflush`` walks all three levels.  Coherence between cores is
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
    ``writeback_addrs`` lists dirty L3 victims the controller must write
    back (each one a memory write the paper's figures count).

    One outcome is minted per line access, so this is a ``__slots__``
    class rather than a dataclass.
    """

    __slots__ = ("latency_ns", "hit_level", "miss_addr", "writeback_addrs")

    def __init__(
        self,
        latency_ns: float,
        hit_level: Optional[str],
        miss_addr: Optional[int],
        writeback_addrs: "tuple[int, ...]" = (),
    ) -> None:
        self.latency_ns = latency_ns
        self.hit_level = hit_level
        self.miss_addr = miss_addr
        self.writeback_addrs = writeback_addrs


class CacheHierarchy:
    """L1 -> L2 -> L3 with allocate-on-miss and downward dirty propagation."""

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        registry = registry or StatsRegistry()
        self.l1 = SetAssociativeCache(self.config.l1, registry.create("l1"))
        self.l2 = SetAssociativeCache(self.config.l2, registry.create("l2"))
        self.l3 = SetAssociativeCache(self.config.l3, registry.create("l3"))
        self._levels = [self.l1, self.l2, self.l3]
        # id() -> position, so the walk never does a list.index() scan.
        self._level_index = {id(cache): i for i, cache in enumerate(self._levels)}
        # Per level: the cache, its sets and geometry, so the per-access
        # probe walks the tag store without a method call per level.
        self._walk = tuple(
            (cache, cache._sets, cache._line_size, cache._num_sets, cache.config.hit_latency)
            for cache in self._levels
        )

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Walk the hierarchy for one line access.

        Returns where the line hit (if anywhere), the accumulated lookup
        latency, and the memory traffic implied by allocations.  Each
        level is probed without allocating: a hit refreshes LRU (and
        dirties the line on a write), a miss falls through.
        """
        latency = 0.0
        for index, (cache, sets, line_size, num_sets, hit_latency) in enumerate(self._walk):
            latency += hit_latency
            line = addr // line_size
            entries = sets[line % num_sets]
            if line in entries:
                cache.stats.counters["hits"] += 1
                entries.move_to_end(line)
                if is_write:
                    entries[line] = True
                # Allocate in the upper levels the line just bypassed.
                for upper in self._levels[:index]:
                    eviction = upper.fill(addr, dirty=False)
                    if eviction is not None and eviction.dirty:
                        self._push_down(upper, eviction.addr)
                return AccessOutcome(latency, cache.config.name, None)
            cache.stats.counters["misses"] += 1
        # Full miss: allocate everywhere, collecting L3 dirty victims.
        writebacks: List[int] = []
        for cache in self._levels:
            eviction = cache.fill(addr, dirty=is_write and cache is self.l1)
            if eviction is not None and eviction.dirty:
                if cache is self.l3:
                    writebacks.append(eviction.addr)
                else:
                    self._push_down(cache, eviction.addr)
        return AccessOutcome(
            latency_ns=latency,
            hit_level=None,
            miss_addr=addr,
            writeback_addrs=tuple(writebacks),
        )

    def _push_down(self, cache: SetAssociativeCache, addr: int) -> None:
        """Install a dirty victim in the next level down (write-back)."""
        next_index = self._level_index[id(cache)] + 1
        for lower in self._levels[next_index:]:
            eviction = lower.fill(addr, dirty=True)
            if eviction is None or not eviction.dirty:
                return
            addr = eviction.addr
        # Fell out of L3 — the caller's next access() call will not see
        # this; the machine model drains L3 victims via access outcomes,
        # and victims generated here are rare enough to fold into them.

    def flush_line(self, addr: int, invalidate: bool) -> bool:
        """clwb (invalidate=False) or clflush (True) across all levels.

        Returns True if any level held the line dirty — meaning the
        controller must issue a persist write to the NVM.
        """
        was_dirty = False
        if invalidate:
            for cache in self._levels:
                eviction = cache.invalidate_line(addr)
                if eviction is not None and eviction.dirty:
                    was_dirty = True
            return was_dirty
        # clwb cleans each level's copy in place, straight over its sets.
        for cache, sets, line_size, num_sets, _ in self._walk:
            line = addr // line_size
            entries = sets[line % num_sets]
            if entries.get(line):
                entries[line] = False
                cache.stats.counters["writebacks"] += 1
                was_dirty = True
        return was_dirty

    def drain_dirty(self) -> List[int]:
        """Crash/shutdown: collect every dirty line across the hierarchy."""
        dirty: List[int] = []
        for cache in self._levels:
            for eviction in cache.drain():
                dirty.append(eviction.addr)
        return sorted(set(dirty))
