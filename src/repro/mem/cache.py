"""Generic set-associative write-back cache with LRU replacement.

One cache class serves every cache in the machine: L1/L2/L3 data caches
and the on-chip Metadata Cache holding MECB/FECB/Merkle-tree lines
(Table III: all are 64 B-block, 8- or 64-way, LRU-ish structures).  The
cache is a *tag store only* — data contents live in the functional layer
— because the timing model needs hit/miss/eviction behaviour, not bytes.

Evictions are reported to the caller (the next level or the memory
controller) so dirty metadata write-backs turn into the extra NVM writes
the paper's Figures 9/13 measure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from .stats import StatCounters

__all__ = ["CacheConfig", "Eviction", "SetAssociativeCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    hit_latency: float = 0.0  # ns; 1 GHz clock makes cycles == ns

    def __post_init__(self) -> None:
        if self.ways < 1 or self.line_size < 1:
            raise ValueError(
                f"{self.name}: ways and line_size must be >= 1, "
                f"got {self.ways} and {self.line_size}"
            )
        if not self.hit_latency >= 0.0:
            raise ValueError(f"{self.name}: hit_latency must be >= 0, got {self.hit_latency!r}")
        if self.size_bytes <= 0 or self.size_bytes % (self.ways * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_size})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


class Eviction:
    """A victim pushed out of the cache; ``dirty`` means write it back.

    ``__slots__`` because evictions are minted inside the per-access
    cache walk — allocation cost here is paid on every simulated miss.
    """

    __slots__ = ("addr", "dirty")

    def __init__(self, addr: int, dirty: bool) -> None:
        self.addr = addr
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"Eviction(addr={self.addr:#x}, dirty={self.dirty})"


class SetAssociativeCache:
    """LRU set-associative cache over line-aligned tags.

    The public operations mirror what the machine model needs:

    * :meth:`lookup` — probe without allocating.
    * :meth:`access` — probe and allocate on miss, returning the hit flag
      and any eviction the allocation caused.
    * :meth:`writeback_line` / :meth:`invalidate_line` — the clwb / clflush
      persist primitives PMDK-style workloads issue.
    """

    def __init__(self, config: CacheConfig, stats: Optional[StatCounters] = None) -> None:
        self.config = config
        self.stats = stats or StatCounters(config.name)
        # Hoisted geometry: the per-access path must not chase
        # ``self.config.<field>`` attribute chains on every probe.
        self._line_size = config.line_size
        self._num_sets = config.num_sets
        self._ways = config.ways
        # One OrderedDict per set: key = tag, value = dirty flag.
        # Iteration order is LRU -> MRU.
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    # -- core operations ----------------------------------------------------

    def lookup(self, addr: int) -> bool:
        """True if the line is present; refreshes LRU on hit."""
        line = addr // self._line_size
        entries = self._sets[line % self._num_sets]
        if line in entries:
            entries.move_to_end(line)
            return True
        return False

    def access(self, addr: int, is_write: bool) -> "tuple[bool, Optional[Eviction]]":
        """Probe + allocate-on-miss.  Returns ``(hit, eviction_or_None)``."""
        line = addr // self._line_size
        entries = self._sets[line % self._num_sets]
        counters = self.stats.counters
        eviction: Optional[Eviction] = None
        hit = line in entries
        if hit:
            counters["hits"] += 1
            entries.move_to_end(line)
            if is_write:
                entries[line] = True
        else:
            counters["misses"] += 1
            if len(entries) >= self._ways:
                victim_line, victim_dirty = entries.popitem(last=False)
                eviction = Eviction(victim_line * self._line_size, victim_dirty)
                counters["evictions"] += 1
                if victim_dirty:
                    counters["dirty_evictions"] += 1
            entries[line] = is_write
        return hit, eviction

    def fill(self, addr: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert a line (used by explicit fills); returns any eviction."""
        line = addr // self._line_size
        entries = self._sets[line % self._num_sets]
        eviction: Optional[Eviction] = None
        if line in entries:
            entries.move_to_end(line)
            if dirty:
                entries[line] = True
            return None
        if len(entries) >= self._ways:
            victim_line, victim_dirty = entries.popitem(last=False)
            eviction = Eviction(victim_line * self._line_size, victim_dirty)
            counters = self.stats.counters
            counters["evictions"] += 1
            if victim_dirty:
                counters["dirty_evictions"] += 1
        entries[line] = dirty
        return eviction

    def writeback_line(self, addr: int) -> bool:
        """clwb: clean the line in place.  Returns True if it was dirty."""
        line = addr // self._line_size
        entries = self._sets[line % self._num_sets]
        if entries.get(line):
            entries[line] = False
            self.stats.counters["writebacks"] += 1
            return True
        return False

    def invalidate_line(self, addr: int) -> Optional[Eviction]:
        """clflush: evict the line.  Returns the eviction if present."""
        line = addr // self._line_size
        entries = self._sets[line % self._num_sets]
        if line not in entries:
            return None
        dirty = entries.pop(line)
        self.stats.add("invalidations")
        return Eviction(line * self._line_size, dirty)

    def drain(self) -> List[Eviction]:
        """Flush everything (crash / shutdown).  Returns dirty victims."""
        victims: List[Eviction] = []
        for entries in self._sets:
            for line, dirty in entries.items():
                if dirty:
                    victims.append(Eviction(line * self._line_size, True))
            entries.clear()
        return victims
