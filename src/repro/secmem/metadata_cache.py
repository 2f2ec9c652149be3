"""The on-chip Metadata Cache for MECB / FECB / Merkle-tree lines.

Table III gives the default: 512 KB, 8-way, 64 B blocks — swept from
128 KB to 2 MB in Figure 15.  The paper notes (§III-D) that the cache
*may* be partitioned per metadata kind "to equitably distribute the
cache capacity"; both organisations are supported here and compared by
an ablation benchmark.

Evictions of dirty metadata lines become NVM writes at the line's real
metadata address — this is the dominant source of FsEncr's extra write
traffic in Figures 9 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..mem.cache import CacheConfig, Eviction, SetAssociativeCache
from ..mem.stats import StatCounters

__all__ = ["MetadataKind", "MetadataCacheConfig", "MetadataCache"]


class MetadataKind:
    """Symbolic names for what a metadata line holds (stats keys)."""

    MECB = "mecb"
    FECB = "fecb"
    MERKLE = "merkle"
    OTT = "ott"

    ALL = (MECB, FECB, MERKLE, OTT)


@dataclass(frozen=True)
class MetadataCacheConfig:
    """Geometry of the metadata cache.

    ``partitioned`` splits capacity equally across the four kinds;
    the default is the paper's single shared structure.
    """

    size_bytes: int = 512 * 1024
    ways: int = 8
    line_size: int = 64
    hit_latency: float = 3.0  # ns; small on-chip SRAM
    partitioned: bool = False

    def __post_init__(self) -> None:
        if self.ways < 1 or self.line_size < 1:
            raise ValueError(
                f"metadata cache: ways and line_size must be >= 1, "
                f"got {self.ways} and {self.line_size}"
            )
        if not self.hit_latency >= 0.0:
            raise ValueError(f"metadata cache: hit_latency must be >= 0, got {self.hit_latency!r}")


class MetadataCache:
    """Address-tagged cache front for the in-memory metadata region."""

    def __init__(
        self,
        config: Optional[MetadataCacheConfig] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.config = config or MetadataCacheConfig()
        self.stats = stats or StatCounters("metadata_cache")
        if self.config.partitioned:
            slice_bytes = self.config.size_bytes // len(MetadataKind.ALL)
            # Bare tag stores: hits, misses, writes and dirty evictions
            # are counted per kind on this MetadataCache's own bundle.
            self._caches: Dict[str, SetAssociativeCache] = {
                kind: SetAssociativeCache(
                    CacheConfig(
                        name=f"metadata_{kind}",
                        size_bytes=slice_bytes,
                        ways=self.config.ways,
                        line_size=self.config.line_size,
                        hit_latency=self.config.hit_latency,
                    )
                )
                for kind in MetadataKind.ALL
            }
        else:
            # One bare tag store, counted per kind as above.
            shared = SetAssociativeCache(
                CacheConfig(
                    name="metadata_shared",
                    size_bytes=self.config.size_bytes,
                    ways=self.config.ways,
                    line_size=self.config.line_size,
                    hit_latency=self.config.hit_latency,
                )
            )
            self._caches = {kind: shared for kind in MetadataKind.ALL}
        # Per kind: its (hit, miss, write) stat keys, built once.
        self._stat_keys = {
            kind: (f"{kind}_hits", f"{kind}_misses", f"{kind}_writes")
            for kind in MetadataKind.ALL
        }

    def access(self, addr: int, kind: str, is_write: bool) -> Tuple[bool, List[Eviction]]:
        """Probe/allocate a metadata line.  Returns (hit, dirty_evictions).

        Clean evictions are dropped silently (the in-memory copy is
        current); dirty ones must be written back by the controller.
        """
        keys = self._stat_keys.get(kind)
        if keys is None:
            raise ValueError(f"unknown metadata kind {kind!r}")
        hit, eviction = self._caches[kind].access(addr, is_write)
        counters = self.stats.counters
        counters[keys[0] if hit else keys[1]] += 1
        if is_write:
            counters[keys[2]] += 1
        if eviction is not None and eviction.dirty:
            counters["dirty_evictions"] += 1
            return hit, [eviction]
        return hit, []

    def lookup_only(self, addr: int, kind: str) -> bool:
        """Presence probe with no allocation and no hit/miss accounting.

        Used by the controller to ask "was this line already on chip?"
        before running the fetch path (e.g. the OTT short-circuit for
        already-resolved FECB lines).
        """
        return self._caches[kind].lookup(addr)

    def clean_line(self, addr: int, kind: str) -> bool:
        """Mark a cached metadata line clean (it was just persisted)."""
        return self._caches[kind].writeback_line(addr)

    def flush_all(self) -> List[Eviction]:
        """Crash/drain: every dirty line across all partitions (deduped)."""
        seen = set()
        dirty: List[Eviction] = []
        distinct = {id(c): c for c in self._caches.values()}.values()
        for cache in distinct:
            for eviction in cache.drain():
                if eviction.addr not in seen:
                    seen.add(eviction.addr)
                    dirty.append(eviction)
        return dirty

    @property
    def hit_latency(self) -> float:
        return self.config.hit_latency
