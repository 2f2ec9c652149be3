"""The software page cache used by the *conventional* (non-DAX) path.

Figure 1(a): without DAX, every first touch of a file page faults into
the kernel, walks the filesystem and driver layers, copies the 4 KB page
from the device into this cache (decrypting it there if the filesystem
is encrypted), and only then lets the application touch the copy.
Evictions of dirty pages re-encrypt and write back.

The page cache is what DAX deletes — and what software filesystem
encryption cannot live without, which is the paper's entire tension.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..mem.stats import StatCounters

__all__ = ["PageCacheConfig", "CachedPage", "PageCache"]


@dataclass(frozen=True)
class PageCacheConfig:
    """Capacity in pages; small by design in the eCryptfs study so that
    working sets larger than the cache show the re-fault behaviour the
    paper describes ("a small buffer for decrypted pages would still
    cause many page faults")."""

    capacity_pages: int = 1024  # 4 MB


@dataclass
class CachedPage:
    """One resident page: which file page it holds and its dirty state."""

    file_id: int
    page_index: int
    dirty: bool = False


class PageCache:
    """LRU page cache keyed by (file_id, page_index)."""

    def __init__(
        self,
        config: Optional[PageCacheConfig] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.config = config or PageCacheConfig()
        self.stats = stats or StatCounters("page_cache")
        self._pages: "OrderedDict[Tuple[int, int], CachedPage]" = OrderedDict()

    def lookup(self, file_id: int, page_index: int) -> Optional[CachedPage]:
        key = (file_id, page_index)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.stats.add("hits")
        else:
            self.stats.add("misses")
        return page

    def insert(self, file_id: int, page_index: int, dirty: bool = False) -> Optional[CachedPage]:
        """Make a page resident; returns the evicted page, if any."""
        key = (file_id, page_index)
        evicted: Optional[CachedPage] = None
        if key in self._pages:
            self._pages.move_to_end(key)
            if dirty:
                self._pages[key].dirty = True
            return None
        if len(self._pages) >= self.config.capacity_pages:
            _, evicted = self._pages.popitem(last=False)
            self.stats.add("evictions")
            if evicted.dirty:
                self.stats.add("dirty_evictions")
        self._pages[key] = CachedPage(file_id=file_id, page_index=page_index, dirty=dirty)
        return evicted

    def mark_dirty(self, file_id: int, page_index: int) -> None:
        page = self._pages.get((file_id, page_index))
        if page is not None:
            page.dirty = True
