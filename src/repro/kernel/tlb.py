"""A small fully-associative TLB with LRU replacement.

The TLB caches whole PTEs, so the DF-bit rides along with the
translation at zero extra cost — one of the reasons the paper's
recognition mechanism adds no latency on the access path.  A miss
charges a fixed page-table-walk latency (four-level walk, mostly
cache-resident in practice).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..mem.stats import StatCounters
from .page_table import PageTableEntry

__all__ = ["TLB"]


class TLB:
    """vpn -> PTE cache.  ``entries`` default mirrors a typical L2 DTLB."""

    def __init__(
        self,
        entries: int = 512,
        walk_latency_ns: float = 30.0,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.capacity = entries
        self.walk_latency_ns = walk_latency_ns
        self.stats = stats or StatCounters("tlb")
        self._entries: "OrderedDict[int, PageTableEntry]" = OrderedDict()

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        pte = self._entries.get(vpn)
        if pte is not None:
            self._entries.move_to_end(vpn)
            self.stats.counters["hits"] += 1
        else:
            self.stats.counters["misses"] += 1
        return pte

    def fill(self, vpn: int, pte: PageTableEntry) -> None:
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.add("evictions")
        self._entries[vpn] = pte

    def flush(self) -> None:
        """Full flush (power loss drops every cached translation)."""
        self._entries.clear()
        self.stats.add("flushes")
