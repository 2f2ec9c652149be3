"""Page tables and PTEs, including the DF-bit the DAX fault path sets.

The paper's kernel change is tiny and lives exactly here: when
``dax_insert_mapping`` creates the PTE for a DAX-file page, it ORs
``1 << 51`` into the physical frame address (§III-C).  The only other
bit is ``writable``, which the MMU checks every store against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["PageTableEntry", "PageTable", "PageFault"]


class PageFault(Exception):
    """Raised by translation when no mapping exists (minor fault).

    The MMU catches this and invokes the registered fault handler — the
    simulated kernel — exactly like a hardware fault vectoring into the
    OS.
    """

    def __init__(self, vpn: int, is_write: bool) -> None:
        super().__init__(f"page fault at vpn {vpn:#x} ({'write' if is_write else 'read'})")
        self.vpn = vpn
        self.is_write = is_write


class PageTableEntry:
    """One PTE.  ``pfn`` is the physical frame number; ``df`` mirrors the
    paper's DAX-File bit and is folded into the physical address the MMU
    emits; a store through an entry that is not ``writable`` faults.  A
    ``__slots__`` class: the MMU reads a PTE on every translation, and
    big mappings hold one of these per page."""

    __slots__ = ("pfn", "writable", "df")

    def __init__(self, pfn: int, writable: bool = True, df: bool = False) -> None:
        self.pfn = pfn
        self.writable = writable
        self.df = df


@dataclass
class PageTable:
    """The machine's map from virtual page number to PTE."""

    entries: Dict[int, PageTableEntry] = field(default_factory=dict)

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        return self.entries.get(vpn)

    def map(self, vpn: int, pfn: int, *, writable: bool = True, df: bool = False) -> PageTableEntry:
        """Install a mapping (the tail end of a fault handler)."""
        pte = PageTableEntry(pfn=pfn, writable=writable, df=df)
        self.entries[vpn] = pte
        return pte
