"""Page tables and PTEs, including the DF-bit the DAX fault path sets.

The paper's kernel change is tiny and lives exactly here: when
``dax_insert_mapping`` creates the PTE for a DAX-file page, it ORs
``1 << 51`` into the physical frame address (§III-C).  Everything else —
present/writable/dirty bookkeeping — is the ordinary x86-ish machinery
the rest of the simulated kernel expects.
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
    emits.  A ``__slots__`` class: the MMU touches a PTE on every
    translation, and big mappings hold one of these per page."""

    __slots__ = ("pfn", "present", "writable", "df", "dirty", "accessed")

    def __init__(
        self,
        pfn: int,
        present: bool = True,
        writable: bool = True,
        df: bool = False,
        dirty: bool = False,
        accessed: bool = False,
    ) -> None:
        self.pfn = pfn
        self.present = present
        self.writable = writable
        self.df = df
        self.dirty = dirty
        self.accessed = accessed


@dataclass
class PageTable:
    """The machine's map from virtual page number to PTE."""

    entries: Dict[int, PageTableEntry] = field(default_factory=dict)

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        pte = self.entries.get(vpn)
        if pte is None or not pte.present:
            return None
        return pte

    def map(self, vpn: int, pfn: int, *, writable: bool = True, df: bool = False) -> PageTableEntry:
        """Install a mapping (the tail end of a fault handler)."""
        pte = PageTableEntry(pfn=pfn, writable=writable, df=df)
        self.entries[vpn] = pte
        return pte
