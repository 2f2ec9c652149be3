"""The MMU: TLB + page-table walk + fault dispatch.

Translation is the seam where the DF-bit design pays off: the bit lives
in the PTE, so once a DAX page is mapped, *every* subsequent access
carries the tag to the memory controller with zero added instructions,
zero kernel entries, and zero extra translation state.

The MMU is deliberately thin.  It does not know what a file is; it calls
a registered fault handler (the simulated kernel's VM subsystem) when a
translation is missing and retries once.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..mem import dfbit
from ..mem.address import PAGE_MASK, PAGE_SHIFT
from ..mem.stats import StatCounters
from .page_table import PageFault, PageTable
from .tlb import TLB

__all__ = ["TranslationResult", "MMU"]


class TranslationResult:
    """Physical address (DF-tagged when applicable) plus latency."""

    __slots__ = ("paddr", "latency_ns")

    def __init__(self, paddr: int, latency_ns: float) -> None:
        self.paddr = paddr
        self.latency_ns = latency_ns


class MMU:
    """The machine's translation front end.

    ``fault_handler(vpn, is_write) -> (latency_ns)`` must install a
    mapping into the page table (or raise); it is provided by the kernel
    object that owns the file-mapping policy.
    """

    def __init__(
        self,
        page_table: Optional[PageTable] = None,
        tlb: Optional[TLB] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.page_table = page_table or PageTable()
        # Standalone fallback; Machine injects a TLB with a registered bundle.
        self.tlb = tlb or TLB()
        self.stats = stats or StatCounters("mmu")
        self._fault_handler: Optional[Callable[[int, bool], float]] = None

    def set_fault_handler(self, handler: Callable[[int, bool], float]) -> None:
        self._fault_handler = handler

    def translate(self, vaddr: int, is_write: bool) -> TranslationResult:
        """Translate one virtual address, faulting if needed."""
        if vaddr < 0:
            raise ValueError(f"negative virtual address {vaddr:#x}")
        vpn = vaddr >> PAGE_SHIFT
        offset = vaddr & PAGE_MASK
        latency = 0.0

        pte = self.tlb.lookup(vpn)
        if pte is None:
            latency += self.tlb.walk_latency_ns
            pte = self.page_table.lookup(vpn)
            if pte is None:
                self.stats.add("faults")
                latency += self._handle_fault(vpn, is_write)
                pte = self.page_table.lookup(vpn)
                if pte is None:
                    raise PageFault(vpn, is_write)
            self.tlb.fill(vpn, pte)

        if is_write and not pte.writable:
            self.stats.add("protection_faults")
            raise PageFault(vpn, is_write)

        self.stats.counters["translations"] += 1
        # The frame's address plus the offset, DF-tagged for a DAX page.
        paddr = (pte.pfn << PAGE_SHIFT) | offset
        if pte.df:
            if paddr >> dfbit.PHYSICAL_ADDRESS_BITS:
                dfbit.set_df(paddr)  # raises its out-of-range ValueError
            paddr |= dfbit.DF_MASK
        return TranslationResult(paddr, latency)

    def _handle_fault(self, vpn: int, is_write: bool) -> float:
        if self._fault_handler is None:
            raise PageFault(vpn, is_write)
        return self._fault_handler(vpn, is_write)
