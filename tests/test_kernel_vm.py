"""Kernel VM machinery: page tables, TLB, MMU, DF-bit propagation."""

import pytest

from repro.kernel import MMU, TLB, PageFault, PageTable, PageTableEntry
from repro.mem import PAGE_SIZE
from repro.mem.dfbit import has_df


class TestPageTableEntry:
    def test_defaults_and_slots(self):
        pte = PageTableEntry(pfn=5)
        assert (pte.pfn, pte.present, pte.writable, pte.df, pte.dirty, pte.accessed) == (
            5, True, True, False, False, False)
        with pytest.raises(AttributeError):
            pte.extra = 1  # __slots__: no per-entry __dict__


class TestPageTable:
    def test_map_lookup(self):
        pt = PageTable()
        pt.map(7, pfn=100)
        assert pt.lookup(7).pfn == 100
        assert pt.lookup(8) is None

    def test_not_present_hidden(self):
        pt = PageTable()
        pte = pt.map(7, pfn=100)
        pte.present = False
        assert pt.lookup(7) is None

    def test_df_flag_stored(self):
        pt = PageTable()
        pt.map(7, pfn=100, df=True)
        assert pt.lookup(7).df is True


class TestTLB:
    def test_fill_then_hit(self):
        tlb = TLB(entries=4)
        pte = PageTableEntry(pfn=1)
        tlb.fill(7, pte)
        assert tlb.lookup(7) is pte
        assert tlb.stats.get("hits") == 1

    def test_miss_counted(self):
        tlb = TLB(entries=4)
        assert tlb.lookup(7) is None
        assert tlb.stats.get("misses") == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.fill(1, PageTableEntry(pfn=1))
        tlb.fill(2, PageTableEntry(pfn=2))
        tlb.lookup(1)
        tlb.fill(3, PageTableEntry(pfn=3))  # evicts vpn 2
        assert tlb.lookup(2) is None
        assert tlb.lookup(1) is not None

    def test_flush(self):
        tlb = TLB(entries=4)
        tlb.fill(7, PageTableEntry(pfn=1))
        tlb.flush()
        assert tlb.lookup(7) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestMMU:
    def make_mmu(self, df_pages=frozenset()):
        mmu = MMU()
        fault_log = []

        def handler(vpn, is_write):
            fault_log.append((vpn, is_write))
            mmu.page_table.map(vpn, pfn=vpn + 100, df=vpn in df_pages)
            return 500.0

        mmu.set_fault_handler(handler)
        return mmu, fault_log

    def test_fault_then_translate(self):
        mmu, log = self.make_mmu()
        result = mmu.translate(3 * PAGE_SIZE + 8, is_write=False)
        assert result.faulted
        assert result.paddr == (3 + 100) * PAGE_SIZE + 8
        assert log == [(3, False)]
        assert result.latency_ns >= 500.0

    def test_second_access_no_fault(self):
        mmu, log = self.make_mmu()
        mmu.translate(3 * PAGE_SIZE, is_write=False)
        result = mmu.translate(3 * PAGE_SIZE + 64, is_write=False)
        assert not result.faulted
        assert len(log) == 1
        assert result.latency_ns == 0.0  # TLB hit

    def test_df_bit_rides_translation(self):
        mmu, _ = self.make_mmu(df_pages={3})
        tagged = mmu.translate(3 * PAGE_SIZE, False)
        plain = mmu.translate(4 * PAGE_SIZE, False)
        assert has_df(tagged.paddr)
        assert not has_df(plain.paddr)

    def test_df_frame_outside_physical_space_rejected(self):
        mmu = MMU()
        mmu.page_table.map(3, pfn=1 << 40, df=True)  # tagged address needs bit 52
        with pytest.raises(ValueError, match="52-bit physical space"):
            mmu.translate(3 * PAGE_SIZE, False)

    def test_write_sets_dirty(self):
        mmu, _ = self.make_mmu()
        mmu.translate(3 * PAGE_SIZE, is_write=True)
        assert mmu.page_table.lookup(3).dirty

    def test_write_protection_fault(self):
        mmu = MMU()
        mmu.page_table.map(3, pfn=1, writable=False)
        mmu.translate(3 * PAGE_SIZE, is_write=False)  # read ok
        with pytest.raises(PageFault):
            mmu.translate(3 * PAGE_SIZE, is_write=True)

    def test_no_handler_raises(self):
        mmu = MMU()
        with pytest.raises(PageFault):
            mmu.translate(0, False)

    def test_handler_that_fails_to_map_raises(self):
        mmu = MMU()
        mmu.set_fault_handler(lambda vpn, w: 0.0)  # maps nothing
        with pytest.raises(PageFault):
            mmu.translate(0, False)

    def test_flushed_tlb_forces_walk(self):
        mmu, _ = self.make_mmu()
        mmu.translate(3 * PAGE_SIZE, False)
        mmu.tlb.flush()
        result = mmu.translate(3 * PAGE_SIZE, False)
        assert not result.faulted  # page table still has it
        assert result.latency_ns == mmu.tlb.walk_latency_ns

    def test_negative_vaddr_rejected(self):
        mmu, _ = self.make_mmu()
        with pytest.raises(ValueError):
            mmu.translate(-1, False)
