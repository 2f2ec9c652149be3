"""Three-level hierarchy: hit levels, allocation, write-backs, flushes."""

import pytest

from repro.mem import CacheConfig, CacheHierarchy, HierarchyConfig, StatsRegistry


def tiny_hierarchy(registry=None):
    """1/2/4-line caches so evictions are easy to force."""
    return CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(name="l1", size_bytes=64, ways=1, hit_latency=2.0),
            l2=CacheConfig(name="l2", size_bytes=128, ways=2, hit_latency=20.0),
            l3=CacheConfig(name="l3", size_bytes=256, ways=4, hit_latency=32.0),
        ),
        registry=registry,
    )


#: 64 B/1-way L1, 128 B/2-way L2 and L3: small enough that a dirty L1
#: victim pushed into L3 can evict a dirty L3 line.
PUSH_DOWN_HIERARCHY = HierarchyConfig(
    l1=CacheConfig(name="l1", size_bytes=64, ways=1),
    l2=CacheConfig(name="l2", size_bytes=128, ways=2),
    l3=CacheConfig(name="l3", size_bytes=128, ways=2),
)

#: Stores line 0x180; the last store pushes it out of L3 dirty.
PUSH_DOWN_STREAM = ((0x180, True), (0xC0, True), (0x40, False), (0x0, True))


class Probe:
    """A tiny hierarchy whose accesses report the level they hit, read
    off the levels' registered ``hits``/``misses`` counters."""

    def __init__(self):
        self.registry = StatsRegistry()
        self.h = tiny_hierarchy(self.registry)

    def hit_level(self, addr, is_write=False):
        """Access ``addr``; the level that hit, or None on a full miss."""
        before = self.registry.snapshot()
        outcome = self.h.access(addr, is_write)
        after = self.registry.snapshot()
        moved = {key: after[key] - before.get(key, 0) for key in after}
        hits = [name for name in ("l1", "l2", "l3") if moved.get(f"{name}.hits")]
        misses = [name for name in ("l1", "l2", "l3") if moved.get(f"{name}.misses")]
        # Each level above the hit (all three on a full miss) missed once.
        assert len(hits) <= 1 and misses == ["l1", "l2", "l3"][: len(misses)]
        assert len(misses) == (("l1", "l2", "l3").index(hits[0]) if hits else 3)
        assert (outcome.miss_addr is None) == bool(hits)
        return hits[0] if hits else None


class TestAccessPath:
    def test_cold_access_misses_everywhere(self):
        h = tiny_hierarchy()
        outcome = h.access(0, is_write=False)
        assert outcome.miss_addr == 0
        assert outcome.latency_ns == pytest.approx(2 + 20 + 32)
        assert Probe().hit_level(0) is None

    def test_second_access_hits_l1(self):
        p = Probe()
        p.h.access(0, False)
        outcome = p.h.access(0, False)
        assert outcome.miss_addr is None
        assert outcome.latency_ns == pytest.approx(2)
        assert p.hit_level(0) == "l1"

    def test_l1_victim_still_hits_lower_level(self):
        p = Probe()
        p.h.access(0, False)
        p.h.access(64, False)  # evicts 0 from the 1-line L1
        assert p.hit_level(0) == "l2"

    def test_hit_refills_upper_levels(self):
        p = Probe()
        p.h.access(0, False)
        p.h.access(64, False)
        p.h.access(0, False)  # L2 hit refills L1
        assert p.hit_level(0) == "l1"

    def test_counts_land_on_the_registered_levels(self):
        registry = StatsRegistry()
        h = tiny_hierarchy(registry)
        assert sorted(registry.names) == ["l1", "l2", "l3"]
        h.access(0, is_write=True)
        h.access(64, is_write=False)  # evicts dirty 0 from L1 into L2
        assert registry.snapshot() == {
            "l1.misses": 2, "l1.evictions": 1, "l1.dirty_evictions": 1,
            "l2.misses": 2, "l3.misses": 2,
        }

    def test_default_config_matches_table3_scaled_interface(self):
        h = CacheHierarchy()
        assert h.l1.config.hit_latency == 2.0
        assert h.l2.config.hit_latency == 20.0
        assert h.l3.config.hit_latency == 32.0


class TestWritebacks:
    def test_dirty_l3_eviction_reported(self):
        h = tiny_hierarchy()
        h.access(0, is_write=True)
        writebacks = []
        # Fill L3's single set far enough to evict line 0.
        addr = 64
        for _ in range(16):
            outcome = h.access(addr, is_write=False)
            writebacks.extend(outcome.writeback_addrs)
            addr += 64 * 4  # stay in one L3 set (4 sets of 64B lines)
        assert 0 in writebacks

    def test_clean_evictions_not_reported(self):
        h = tiny_hierarchy()
        h.access(0, is_write=False)
        reported = []
        addr = 64 * 4
        for _ in range(16):
            outcome = h.access(addr, is_write=False)
            reported.extend(outcome.writeback_addrs)
            addr += 64 * 4
        assert 0 not in reported

    def test_dirty_victim_pushed_out_of_l3_is_written_back(self):
        # A dirty L1 victim pushed into L3 evicts dirty line 0x180
        # there; that line must come back as a write-back, not vanish.
        registry = StatsRegistry()
        h = CacheHierarchy(PUSH_DOWN_HIERARCHY, registry=registry)
        outcomes = [h.access(addr, is_write) for addr, is_write in PUSH_DOWN_STREAM]
        assert [o.writeback_addrs for o in outcomes] == [(), (), (), (0x180,)]
        assert outcomes[-1].miss_addr == 0x0
        assert 0x180 not in h.drain_dirty()
        assert registry.snapshot()["l3.dirty_evictions"] == 1


class TestFlush:
    def test_flush_dirty_line_reports_dirty(self):
        h = tiny_hierarchy()
        h.access(0, is_write=True)
        assert h.flush_line(0) is True

    def test_flush_clean_line_reports_clean(self):
        h = tiny_hierarchy()
        h.access(0, is_write=False)
        assert h.flush_line(0) is False

    def test_clwb_keeps_line_cached(self):
        p = Probe()
        p.h.access(0, is_write=True)
        p.h.flush_line(0)
        assert p.hit_level(0) == "l1"
        assert p.h.flush_line(0) is False  # cleaned in place

    def test_flush_absent_line(self):
        assert tiny_hierarchy().flush_line(0) is False


class TestDrain:
    def test_drain_collects_dirty_lines(self):
        h = tiny_hierarchy()
        h.access(0, is_write=True)
        h.access(64, is_write=False)
        dirty = h.drain_dirty()
        assert 0 in dirty
        assert 64 not in dirty

    def test_drain_empties_hierarchy(self):
        p = Probe()
        p.h.access(0, is_write=True)
        p.h.drain_dirty()
        assert p.hit_level(0) is None
