"""Generic set-associative cache: LRU, dirtiness, flush primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import CacheConfig, SetAssociativeCache


def small_cache(ways=2, sets=4):
    return SetAssociativeCache(
        CacheConfig(name="t", size_bytes=ways * sets * 64, ways=ways)
    )


class TestConfig:
    def test_num_sets(self):
        assert CacheConfig(name="c", size_bytes=32 * 1024, ways=8).num_sets == 64

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=1000, ways=8)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.access(0, is_write=False)
        assert not hit
        hit, _ = cache.access(0, is_write=False)
        assert hit

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0, is_write=False)
        hit, _ = cache.access(63, is_write=False)
        assert hit

    def test_lru_eviction_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0, False)
        cache.access(64, False)
        cache.access(0, False)  # refresh 0
        _, eviction = cache.access(128, False)  # evicts 64, not 0
        assert eviction is not None and eviction.addr == 64
        assert cache.lookup(0)

    def test_set_isolation(self):
        cache = small_cache(ways=1, sets=2)
        cache.access(0, False)  # set 0
        cache.access(64, False)  # set 1
        assert cache.lookup(0) and cache.lookup(64)


class TestDirtiness:
    def test_write_dirties(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=True)
        _, eviction = cache.access(64, is_write=False)
        assert eviction.dirty

    def test_read_stays_clean(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=False)
        _, eviction = cache.access(64, is_write=False)
        assert not eviction.dirty

    def test_write_hit_dirties_existing(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, is_write=False)
        cache.access(0, is_write=True)
        _, eviction = cache.access(64, is_write=False)
        assert eviction.dirty


class TestFlushPrimitives:
    def test_writeback_line_cleans(self):
        cache = small_cache()
        cache.access(0, is_write=True)
        assert cache.writeback_line(0) is True
        assert cache.writeback_line(0) is False  # already clean
        assert cache.lookup(0)  # clwb keeps the line

    def test_writeback_absent_line(self):
        assert small_cache().writeback_line(0) is False

    def test_invalidate_line_removes(self):
        cache = small_cache()
        cache.access(0, is_write=True)
        eviction = cache.invalidate_line(0)
        assert eviction is not None and eviction.dirty
        assert not cache.lookup(0)

    def test_invalidate_absent_line(self):
        assert small_cache().invalidate_line(0) is None

    def test_drain_returns_only_dirty(self):
        cache = small_cache()
        cache.access(0, is_write=True)
        cache.access(64, is_write=False)
        victims = cache.drain()
        assert [v.addr for v in victims] == [0]
        assert not cache.lookup(0) and not cache.lookup(64)


class TestFill:
    def test_fill_then_lookup(self):
        cache = small_cache()
        cache.fill(0)
        assert cache.lookup(0)

    def test_fill_existing_can_dirty(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, dirty=False)
        cache.fill(0, dirty=True)
        _, eviction = cache.access(64, False)
        assert eviction.dirty


class TestOccupancyInvariant:
    @given(
        addrs=st.lists(st.integers(0, 31).map(lambda x: x * 64), min_size=1, max_size=200),
        writes=st.lists(st.booleans(), min_size=1, max_size=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs, writes):
        cache = small_cache(ways=2, sets=4)
        capacity = 2 * 4
        for addr, w in zip(addrs, writes):
            cache.access(addr, is_write=w)
            assert sum(len(entries) for entries in cache._sets) <= capacity
