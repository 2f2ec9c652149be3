"""Metadata cache: shared vs partitioned, evictions, hygiene ops."""

import pytest

from repro.mem import LINE_SIZE
from repro.secmem import MetadataCache, MetadataCacheConfig, MetadataKind


def tiny(partitioned=False, ways=2, lines=8):
    return MetadataCache(
        MetadataCacheConfig(size_bytes=lines * LINE_SIZE, ways=ways, partitioned=partitioned)
    )


class TestBasics:
    def test_miss_then_hit(self):
        cache = tiny()
        hit, _ = cache.access(0x1000, MetadataKind.MECB, is_write=False)
        assert not hit
        hit, _ = cache.access(0x1000, MetadataKind.MECB, is_write=False)
        assert hit

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            tiny().access(0, "bogus", False)

    def test_per_kind_stats(self):
        cache = tiny()
        cache.access(0, MetadataKind.MECB, False)
        cache.access(64, MetadataKind.FECB, True)
        assert cache.stats.get("mecb_misses") == 1
        assert cache.stats.get("fecb_misses") == 1
        assert cache.stats.get("fecb_writes") == 1


class TestEvictions:
    def test_dirty_eviction_returned(self):
        cache = tiny(ways=1, lines=1)
        cache.access(0, MetadataKind.MECB, is_write=True)
        _, evictions = cache.access(64, MetadataKind.MECB, is_write=False)
        assert len(evictions) == 1 and evictions[0].addr == 0

    def test_clean_eviction_suppressed(self):
        cache = tiny(ways=1, lines=1)
        cache.access(0, MetadataKind.MECB, is_write=False)
        _, evictions = cache.access(64, MetadataKind.MECB, is_write=False)
        assert evictions == []


class TestPartitioning:
    def test_shared_kinds_compete(self):
        cache = tiny(partitioned=False, ways=1, lines=1)
        cache.access(0, MetadataKind.MECB, False)
        cache.access(64, MetadataKind.MERKLE, False)  # evicts the MECB line
        hit, _ = cache.access(0, MetadataKind.MECB, False)
        assert not hit

    def test_partitioned_kinds_isolated(self):
        cache = tiny(partitioned=True, ways=1, lines=4)
        cache.access(0, MetadataKind.MECB, False)
        cache.access(64, MetadataKind.MERKLE, False)
        hit, _ = cache.access(0, MetadataKind.MECB, False)
        assert hit

    def test_partitioned_capacity_split(self):
        config = MetadataCacheConfig(size_bytes=4 * 64 * 4, ways=1, partitioned=True)
        cache = MetadataCache(config)
        # Each kind gets 4 lines; the 5th distinct line in one kind evicts.
        for i in range(4):
            cache.access(i * 64, MetadataKind.FECB, False)
        for i in range(4):
            hit, _ = cache.access(i * 64, MetadataKind.FECB, False)
            assert hit


class TestHygieneOps:
    def test_lookup_only_no_alloc(self):
        cache = tiny()
        assert cache.lookup_only(0, MetadataKind.MECB) is False
        hit, _ = cache.access(0, MetadataKind.MECB, False)
        assert not hit  # lookup_only must not have allocated

    def test_lookup_only_sees_present(self):
        cache = tiny()
        cache.access(0, MetadataKind.MECB, False)
        assert cache.lookup_only(0, MetadataKind.MECB) is True

    def test_clean_line(self):
        cache = tiny(ways=1, lines=1)
        cache.access(0, MetadataKind.MECB, is_write=True)
        assert cache.clean_line(0, MetadataKind.MECB) is True
        _, evictions = cache.access(64, MetadataKind.MECB, False)
        assert evictions == []  # cleaned, so no write-back

    def test_flush_all_returns_dirty_once(self):
        cache = tiny()
        cache.access(0, MetadataKind.MECB, is_write=True)
        cache.access(64, MetadataKind.FECB, is_write=False)
        dirty = cache.flush_all()
        assert [e.addr for e in dirty] == [0]

    def test_flush_all_partitioned_dedupes_nothing_but_works(self):
        cache = tiny(partitioned=True, ways=1, lines=4)
        cache.access(0, MetadataKind.MECB, is_write=True)
        cache.access(64, MetadataKind.MERKLE, is_write=True)
        dirty = {e.addr for e in cache.flush_all()}
        assert dirty == {0, 64}
