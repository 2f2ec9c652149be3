"""Equivalence against brute-force reference models (hypothesis).

The cache and OTT implementations use ordered-dict tricks for speed;
these tests pit them against deliberately naive reference
implementations over random operation sequences, plus a remap of a
file on the machine.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OpenTunnelTable, OTTEntry
from repro.crypto import SecretKey
from repro.mem import CacheConfig, SetAssociativeCache
from repro.sim import Machine, MachineConfig, Scheme


class _ReferenceLRUSet:
    """A transparently naive LRU set of fixed capacity."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []  # LRU -> MRU

    def touch(self, key):
        hit = key in self.order
        if hit:
            self.order.remove(key)
        evicted = None
        if not hit and len(self.order) >= self.capacity:
            evicted = self.order.pop(0)
        self.order.append(key)
        return hit, evicted


class TestCacheVsReference:
    @given(
        addrs=st.lists(st.integers(0, 15).map(lambda x: x * 64), min_size=1, max_size=300)
    )
    @settings(max_examples=25, deadline=None)
    def test_fully_associative_equivalence(self, addrs):
        """One-set cache == plain LRU list: identical hits and victims."""
        ways = 4
        cache = SetAssociativeCache(
            CacheConfig(name="t", size_bytes=ways * 64, ways=ways)
        )
        reference = _ReferenceLRUSet(capacity=ways)
        for addr in addrs:
            hit, eviction = cache.access(addr, is_write=False)
            ref_hit, ref_evicted = reference.touch(addr // 64)
            assert hit == ref_hit
            if eviction is None:
                assert ref_evicted is None
            else:
                assert eviction.addr // 64 == ref_evicted

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 31).map(lambda x: x * 64), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_set_mapping_equivalence(self, ops):
        """Multi-set cache == independent per-set LRU references."""
        ways, sets = 2, 4
        cache = SetAssociativeCache(
            CacheConfig(name="t", size_bytes=ways * sets * 64, ways=ways)
        )
        references = [_ReferenceLRUSet(capacity=ways) for _ in range(sets)]
        for addr, is_write in ops:
            line = addr // 64
            hit, _ = cache.access(addr, is_write)
            ref_hit, _ = references[line % sets].touch(line)
            assert hit == ref_hit


class TestOttVsReference:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "lookup", "remove"]), st.integers(0, 9)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_ott_equivalence(self, ops):
        ott = OpenTunnelTable(banks=1, entries_per_bank=4)
        reference: "OrderedDict[int, bytes]" = OrderedDict()
        for op, file_id in ops:
            key = SecretKey(bytes([file_id]) * 16)
            if op == "insert":
                ott.insert(OTTEntry(group_id=1, file_id=file_id, key=key))
                if file_id in reference:
                    reference.move_to_end(file_id)
                    reference[file_id] = key
                else:
                    if len(reference) >= 4:
                        reference.popitem(last=False)
                    reference[file_id] = key
            elif op == "lookup":
                found = ott.lookup(1, file_id)
                if file_id in reference:
                    reference.move_to_end(file_id)
                    assert found is not None and found.key == reference[file_id]
                else:
                    assert found is None
            else:
                removed = ott.remove(1, file_id)
                assert removed == (reference.pop(file_id, None) is not None)
        assert len(ott) == len(reference)


class TestRemap:
    def test_data_survives_remap(self):
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR, functional=True))
        machine.add_user(uid=1000, gid=100, passphrase="p")
        handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=1)
        machine.store_bytes(base, b"durable across remap")
        fresh = machine.open_file("/pmem/f", uid=1000)
        base2 = machine.mmap(fresh, pages=1)
        assert base2 != base
        assert machine.load_bytes(base2, 20) == b"durable across remap"
