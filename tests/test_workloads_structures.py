"""Persistent data structures: correctness against reference models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PAGE_SIZE
from repro.sim import Machine, MachineConfig, Scheme
from repro.workloads import (
    PersistentAllocator,
    PersistentBTree,
    PersistentCritbitTree,
    PersistentHashmap,
    PoolExhausted,
)


def machine_and_pool(pages=512):
    machine = Machine(MachineConfig(scheme=Scheme.BASELINE_SECURE))
    machine.add_user(uid=1000, gid=100, passphrase="p")
    handle = machine.create_file("/pmem/pool", uid=1000)
    base = machine.mmap(handle, pages=pages)
    return machine, PersistentAllocator(machine, base, pages * PAGE_SIZE)


class TestAllocator:
    def test_alloc_distinct_addresses(self):
        _, alloc = machine_and_pool()
        a, b = alloc.alloc(100), alloc.alloc(100)
        assert a != b and abs(a - b) >= 100

    def test_free_then_reuse_same_class(self):
        _, alloc = machine_and_pool()
        a = alloc.alloc(100)
        alloc.free(a, 100)
        assert alloc.alloc(100) == a

    def test_size_classes_separate(self):
        _, alloc = machine_and_pool()
        a = alloc.alloc(40)
        alloc.free(a, 40)
        big = alloc.alloc(400)  # different class: no reuse
        assert big != a

    def test_exhaustion(self):
        _, alloc = machine_and_pool(pages=1)
        with pytest.raises(PoolExhausted):
            for _ in range(100):
                alloc.alloc(256)

    def test_invalid_size(self):
        _, alloc = machine_and_pool()
        with pytest.raises(ValueError):
            alloc.alloc(0)

    def test_allocation_charges_persists(self):
        machine, alloc = machine_and_pool()
        t = machine.elapsed_ns
        alloc.alloc(64)
        assert machine.elapsed_ns > t


class TestBTree:
    def test_put_get(self):
        machine, alloc = machine_and_pool()
        tree = PersistentBTree(machine, alloc)
        tree.put(5, 64)
        assert tree.get(5) == 64
        assert tree.get(6) is None

    def test_update_value_size(self):
        machine, alloc = machine_and_pool()
        tree = PersistentBTree(machine, alloc)
        tree.put(5, 64)
        tree.put(5, 128)
        assert tree.get(5) == 128
        assert tree.size == 1

    def test_many_inserts_with_splits(self):
        machine, alloc = machine_and_pool(pages=2048)
        tree = PersistentBTree(machine, alloc)
        keys = list(range(300))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.put(k, 64)
        for k in keys:
            assert tree.get(k) == 64, f"key {k} lost"
        assert tree.keys_inorder() == sorted(keys)

    def test_sequential_inserts(self):
        machine, alloc = machine_and_pool(pages=2048)
        tree = PersistentBTree(machine, alloc)
        for k in range(200):
            tree.put(k, 64)
        assert tree.keys_inorder() == list(range(200))

    def test_reverse_inserts(self):
        machine, alloc = machine_and_pool(pages=2048)
        tree = PersistentBTree(machine, alloc)
        for k in reversed(range(200)):
            tree.put(k, 64)
        assert tree.keys_inorder() == list(range(200))

    @given(keys=st.lists(st.integers(0, 10_000), min_size=1, max_size=120, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_matches_dict_property(self, keys):
        machine, alloc = machine_and_pool(pages=2048)
        tree = PersistentBTree(machine, alloc)
        for k in keys:
            tree.put(k, 64)
        for k in keys:
            assert tree.get(k) == 64
        assert tree.keys_inorder() == sorted(keys)


class TestHashmap:
    def test_put_get(self):
        machine, alloc = machine_and_pool()
        hm = PersistentHashmap(machine, alloc, buckets=16)
        hm.put(5)
        assert hm.get(5) is True
        assert hm.get(6) is False

    def test_chaining_under_collisions(self):
        machine, alloc = machine_and_pool()
        hm = PersistentHashmap(machine, alloc, buckets=2)  # heavy chains
        for k in range(50):
            hm.put(k)
        for k in range(50):
            assert hm.get(k), f"key {k} lost in chain"
        assert hm.size == 50

    def test_update_does_not_grow(self):
        machine, alloc = machine_and_pool()
        hm = PersistentHashmap(machine, alloc, buckets=16)
        hm.put(5)
        hm.put(5)
        assert hm.size == 1

    def test_bucket_validation(self):
        machine, alloc = machine_and_pool()
        with pytest.raises(ValueError):
            PersistentHashmap(machine, alloc, buckets=3)


class TestCritbitTree:
    def test_put_get(self):
        machine, alloc = machine_and_pool()
        tree = PersistentCritbitTree(machine, alloc)
        tree.put(5)
        assert tree.get(5) is True
        assert tree.get(4) is False

    def test_update_in_place(self):
        machine, alloc = machine_and_pool()
        tree = PersistentCritbitTree(machine, alloc)
        tree.put(5)
        tree.put(5)
        assert tree.size == 1

    def test_many_keys(self):
        machine, alloc = machine_and_pool(pages=2048)
        tree = PersistentCritbitTree(machine, alloc)
        keys = list(range(0, 400, 3))
        random.Random(7).shuffle(keys)
        for k in keys:
            tree.put(k)
        for k in keys:
            assert tree.get(k), f"key {k} lost"
        for probe in (1, 2, 401, 10**6):
            assert not tree.get(probe)
        assert tree.size == len(keys)

    @given(keys=st.lists(st.integers(0, 2**32), min_size=1, max_size=100, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_matches_set_property(self, keys):
        machine, alloc = machine_and_pool(pages=2048)
        tree = PersistentCritbitTree(machine, alloc)
        for k in keys:
            tree.put(k)
        for k in keys:
            assert tree.get(k)
        assert tree.size == len(keys)
