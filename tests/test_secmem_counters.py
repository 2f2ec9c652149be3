"""Split-counter blocks: bumps, overflow, serialisation, store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secmem import CounterBlock, CounterStore, FECB_MAJOR_BITS, MINOR_BITS


class TestCounterBlock:
    def test_initial_state(self):
        blk = CounterBlock()
        assert blk.value_for(0) == (0, 0)
        assert blk.value_for(63) == (0, 0)

    def test_bump_increments_one_minor(self):
        blk = CounterBlock()
        assert blk.bump(5) is False
        assert blk.value_for(5) == (0, 1)
        assert blk.value_for(6) == (0, 0)

    def test_minor_overflow_bumps_major_and_resets(self):
        blk = CounterBlock()
        for _ in range((1 << MINOR_BITS) - 1):
            assert blk.bump(0) is False
        assert blk.bump(0) is True  # the 128th write overflows
        assert blk.major == 1
        assert all(m == 0 for m in blk.minors)

    def test_overflow_resets_other_minors_too(self):
        blk = CounterBlock()
        blk.bump(3)
        blk.bump(3)
        for _ in range(1 << MINOR_BITS):
            blk.bump(0)
        assert blk.value_for(3) == (1, 0)

    def test_major_exhaustion_raises(self):
        blk = CounterBlock(major_bits=1)
        blk.major = 1  # at the limit
        for _ in range((1 << MINOR_BITS) - 1):
            blk.bump(0)
        with pytest.raises(OverflowError):
            blk.bump(0)

    def test_fecb_major_width(self):
        blk = CounterBlock(major_bits=FECB_MAJOR_BITS)
        assert blk.major_limit == 1 << 32

    def test_reset(self):
        blk = CounterBlock()
        blk.bump(0)
        blk.bump(1)
        blk.reset()
        assert blk.major == 0 and all(m == 0 for m in blk.minors)

    def test_serialize_changes_with_state(self):
        blk = CounterBlock()
        before = blk.serialize()
        blk.bump(0)
        after_minor = blk.serialize()
        assert before != after_minor
        blk.major += 1
        assert blk.serialize() != after_minor

    def test_serialize_length_covers_fields(self):
        blk = CounterBlock()
        expected_bits = 64 + 64 * MINOR_BITS
        assert len(blk.serialize()) == (expected_bits + 7) // 8

    @given(bumps=st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_version_monotonicity_property(self, bumps):
        """(major, minor) for a line never repeats across its bumps."""
        blk = CounterBlock()
        seen = {line: {blk.value_for(line)} for line in range(64)}
        for line in bumps:
            blk.bump(line)
            version = blk.value_for(line)
            assert version not in seen[line] or blk.major > 0  # majors dedupe
            seen[line].add(version)


class TestCounterStore:
    def test_block_materialises_once(self):
        store = CounterStore()
        assert store.block(3) is store.block(3)

    def test_peek_does_not_materialise(self):
        store = CounterStore()
        assert store.peek(3) is None
        store.block(3)
        assert store.peek(3) is not None

    def test_major_bits_propagate(self):
        store = CounterStore(major_bits=32)
        assert store.block(0).major_limit == 1 << 32

    def test_snapshot_restore_roundtrip(self):
        store = CounterStore()
        store.block(1).bump(5)
        store.block(2).major = 9
        snap = store.snapshot()
        store.block(1).bump(5)
        store.restore(snap)
        assert store.block(1).value_for(5) == (0, 1)
        assert store.block(2).major == 9

    def test_snapshot_is_detached(self):
        store = CounterStore()
        store.block(0).bump(0)
        snap = store.snapshot()
        store.block(0).bump(0)
        assert snap[0][1][0] == 1
