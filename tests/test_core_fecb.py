"""File Encryption Counter Blocks: stamping, recycling, serialisation."""

import pytest

from repro.core import FECBlock, FECBStore


class TestFECBlock:
    def test_unstamped_initially(self):
        assert not FECBlock().stamped

    def test_stamp_binds_identity(self):
        blk = FECBlock()
        reset = blk.stamp(group_id=5, file_id=42)
        assert not reset  # fresh block, nothing to reset
        assert blk.stamped and (blk.group_id, blk.file_id) == (5, 42)

    def test_restamp_same_file_keeps_counters(self):
        blk = FECBlock()
        blk.stamp(5, 42)
        blk.counters.bump(0)
        assert blk.stamp(5, 42) is False
        assert blk.counters.value_for(0) == (0, 1)

    def test_recycle_to_other_file_resets_counters(self):
        blk = FECBlock()
        blk.stamp(5, 42)
        blk.counters.bump(0)
        assert blk.stamp(5, 43) is True
        assert blk.counters.value_for(0) == (0, 0)

    def test_invalidate_clears_everything(self):
        blk = FECBlock()
        blk.stamp(5, 42)
        blk.counters.bump(0)
        blk.invalidate()
        assert not blk.stamped
        assert blk.counters.value_for(0) == (0, 0)

    def test_id_width_validation(self):
        blk = FECBlock()
        with pytest.raises(ValueError):
            blk.stamp(1 << 18, 0)
        with pytest.raises(ValueError):
            blk.stamp(0, 1 << 14)

    def test_fecb_major_is_32_bits(self):
        assert FECBlock().counters.major_limit == 1 << 32

    def test_serialize_includes_ids(self):
        """§VI: the ID fields must be integrity-protected too — they are
        part of the hashed serialisation."""
        a, b = FECBlock(), FECBlock()
        a.stamp(5, 42)
        b.stamp(5, 43)
        assert a.serialize() != b.serialize()

    def test_serialize_includes_counters(self):
        blk = FECBlock()
        blk.stamp(5, 42)
        before = blk.serialize()
        blk.counters.bump(0)
        assert blk.serialize() != before


class TestFECBStore:
    def test_block_materialises(self):
        store = FECBStore()
        assert store.peek(3) is None
        assert store.block(3) is store.block(3)
        assert store.peek(3) is not None

    def test_stamped_pages(self):
        store = FECBStore()
        store.block(1).stamp(5, 42)
        store.block(2).stamp(5, 42)
        store.block(3).stamp(5, 99)
        assert sorted(store.stamped_pages(5, 42)) == [1, 2]
        assert store.stamped_pages(9, 9) == []

    def test_invalidated_pages_drop_out(self):
        store = FECBStore()
        store.block(1).stamp(5, 42)
        store.block(1).invalidate()
        assert store.stamped_pages(5, 42) == []

    def test_snapshot_restore(self):
        store = FECBStore()
        store.block(1).stamp(5, 42)
        store.block(1).counters.bump(3)
        snap = store.snapshot()
        store.block(1).counters.bump(3)
        store.block(9).stamp(6, 7)
        store.restore(snap)
        assert store.block(1).counters.value_for(3) == (0, 1)
        assert store.peek(9) is None
