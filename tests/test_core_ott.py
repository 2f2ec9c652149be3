"""Open Tunnel Table and its encrypted spill region."""

import pytest

from repro.core import (
    FILE_ID_BITS,
    GROUP_ID_BITS,
    EncryptedOTTRegion,
    KeyUnavailableError,
    OpenTunnelTable,
    OTTEntry,
)
from repro.crypto import SecretKey


def entry(group=1, file=1, fill=0xAB):
    return OTTEntry(group_id=group, file_id=file, key=SecretKey(bytes([fill]) * 16))


class TestOTTEntry:
    def test_field_widths_match_paper(self):
        assert GROUP_ID_BITS == 18
        assert FILE_ID_BITS == 14

    @pytest.mark.parametrize("kwargs", [
        dict(group_id=1 << 18, file_id=0, key=SecretKey(bytes(16))),
        dict(group_id=-1, file_id=0, key=SecretKey(bytes(16))),
        dict(group_id=0, file_id=1 << 14, key=SecretKey(bytes(16))),
        dict(group_id=0, file_id=0, key=bytes(16)),  # raw bytes, not a SecretKey
    ])
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            OTTEntry(**kwargs)


class TestOpenTunnelTable:
    def test_paper_capacity(self):
        assert OpenTunnelTable().capacity == 8 * 128

    def test_paper_latency_is_20_cycles(self):
        assert OpenTunnelTable().lookup_latency_ns == 20.0

    def test_insert_lookup(self):
        ott = OpenTunnelTable()
        ott.insert(entry(1, 2))
        found = ott.lookup(1, 2)
        assert found is not None and found.key == SecretKey(bytes([0xAB]) * 16)

    def test_miss_returns_none(self):
        assert OpenTunnelTable().lookup(1, 2) is None

    def test_reinsert_updates_key(self):
        ott = OpenTunnelTable()
        ott.insert(entry(1, 2, fill=0x11))
        victim = ott.insert(entry(1, 2, fill=0x22))
        assert victim is None
        assert ott.lookup(1, 2).key == SecretKey(bytes([0x22]) * 16)
        assert len(ott) == 1

    def test_lru_eviction(self):
        ott = OpenTunnelTable(banks=1, entries_per_bank=2)
        ott.insert(entry(1, 1))
        ott.insert(entry(1, 2))
        ott.lookup(1, 1)  # refresh
        victim = ott.insert(entry(1, 3))
        assert victim is not None and victim.ident == (1, 2)

    def test_remove(self):
        ott = OpenTunnelTable()
        ott.insert(entry(1, 2))
        assert ott.remove(1, 2) is True
        assert ott.remove(1, 2) is False
        assert ott.lookup(1, 2) is None

    def test_entries_snapshot(self):
        ott = OpenTunnelTable()
        ott.insert(entry(1, 1))
        ott.insert(entry(1, 2))
        assert {e.ident for e in ott.entries()} == {(1, 1), (1, 2)}


class TestEncryptedOTTRegion:
    def region(self, slots=64, ways=8, key=SecretKey(b"K" * 16)):
        return EncryptedOTTRegion(slots=slots, ott_key=key, ways=ways)

    def test_store_fetch_roundtrip(self):
        region = self.region()
        region.store(entry(3, 7))
        found, probed = region.fetch(3, 7)
        assert found is not None and found.key == SecretKey(bytes([0xAB]) * 16)
        assert len(probed) >= 1

    def test_fetch_miss(self):
        found, probed = self.region().fetch(1, 1)
        assert found is None and len(probed) >= 1

    def test_sealed_at_rest(self):
        """The raw slot bytes must reveal neither the key nor the IDs."""
        region = self.region()
        slot = region.store(entry(3, 7))
        raw = region.slot_bytes(slot)
        assert bytes([0xAB]) * 16 not in raw
        assert raw != bytes(64)

    def test_sealed_record_does_not_give_back_its_key(self):
        """Each 16-byte block of a record's pad is distinct: with one
        block reused three times, the 12 zero padding bytes and the
        known (group, file) identity would rebuild the pad and so the
        whole file key, without the OTT key."""
        region = self.region()
        key = SecretKey(bytes(range(16)))
        slot = region.store(OTTEntry(group_id=3, file_id=7, key=key))
        sealed = region.slot_bytes(slot)[: EncryptedOTTRegion.RECORD_BYTES]
        ident = ((3 << FILE_ID_BITS) | 7).to_bytes(4, "big")
        block = bytes(a ^ b for a, b in zip(sealed[:4], ident)) + sealed[36:48]
        guess = bytes(a ^ b for a, b in zip(sealed[4:20], block[4:] + block[:4]))
        assert SecretKey(guess) != key

    def test_wrong_ott_key_cannot_unseal(self):
        a = self.region(key=SecretKey(b"A" * 16))
        slot = a.store(entry(3, 7))
        b = self.region(key=SecretKey(b"B" * 16))
        b._lines[slot] = a.slot_bytes(slot)[: EncryptedOTTRegion.RECORD_BYTES]
        b._occupancy[slot] = (3, 7)
        found, _ = b.fetch(3, 7)
        assert found is None  # tag check fails under the wrong chip key

    def test_tamper_detected(self):
        region = self.region()
        slot = region.store(entry(3, 7))
        region.tamper(slot)
        found, _ = region.fetch(3, 7)
        assert found is None
        assert region.stats.get("tag_failures") == 1

    @pytest.mark.parametrize("bit", [-1, EncryptedOTTRegion.RECORD_BYTES * 8])
    def test_flip_bit_outside_record_rejected(self, bit):
        region = self.region()
        slot = region.store(entry(3, 7))
        sealed = region.slot_bytes(slot)
        with pytest.raises(ValueError):
            region.flip_bit(slot, bit)
        assert region.slot_bytes(slot) == sealed

    def test_update_in_place(self):
        region = self.region()
        region.store(entry(3, 7, fill=0x11))
        region.store(entry(3, 7, fill=0x22))
        found, _ = region.fetch(3, 7)
        assert found.key == SecretKey(bytes([0x22]) * 16)
        assert len(region) == 1

    def test_remove(self):
        region = self.region()
        slot = region.store(entry(3, 7))
        assert region.remove(3, 7) == slot
        assert region.remove(3, 7) is None
        found, _ = region.fetch(3, 7)
        assert found is None
        assert region.slot_bytes(slot) == bytes(64)

    def test_set_overflow_raises_loudly(self):
        region = self.region(slots=8, ways=8)  # one set
        for i in range(8):
            region.store(entry(1, i))
        with pytest.raises(KeyUnavailableError):
            region.store(entry(1, 100))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            EncryptedOTTRegion(slots=7, ott_key=SecretKey(bytes(16)), ways=8)
        with pytest.raises(ValueError):
            EncryptedOTTRegion(slots=12, ott_key=SecretKey(bytes(16)), ways=8)
