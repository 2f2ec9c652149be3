"""Failure injection: bit flips, replay, and partial state loss.

Attack/reliability scenarios beyond the happy path: every injected
fault must surface as a detected failure (IntegrityError / tag failure
/ ECC mismatch), never as silently wrong data.
"""

import pytest

from repro.core import FsEncrController, set_df
from repro.crypto import SecretKey
from repro.mem import MemoryRequest
from repro.secmem import (
    BaselineSecureController,
    IntegrityError,
    MetadataLayout,
    SecureControllerConfig,
    check_line,
    encode_line,
)


LAYOUT = MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024)


def fsencr(functional=True):
    return FsEncrController(layout=LAYOUT, config=SecureControllerConfig(functional=functional))


class TestCiphertextBitFlips:
    """Flips in the stored ciphertext (rowhammer / cosmic ray on data).

    Counter-mode without a data MAC does not detect data flips — they
    decrypt to flipped plaintext bits — but the line's ECC does, which
    is exactly the division of labour Osiris relies on.
    """

    def test_data_flip_visible_to_ecc(self):
        ctl = fsencr()
        plaintext = b"\x10" * 64
        ctl.write_data(0x6000, plaintext)
        ecc = encode_line(plaintext)
        # Inject: flip one stored ciphertext bit.
        sealed = bytearray(ctl.store.read_line(0x6000))
        sealed[5] ^= 0x01
        ctl.store.write_line(0x6000, bytes(sealed))
        corrupted = ctl.read_data(0x6000)
        assert corrupted != plaintext
        assert not check_line(corrupted, ecc)  # ECC catches it

    def test_flip_does_not_cascade_across_lines(self):
        ctl = fsencr()
        ctl.write_data(0x6000, b"\x10" * 64)
        ctl.write_data(0x6040, b"\x20" * 64)
        sealed = bytearray(ctl.store.read_line(0x6000))
        sealed[0] ^= 0xFF
        ctl.store.write_line(0x6000, bytes(sealed))
        assert ctl.read_data(0x6040) == b"\x20" * 64  # neighbour intact


class TestMetadataAttacks:
    def test_counter_rollback_detected(self):
        """Classic replay: roll a counter back to re-observe an old pad."""
        ctl = fsencr()
        ctl.write_data(0x6000, b"\x01" * 64)
        ctl.write_data(0x6000, b"\x02" * 64)
        ctl.mecb.block(6).minors[0] -= 1  # rollback
        with pytest.raises(IntegrityError):
            ctl.read_data(0x6000)

    def test_counter_forward_jump_detected(self):
        ctl = fsencr()
        ctl.write_data(0x6000, b"\x01" * 64)
        ctl.mecb.block(6).minors[0] += 7
        with pytest.raises(IntegrityError):
            ctl.read_data(0x6000)

    def test_major_counter_tamper_detected(self):
        ctl = fsencr()
        ctl.write_data(0x6000, b"\x01" * 64)
        ctl.mecb.block(6).major += 1
        with pytest.raises(IntegrityError):
            ctl.read_data(0x6000)

    def test_cross_page_counter_swap_detected(self):
        """Swap two pages' counter blocks wholesale (splicing)."""
        ctl = fsencr()
        ctl.write_data(0x6000, b"\x01" * 64)
        ctl.write_data(0x6000, b"\x01" * 64)  # distinct histories, else
        ctl.write_data(0x8000, b"\x02" * 64)  # the swap is a no-op
        a, b = ctl.mecb.block(6), ctl.mecb.block(8)
        a_state = (a.major, list(a.minors))
        a.major, a.minors = b.major, list(b.minors)
        b.major, b.minors = a_state
        with pytest.raises(IntegrityError):
            ctl.read_data(0x6000)

    def test_ott_region_flip_fails_tag_not_plaintext(self):
        ctl = fsencr()
        ctl.install_file_key(1, 9, SecretKey(bytes([5]) * 16))
        slot = ctl.ott_region.store(
            type(ctl.ott.lookup(1, 9))(group_id=1, file_id=9, key=SecretKey(bytes([5]) * 16))
        )
        ctl.ott.remove(1, 9)  # force the next lookup through the region
        ctl.ott_region.tamper(slot)
        found, _ = ctl.ott_region.fetch(1, 9)
        assert found is None  # tag failure, not a corrupted key


class TestPartialStateLoss:
    def test_lost_metadata_cache_is_recoverable_state(self):
        """A crash wipes the metadata cache; the in-memory counter store
        plus Osiris bounds mean every counter is recoverable, so reads
        after 'reboot' still verify and decrypt."""
        ctl = fsencr()
        ctl.write_data(0x6000, b"\x3c" * 64)
        ctl.metadata_cache.flush_all()  # crash: on-chip state gone
        assert ctl.read_data(0x6000) == b"\x3c" * 64

    def test_osiris_distance_never_exceeds_stop_loss(self):
        ctl = BaselineSecureController(
            layout=LAYOUT, config=SecureControllerConfig(stop_loss=4)
        )
        for i in range(64):
            ctl.access(MemoryRequest(addr=0x6000 + (i % 8) * 64, is_write=True))
        for distance in ctl.osiris._distance.values():
            assert distance < 4

    def test_locked_engine_blocks_even_after_cache_flush(self):
        ctl = fsencr()
        ctl.admin_login(b"x" * 32)
        ctl.install_file_key(1, 9, SecretKey(bytes([5]) * 16))
        ctl.update_fecb(page=6, group_id=1, file_id=9)
        addr = set_df(6 * 4096)
        ctl.write_data(addr, b"\x44" * 64)
        ctl.admin_login(b"y" * 32)  # wrong: locks
        ctl.metadata_cache.flush_all()
        assert ctl.read_data(addr) != b"\x44" * 64
