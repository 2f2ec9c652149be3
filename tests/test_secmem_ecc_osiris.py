"""SEC-DED ECC codec and Osiris stop-loss crash consistency."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secmem import (
    OsirisTracker,
    check_line,
    check_word,
    encode_line,
    encode_word,
    recover_line,
)
from repro.secmem.ecc import _hamming_ecc

# sha256 over encode_line for the seeded lines of _encode_line_digest,
# recorded with the bit-loop Hamming encoder.
ENCODE_LINE_SHA256 = "467ed230fef0dd1ac003dfc5c6396f80beb33f85a0036453845e836159c7241f"


class TestEccWord:
    def test_zero_word(self):
        assert check_word(0, encode_word(0))

    def test_roundtrip(self):
        for word in (1, 0xDEADBEEF, (1 << 64) - 1, 0x0123456789ABCDEF):
            assert check_word(word, encode_word(word))

    def test_single_bit_flip_detected(self):
        word = 0xDEADBEEF
        ecc = encode_word(word)
        for bit in (0, 13, 63):
            assert not check_word(word ^ (1 << bit), ecc)

    def test_double_bit_flip_detected(self):
        word = 0xCAFEBABE
        ecc = encode_word(word)
        assert not check_word(word ^ 0b11, ecc)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_word(1 << 64)
        with pytest.raises(ValueError):
            encode_word(-1)

    @given(word=st.integers(0, (1 << 64) - 1), bit=st.integers(0, 63))
    @settings(max_examples=50, deadline=None)
    def test_any_single_flip_detected_property(self, word, bit):
        assert not check_word(word ^ (1 << bit), encode_word(word))

    @given(a=st.integers(0, (1 << 64) - 1), b=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50, deadline=None)
    def test_linear_over_gf2_property(self, a, b):
        assert encode_word(a ^ b) == encode_word(a) ^ encode_word(b)
        assert _hamming_ecc(a ^ b) == _hamming_ecc(a) ^ _hamming_ecc(b)
        assert encode_word(a) == _hamming_ecc(a)

    def test_tables_match_definition_on_every_byte_value(self):
        """Every table entry (the 64 unit vectors among them) equals the
        bit-loop Hamming code of the word holding that one byte."""
        assert encode_word(0) == _hamming_ecc(0) == 0
        for shift in range(0, 64, 8):
            for value in range(1, 256):
                word = value << shift
                assert encode_word(word) == _hamming_ecc(word), hex(word)


class TestEccLine:
    def test_roundtrip(self):
        line = bytes(range(64))
        assert check_line(line, encode_line(line))

    def test_corrupt_byte_detected(self):
        line = bytes(range(64))
        ecc = encode_line(line)
        corrupted = bytes([line[0] ^ 0xFF]) + line[1:]
        assert not check_line(corrupted, ecc)

    def test_garbage_line_fails_with_high_probability(self):
        """A wrongly-decrypted line looks random; at least one of its
        eight words must fail — this is what Osiris recovery leans on."""
        line = bytes(range(64))
        ecc = encode_line(line)
        failures = 0
        for trial in range(32):
            garbage = hashlib.sha256(bytes([trial])).digest() * 2
            if not check_line(garbage, ecc):
                failures += 1
        assert failures == 32

    def test_encode_line_digest_pinned(self):
        rng = random.Random(20220402)
        digest = hashlib.sha256()
        for _ in range(256):
            digest.update(encode_line(rng.randbytes(64)))
        assert digest.hexdigest() == ENCODE_LINE_SHA256

    def test_size_validation(self):
        with pytest.raises(ValueError):
            encode_line(bytes(32))
        with pytest.raises(ValueError):
            check_line(bytes(64), bytes(4))


class TestOsirisTracker:
    def test_persist_forced_at_stop_loss(self):
        tracker = OsirisTracker(stop_loss=3)
        assert tracker.note_update(0) is False
        assert tracker.note_update(0) is False
        assert tracker.note_update(0) is True  # 3rd update forces persist
        assert tracker.distance(0) == 0

    def test_lines_tracked_independently(self):
        tracker = OsirisTracker(stop_loss=2)
        tracker.note_update(0)
        assert tracker.note_update(64) is False
        assert tracker.note_update(0) is True

    def test_external_persist_resets_distance(self):
        tracker = OsirisTracker(stop_loss=4)
        tracker.note_update(0)
        tracker.note_persisted(0)  # e.g. metadata-cache eviction
        assert tracker.distance(0) == 0
        assert tracker.note_update(0) is False

    def test_stop_loss_validation(self):
        with pytest.raises(ValueError):
            OsirisTracker(stop_loss=0)

    def test_stop_loss_one_always_persists(self):
        tracker = OsirisTracker(stop_loss=1)
        assert tracker.note_update(0) is True
        assert tracker.note_update(0) is True


class TestOsirisRecovery:
    """The one Osiris search (``recover_line``) over a single counter
    layer: a toy counter-keyed cipher, XOR with a counter-derived pad."""

    PLAINTEXT = bytes(range(64))

    @staticmethod
    def _pad(counter: int) -> bytes:
        return hashlib.sha256(counter.to_bytes(8, "big")).digest() * 2

    def _recover(self, true_counter: int, persisted: int, stop_loss: int = 4):
        cipher = bytes(a ^ b for a, b in zip(self.PLAINTEXT, self._pad(true_counter)))
        return recover_line(cipher, encode_line(self.PLAINTEXT), [(persisted, self._pad)], stop_loss)

    def test_recovers_exact_counter(self):
        result = self._recover(true_counter=7, persisted=7)
        assert result.minors == (7,)
        assert result.trials == 1
        assert result.plaintext == self.PLAINTEXT

    def test_recovers_ahead_of_persisted(self):
        result = self._recover(true_counter=10, persisted=7)
        assert result.minors == (10,)
        assert result.trials == 4

    def test_recovery_at_stop_loss_boundary(self):
        result = self._recover(true_counter=11, persisted=7)
        assert result.minors == (11,)
        assert result.trials == 5

    def test_beyond_stop_loss_fails(self):
        # An exhausted window is reported, with every trial counted.
        result = self._recover(true_counter=12, persisted=7)
        assert result.minors is None and result.plaintext is None
        assert result.trials == 5

    def test_candidates_past_the_minor_field_are_skipped(self):
        # A 7-bit minor tops out at 127: from 125 only three candidates
        # are real counter values.
        assert self._recover(true_counter=127, persisted=125).minors == (127,)
        beyond = self._recover(true_counter=128, persisted=125)
        assert beyond.minors is None and beyond.trials == 3
