"""OTP generation and the XOR-composition algebra FsEncr builds on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AES128,
    FILE_DOMAIN,
    MEMORY_DOMAIN,
    CounterIV,
    IVLayout,
    OTPEngine,
    SecretKey,
    apply_pad,
    compose_pads,
    generate_otp,
    xor_bytes,
)


def iv(domain=MEMORY_DOMAIN, page_id=1, page_offset=0, major=0, minor=0):
    return CounterIV(domain=domain, page_id=page_id, page_offset=page_offset, major=major, minor=minor)


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_identity(self):
        assert xor_bytes(b"abc", bytes(3)) == b"abc"

    def test_self_inverse(self):
        assert xor_bytes(b"abc", b"abc") == bytes(3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")

    @given(a=st.binary(min_size=8, max_size=8), b=st.binary(min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_involution_property(self, a, b):
        assert xor_bytes(xor_bytes(a, b), b) == a

    @given(data=st.data(), size=st.integers(0, 80))
    @settings(max_examples=50, deadline=None)
    def test_matches_bytewise_xor(self, data, size):
        a = data.draw(st.binary(min_size=size, max_size=size))
        b = data.draw(st.binary(min_size=size, max_size=size))
        out = xor_bytes(bytearray(a), memoryview(b))
        assert type(out) is bytes
        assert out == bytes(x ^ y for x, y in zip(a, b))


class TestGenerateOtp:
    def test_length(self):
        pad = generate_otp(AES128(SecretKey(bytes(16))), iv(), length=64)
        assert len(pad) == 64

    def test_non_multiple_length_rejected(self):
        with pytest.raises(ValueError):
            generate_otp(AES128(SecretKey(bytes(16))), iv(), length=60)

    def test_blocks_differ_within_pad(self):
        """The four AES blocks of one line's pad must not repeat."""
        pad = generate_otp(AES128(SecretKey(bytes(16))), iv(), length=64)
        blocks = [pad[i : i + 16] for i in range(0, 64, 16)]
        assert len(set(blocks)) == 4

    def test_distinct_ivs_distinct_pads(self):
        cipher = AES128(SecretKey(bytes(16)))
        assert generate_otp(cipher, iv(minor=0)) != generate_otp(cipher, iv(minor=1))
        assert generate_otp(cipher, iv(major=0)) != generate_otp(cipher, iv(major=1))
        assert generate_otp(cipher, iv(page_id=1)) != generate_otp(cipher, iv(page_id=2))
        assert generate_otp(cipher, iv(page_offset=0)) != generate_otp(cipher, iv(page_offset=1))

    def test_domain_separation(self):
        """Same location+version, different engine domain => distinct pad."""
        cipher = AES128(SecretKey(bytes(16)))
        assert generate_otp(cipher, iv(domain=MEMORY_DOMAIN)) != generate_otp(
            cipher, iv(domain=FILE_DOMAIN)
        )

    def test_default_layout_pad_sizes(self):
        """125-bit IVs leave 3 spare bits: up to 8 blocks per pad."""
        cipher = AES128(SecretKey(bytes(16)))
        assert len(generate_otp(cipher, iv(), length=64)) == 64
        pad = generate_otp(cipher, iv(), length=128)
        assert len(set(pad[i : i + 16] for i in range(0, 128, 16))) == 8
        with pytest.raises(ValueError):
            generate_otp(cipher, iv(), length=144)

    def test_tight_layout_refuses_reused_blocks(self):
        """A 127-bit IV leaves one spare bit: a 64-byte pad would fold
        block 2 of minor 0 onto block 0 of minor 1 (counter-mode pad
        reuse), so only 2-block pads are made."""
        tight = IVLayout(major_bits=66)
        assert tight.total_bits == 127
        cipher = AES128(SecretKey(bytes(16)))
        minor0 = CounterIV(domain=MEMORY_DOMAIN, page_id=1, page_offset=0, major=0, minor=0, layout=tight)
        minor1 = CounterIV(domain=MEMORY_DOMAIN, page_id=1, page_offset=0, major=0, minor=1, layout=tight)
        folded = cipher.encrypt_counter_blocks(minor0.pack(), 4)
        assert folded[32:48] == cipher.encrypt_counter_blocks(minor1.pack(), 1)
        assert generate_otp(cipher, minor0, length=32) != generate_otp(cipher, minor1, length=32)
        for length in (48, 64):
            with pytest.raises(ValueError):
                generate_otp(cipher, minor0, length=length)

    def test_full_layout_allows_one_block(self):
        full = IVLayout(major_bits=67)
        assert full.total_bits == 128
        cipher = AES128(SecretKey(bytes(16)))
        line = CounterIV(domain=MEMORY_DOMAIN, page_id=1, page_offset=0, major=0, minor=0, layout=full)
        assert len(generate_otp(cipher, line, length=16)) == 16
        with pytest.raises(ValueError):
            generate_otp(cipher, line, length=32)


class TestComposePads:
    def test_single(self):
        assert compose_pads([b"\x01\x02"]) == b"\x01\x02"

    def test_pair_xor(self):
        assert compose_pads([b"\x0f", b"\xf0"]) == b"\xff"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_pads([])

    def test_order_independent(self):
        a, b, c = b"\x12" * 8, b"\x34" * 8, b"\x56" * 8
        assert compose_pads([a, b, c]) == compose_pads([c, a, b])

    def test_dual_layer_requires_both(self):
        """Decrypting a dual-pad seal with only one pad yields garbage —
        the defence-in-depth property."""
        data = b"secret-data-here"
        pad_mem, pad_file = b"\xaa" * 16, b"\x55" * 16
        sealed = apply_pad(data, compose_pads([pad_mem, pad_file]))
        assert apply_pad(sealed, pad_mem) != data
        assert apply_pad(sealed, pad_file) != data
        assert apply_pad(sealed, compose_pads([pad_mem, pad_file])) == data


class TestOTPEngine:
    def test_roundtrip(self):
        engine = OTPEngine(SecretKey(bytes(range(16))))
        sealed = engine.encrypt(b"x" * 64, iv())
        assert engine.decrypt(sealed, iv()) == b"x" * 64

    def test_ciphertext_differs_from_plaintext(self):
        engine = OTPEngine(SecretKey(bytes(range(16))))
        assert engine.encrypt(b"x" * 64, iv()) != b"x" * 64

    def test_key_matters(self):
        a = OTPEngine(SecretKey(bytes(16))).pad_for(iv())
        b = OTPEngine(SecretKey(bytes([1] * 16))).pad_for(iv())
        assert a != b

    def test_rekey_changes_pads(self):
        engine = OTPEngine(SecretKey(bytes(16)))
        before = engine.pad_for(iv())
        engine.rekey(SecretKey(bytes([9] * 16)))
        assert engine.pad_for(iv()) != before

    def test_rekey_to_current_key_keeps_schedule(self):
        engine = OTPEngine(SecretKey(bytes(16)))
        cipher = engine._cipher
        engine.rekey(SecretKey(bytes(16)))
        assert engine._cipher is cipher

    def test_rekey_back_restores_pads(self):
        engine = OTPEngine(SecretKey(bytes(16)))
        before = engine.pad_for(iv())
        engine.rekey(SecretKey(bytes([9] * 16)))
        engine.rekey(SecretKey(bytes(16)))
        assert engine.pad_for(iv()) == before

    def test_line_size_respected(self):
        engine = OTPEngine(SecretKey(bytes(16)), line_size=32)
        assert len(engine.pad_for(iv())) == 32
        assert engine.line_size == 32


KEY_A, KEY_B = SecretKey(bytes(range(16))), SecretKey(bytes([7] * 16))


def fresh_pad(key, counter_iv):
    """The pad a brand-new engine computes: no remembered state."""
    return generate_otp(AES128(key), counter_iv)


class TestLastPadMemo:
    """``pad_for`` remembers each line's last pad; it must never serve
    that pad for another IV or another key."""

    def test_repeated_iv(self):
        engine = OTPEngine(KEY_A)
        first = engine.pad_for(iv(minor=3))
        assert engine.pad_for(iv(minor=3)) == first == fresh_pad(KEY_A, iv(minor=3))

    def test_bumped_minor(self):
        engine = OTPEngine(KEY_A)
        engine.pad_for(iv(minor=3))
        assert engine.pad_for(iv(minor=4)) == fresh_pad(KEY_A, iv(minor=4))
        assert engine.pad_for(iv(minor=3)) == fresh_pad(KEY_A, iv(minor=3))

    def test_bumped_major_and_other_lines(self):
        engine = OTPEngine(KEY_A)
        for counter_iv in (iv(), iv(major=1), iv(page_offset=1), iv(page_id=2), iv(domain=FILE_DOMAIN)):
            assert engine.pad_for(counter_iv) == fresh_pad(KEY_A, counter_iv)

    def test_rekey_a_b_a_same_iv(self):
        engine = OTPEngine(KEY_A)
        assert engine.pad_for(iv()) == fresh_pad(KEY_A, iv())
        engine.rekey(KEY_B)
        assert engine.pad_for(iv()) == fresh_pad(KEY_B, iv())
        engine.rekey(KEY_A)
        assert engine.pad_for(iv()) == fresh_pad(KEY_A, iv())

    def test_two_engines_on_one_key(self):
        first, second = OTPEngine(KEY_A), OTPEngine(KEY_A)
        first.pad_for(iv(minor=1))
        second.pad_for(iv(minor=2))
        assert first.pad_for(iv(minor=2)) == fresh_pad(KEY_A, iv(minor=2))
        assert second.pad_for(iv(minor=1)) == fresh_pad(KEY_A, iv(minor=1))
        assert first.decrypt(second.encrypt(b"z" * 64, iv()), iv()) == b"z" * 64

    @given(steps=st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=30
    ))
    @settings(max_examples=40, deadline=None)
    def test_any_sequence_matches_fresh_engines(self, steps):
        engine = OTPEngine(KEY_A)
        for use_b, minor, offset in steps:
            key = KEY_B if use_b else KEY_A
            engine.rekey(key)
            counter_iv = iv(page_offset=offset, minor=minor)
            assert engine.pad_for(counter_iv) == fresh_pad(key, counter_iv)
