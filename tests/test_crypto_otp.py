"""OTP generation and the XOR-composition algebra FsEncr builds on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AES128,
    FILE_DOMAIN,
    MEMORY_DOMAIN,
    CounterIV,
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
