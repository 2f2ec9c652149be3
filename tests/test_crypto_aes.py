"""AES-128 primitive: FIPS-197 conformance, inversion, error handling.

Counter mode decrypts correctly under *any* keyed permutation, so a
wrong encryption table would leave every sweep and golden digest
unchanged.  The known-answer vectors, the byte-wise inverse and the
pinned keystream digest below are the cipher's own guard.
"""

import hashlib
import random

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
    aes128_decrypt_block,
    aes128_encrypt_block,
)

# FIPS-197 Appendix C.1 vector.
FIPS_KEY = SecretKey(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# FIPS-197 Appendix B vector (the worked example).
APPB_KEY = SecretKey(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
APPB_PLAIN = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
APPB_CIPHER = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

# NIST SP 800-38A Appendix F.1.1, ECB-AES128 (key as in Appendix B).
SP800_38A_ECB = [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]

# sha256 over OTPEngine.pad_for for the seeded engines and IVs of
# _keystream_digest, recorded with the byte-wise FIPS-197 cipher.
KEYSTREAM_SHA256 = "66efae3acef13b28aace4fbb7cc1dc3ae1f938e54edd266166cf273f3815b044"


class TestFipsVectors:
    def test_appendix_c1_encrypt(self):
        assert AES128(FIPS_KEY).encrypt_block(FIPS_PLAIN) == FIPS_CIPHER

    def test_appendix_c1_decrypt(self):
        assert AES128(FIPS_KEY).decrypt_block(FIPS_CIPHER) == FIPS_PLAIN

    def test_appendix_b_encrypt(self):
        assert AES128(APPB_KEY).encrypt_block(APPB_PLAIN) == APPB_CIPHER

    def test_appendix_b_decrypt(self):
        assert AES128(APPB_KEY).decrypt_block(APPB_CIPHER) == APPB_PLAIN

    @pytest.mark.parametrize("plain, cipher", SP800_38A_ECB)
    def test_sp800_38a_ecb_encrypt(self, plain, cipher):
        assert AES128(APPB_KEY).encrypt_block(bytes.fromhex(plain)) == bytes.fromhex(cipher)

    @pytest.mark.parametrize("plain, cipher", SP800_38A_ECB)
    def test_sp800_38a_ecb_decrypt(self, plain, cipher):
        assert AES128(APPB_KEY).decrypt_block(bytes.fromhex(cipher)) == bytes.fromhex(plain)

    def test_one_shot_helpers(self):
        assert aes128_encrypt_block(FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER
        assert aes128_decrypt_block(FIPS_KEY, FIPS_CIPHER) == FIPS_PLAIN


class TestValidation:
    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            AES128(SecretKey(b"short"))

    def test_long_key_rejected(self):
        with pytest.raises(ValueError):
            AES128(SecretKey(bytes(32)))

    def test_raw_bytes_key_rejected(self):
        # Keys travel as SecretKey; the cipher never takes bare bytes.
        with pytest.raises(AttributeError):
            AES128(bytes(16))

    @pytest.mark.parametrize("size", [0, 1, 15, 17, 64])
    def test_bad_block_size_encrypt(self, size):
        with pytest.raises(ValueError):
            AES128(SecretKey(bytes(16))).encrypt_block(bytes(size))

    @pytest.mark.parametrize("size", [0, 15, 17])
    def test_bad_block_size_decrypt(self, size):
        with pytest.raises(ValueError):
            AES128(SecretKey(bytes(16))).decrypt_block(bytes(size))

    def test_key_property(self):
        assert AES128(FIPS_KEY).key == FIPS_KEY


class TestCipherProperties:
    def test_deterministic(self):
        c = AES128(FIPS_KEY)
        assert c.encrypt_block(FIPS_PLAIN) == c.encrypt_block(FIPS_PLAIN)

    def test_key_sensitivity(self):
        raw = FIPS_KEY.reveal()
        tweaked = SecretKey(bytes([raw[0] ^ 1]) + raw[1:])
        assert AES128(FIPS_KEY).encrypt_block(FIPS_PLAIN) != AES128(tweaked).encrypt_block(FIPS_PLAIN)

    def test_plaintext_sensitivity(self):
        c = AES128(FIPS_KEY)
        tweaked = bytes([FIPS_PLAIN[0] ^ 1]) + FIPS_PLAIN[1:]
        out_a, out_b = c.encrypt_block(FIPS_PLAIN), c.encrypt_block(tweaked)
        assert out_a != out_b
        # Avalanche: a 1-bit input change flips many output bits.
        differing = sum(bin(x ^ y).count("1") for x, y in zip(out_a, out_b))
        assert differing > 30

    def test_not_identity(self):
        assert AES128(SecretKey(bytes(16))).encrypt_block(bytes(16)) != bytes(16)

    @given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, key, block):
        # Decryption is byte-wise FIPS-197, independent of the T-table
        # encryption rounds: it is the oracle for them.
        cipher = AES128(SecretKey(key))
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_encrypt_decrypt_are_inverse_both_ways(self, block):
        cipher = AES128(FIPS_KEY)
        assert cipher.encrypt_block(cipher.decrypt_block(block)) == block


def _per_block(cipher: AES128, base: bytes, count: int) -> bytes:
    """The counter run one block at a time: ``i`` folded into the last byte."""
    return b"".join(
        cipher.encrypt_block(base[:-1] + bytes([base[-1] ^ i])) for i in range(count)
    )


class TestCounterBlocks:
    @pytest.mark.parametrize("key", [FIPS_KEY, APPB_KEY], ids=["fips-c1", "sp800-38a"])
    @pytest.mark.parametrize(
        "base",
        [FIPS_PLAIN, APPB_PLAIN] + [bytes.fromhex(p) for p, _ in SP800_38A_ECB],
        ids=bytes.hex,
    )
    @pytest.mark.parametrize("count", [1, 2, 4, 8])
    def test_matches_per_block_encryption(self, key, base, count):
        cipher = AES128(key)
        run = cipher.encrypt_counter_blocks(base, count)
        assert run == _per_block(cipher, base, count)
        # The byte-wise inverse recovers each folded input.
        for i in range(count):
            block = run[16 * i : 16 * i + 16]
            assert cipher.decrypt_block(block) == base[:-1] + bytes([base[-1] ^ i])

    def test_one_block_run_is_the_known_answer(self):
        assert AES128(FIPS_KEY).encrypt_counter_blocks(FIPS_PLAIN, 1) == FIPS_CIPHER

    @given(
        key=st.binary(min_size=16, max_size=16),
        base=st.binary(min_size=16, max_size=16),
        count=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_block_property(self, key, base, count):
        cipher = AES128(SecretKey(key))
        assert cipher.encrypt_counter_blocks(base, count) == _per_block(cipher, base, count)

    def test_run_bounds(self):
        cipher = AES128(FIPS_KEY)
        assert cipher.encrypt_counter_blocks(FIPS_PLAIN, 0) == b""
        assert len(cipher.encrypt_counter_blocks(FIPS_PLAIN, 256)) == 16 * 256
        for count in (-1, 257):
            with pytest.raises(ValueError):
                cipher.encrypt_counter_blocks(FIPS_PLAIN, count)
        with pytest.raises(ValueError):
            cipher.encrypt_counter_blocks(bytes(15), 4)


def _keystream_digest() -> str:
    rng = random.Random(20220402)
    digest = hashlib.sha256()
    for _ in range(4):
        engine = OTPEngine(SecretKey(rng.randbytes(16)))
        for domain in (MEMORY_DOMAIN, FILE_DOMAIN):
            for _ in range(16):
                iv = CounterIV(
                    domain=domain,
                    page_id=rng.getrandbits(40),
                    page_offset=rng.getrandbits(6),
                    major=rng.getrandbits(64),
                    minor=rng.getrandbits(7),
                )
                digest.update(engine.pad_for(iv))
    return digest.hexdigest()


def test_keystream_digest_pinned():
    """Memory- and file-domain pads, byte for byte, against the pinned digest."""
    assert _keystream_digest() == KEYSTREAM_SHA256
