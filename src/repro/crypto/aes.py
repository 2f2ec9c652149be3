"""AES-128 block cipher implemented from scratch.

FsEncr's encryption engines (the memory encryption engine and the file
encryption engine) are both AES engines operating in counter mode.  This
module provides a functional, dependency-free AES-128 implementation used
whenever the simulator runs in *functional* mode — i.e. when cache lines
are really encrypted so that tests can verify end-to-end confidentiality
properties (wrong key => garbage plaintext, counter reuse detection, etc.).

Encryption is the standard 32-bit T-table round (Daemen & Rijmen's
Rijndael proposal): four 256-entry tables, built once from the S-box at
import, fuse SubBytes and MixColumns into four lookups per column word;
ShiftRows is which state word each lookup reads; round keys are held as
four big-endian words per round, and the last round uses the S-box
alone.  Counter mode only ever encrypts, and a line's pad is a run of
blocks whose inputs differ only in their last byte, so the one round
loop is :meth:`AES128.encrypt_counter_blocks`: it encrypts ``base`` with
``i`` XORed into its last byte for each ``i`` of a run, computing once
the three round-1 columns that never read that byte.
:meth:`AES128.encrypt_block` is its one-block case.  Decryption stays
byte-wise (InvSubBytes / InvShiftRows / InvMixColumns over a flat
state), because ``crypto/keys.py`` unwraps file keys with it; it shares
only the S-box and the key schedule with encryption, so the tests use it
as an independent inverse.  The timing model never calls into this
module (timing uses the paper's 40 ns AES latency constant), but
functional mode does, and the crash sweep runs in functional mode:
there this cipher is a leading host cost, so its raw speed bounds
crashsweep throughput.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - keys.py imports this module
    from .keys import SecretKey

__all__ = ["AES128", "aes128_encrypt_block", "aes128_decrypt_block"]

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """General GF(2^8) multiply used by InvMixColumns."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_te_tables() -> Tuple[List[int], ...]:
    """The four encryption T-tables: SubBytes and MixColumns fused.

    ``Te0[x]`` is the big-endian column ``(2s, s, s, 3s)`` for
    ``s = SBOX[x]``; ``Te1``..``Te3`` are its byte rotations, one per
    ShiftRows offset.
    """
    te0, te1, te2, te3 = [], [], [], []
    for s in _SBOX:
        s2 = _xtime(s)
        word = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s)
        te0.append(word)
        te1.append(((word >> 8) | (word << 24)) & 0xFFFFFFFF)
        te2.append(((word >> 16) | (word << 16)) & 0xFFFFFFFF)
        te3.append(((word >> 24) | (word << 8)) & 0xFFFFFFFF)
    return te0, te1, te2, te3


_TE0, _TE1, _TE2, _TE3 = _build_te_tables()


def _expand_key(key: bytes) -> List[int]:
    """Expand a 16-byte key into 44 big-endian words (11 round keys)."""
    sbox = _SBOX
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = (
                (sbox[(temp >> 16) & 0xFF] << 24)
                | (sbox[(temp >> 8) & 0xFF] << 16)
                | (sbox[temp & 0xFF] << 8)
                | sbox[temp >> 24]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    return words


def _add_round_key(state: List[int], round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _inv_sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = _INV_SBOX[state[i]]


# The state is kept in flat row-major byte order of the input block; AES's
# column-major indexing is folded into this row shuffle (the inverse of
# ShiftRows' [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]).
_INV_SHIFT_ROWS = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


def _inv_shift_rows(state: List[int]) -> List[int]:
    return [state[i] for i in _INV_SHIFT_ROWS]


def _inv_mix_columns(state: List[int]) -> None:
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i : i + 4]
        state[i + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
        state[i + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
        state[i + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
        state[i + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)


class AES128:
    """A keyed AES-128 cipher with a cached key schedule.

    >>> from repro.crypto.keys import SecretKey
    >>> cipher = AES128(SecretKey(bytes(16)))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"0123456789abcdef"))
    b'0123456789abcdef'
    """

    BLOCK_SIZE = 16

    def __init__(self, key: "SecretKey") -> None:
        self._key = key
        words = _expand_key(key.reveal())
        # 11 round keys, each four big-endian column words.
        self._round_keys = tuple(tuple(words[k : k + 4]) for k in range(0, 44, 4))

    @property
    def key(self) -> "SecretKey":
        return self._key

    def encrypt_block(self, block: bytes) -> bytes:
        return self.encrypt_counter_blocks(block, 1)

    def encrypt_counter_blocks(self, base: bytes, count: int) -> bytes:
        """``AES(base with i XORed into its last byte)`` for each ``i`` in
        ``range(count)``, concatenated (``count`` at most 256).

        Round 1's columns 1-3 never read the input's last byte, so they
        and column 0's other three lookups are computed once per run.
        """
        if len(base) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(base)}")
        if not 0 <= count <= 256:
            raise ValueError(f"a counter run folds into one byte: 0-256 blocks, got {count}")
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        rk = self._round_keys
        k0, k1, k2, k3 = rk[0]
        s0 = int.from_bytes(base[0:4], "big") ^ k0
        s1 = int.from_bytes(base[4:8], "big") ^ k1
        s2 = int.from_bytes(base[8:12], "big") ^ k2
        s3 = int.from_bytes(base[12:16], "big") ^ k3
        k0, k1, k2, k3 = rk[1]
        head0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ k0
        low = s3 & 255
        col1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k1
        col2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k2
        col3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k3
        middle = rk[2:10]
        sbox = _SBOX
        last: List[int] = []
        for i in range(count):
            s0, s1, s2, s3 = head0 ^ te3[low ^ i], col1, col2, col3
            for k0, k1, k2, k3 in middle:
                s0, s1, s2, s3 = (
                    te0[s0 >> 24] ^ te1[(s1 >> 16) & 255] ^ te2[(s2 >> 8) & 255] ^ te3[s3 & 255] ^ k0,
                    te0[s1 >> 24] ^ te1[(s2 >> 16) & 255] ^ te2[(s3 >> 8) & 255] ^ te3[s0 & 255] ^ k1,
                    te0[s2 >> 24] ^ te1[(s3 >> 16) & 255] ^ te2[(s0 >> 8) & 255] ^ te3[s1 & 255] ^ k2,
                    te0[s3 >> 24] ^ te1[(s0 >> 16) & 255] ^ te2[(s1 >> 8) & 255] ^ te3[s2 & 255] ^ k3,
                )
            # Last round: SubBytes and ShiftRows, no MixColumns.
            last += (
                sbox[s0 >> 24], sbox[(s1 >> 16) & 255], sbox[(s2 >> 8) & 255], sbox[s3 & 255],
                sbox[s1 >> 24], sbox[(s2 >> 16) & 255], sbox[(s3 >> 8) & 255], sbox[s0 & 255],
                sbox[s2 >> 24], sbox[(s3 >> 16) & 255], sbox[(s0 >> 8) & 255], sbox[s1 & 255],
                sbox[s3 >> 24], sbox[(s0 >> 16) & 255], sbox[(s1 >> 8) & 255], sbox[s2 & 255],
            )
        # The last AddRoundKey, for every block of the run at once.
        k0, k1, k2, k3 = rk[10]
        last_key = (k0 << 96 | k1 << 64 | k2 << 32 | k3).to_bytes(16, "big") * count
        return (
            int.from_bytes(bytes(last), "big") ^ int.from_bytes(last_key, "big")
        ).to_bytes(16 * count, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        state = list(block)
        rk = [b"".join(w.to_bytes(4, "big") for w in words) for words in self._round_keys]
        _add_round_key(state, rk[10])
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        for rnd in range(9, 0, -1):
            _add_round_key(state, rk[rnd])
            _inv_mix_columns(state)
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
        _add_round_key(state, rk[0])
        return bytes(state)


def aes128_encrypt_block(key: "SecretKey", block: bytes) -> bytes:
    """One-shot block encryption (expands the key schedule every call)."""
    return AES128(key).encrypt_block(block)


def aes128_decrypt_block(key: "SecretKey", block: bytes) -> bytes:
    """One-shot block decryption (expands the key schedule every call)."""
    return AES128(key).decrypt_block(block)
