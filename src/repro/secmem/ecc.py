"""SEC-DED Hamming ECC over 64-bit words, as Osiris repurposes it.

Osiris (§II-D, [36]) stores each data line's ECC *computed over the
plaintext* but written alongside the ciphertext.  Because the ciphertext
only decrypts to the correct plaintext under the correct counter value,
the ECC doubles as a counter-correctness oracle: after a crash, candidate
counter values are tried in order and the one whose decryption satisfies
the ECC is the counter that encrypted the line.

This module implements the classic Hamming(72,64) SEC-DED code per
64-bit word (8 words per cache line => 64 ECC bits per line).  The model
only compares codes: ``check_word`` reports a mismatch, and nothing
corrects a word.  Each word's check is 8 bits, so a wrong counter's
pseudo-random decryption passes one word about 1 time in 2^8.  When all
eight words of a line are decrypted under the wrong counter, the line
passes with about 2^-64 probability, which is the property Osiris
recovery leans on.  A torn line is weaker: its new words pass under the
new counter, so only its old words are tested, at about 2^-8 each — a
torn first write with one old word is accepted about 1 time in 256
(docs/FAULTS.md, "Open defect: a torn first write can alias its ECC").

The code is linear over GF(2), so ``encode_word`` XORs eight 256-entry
byte tables built at import from the bit-level definition
(``_hamming_ecc``).
"""

from __future__ import annotations

from typing import List

__all__ = ["encode_word", "check_word", "encode_line", "check_line", "EccMismatch"]

_DATA_BITS = 64
# Parity positions are the powers of two inside a 72-bit codeword laid out
# 1-indexed (positions 1..71), plus an overall parity bit for DED.
_PARITY_POSITIONS = [1, 2, 4, 8, 16, 32, 64]


class EccMismatch(Exception):
    """Raised when a line fails its ECC check (uncorrectable)."""


def _data_positions() -> List[int]:
    """Codeword positions (1-indexed) that carry data bits."""
    positions = []
    pos = 1
    while len(positions) < _DATA_BITS:
        if pos not in _PARITY_POSITIONS:
            positions.append(pos)
        pos += 1
    return positions


_DATA_POSITIONS = _data_positions()
_CODEWORD_BITS = _DATA_POSITIONS[-1]  # highest used position


def _hamming_ecc(word: int) -> int:
    """The 8-bit ECC by definition: 7 Hamming parity bits + overall parity."""
    # Scatter data bits into codeword positions.
    codeword = 0
    for bit_index, pos in enumerate(_DATA_POSITIONS):
        if (word >> bit_index) & 1:
            codeword |= 1 << pos
    # Each parity bit covers positions whose index has that bit set.
    parity = 0
    for p_index, p_pos in enumerate(_PARITY_POSITIONS):
        covered = 0
        for pos in range(1, _CODEWORD_BITS + 1):
            if pos & p_pos and (codeword >> pos) & 1:
                covered ^= 1
        parity |= covered << p_index
        if covered:
            codeword |= 1 << p_pos
    # Overall parity over the full codeword for double-error detection.
    overall = bin(codeword).count("1") & 1
    return parity | (overall << 7)


def _byte_tables() -> List[List[int]]:
    """One 256-entry table per little-endian byte of a word.

    The code is linear over GF(2) with ``ecc(0) == 0``, so a word's ECC is
    the XOR of its bytes' entries, and each entry is the XOR of its set
    bits' unit-vector codes: the definition runs only 64 times.
    """
    tables = []
    for byte_index in range(8):
        units = [_hamming_ecc(1 << (8 * byte_index + bit)) for bit in range(8)]
        table = [0] * 256
        for value in range(1, 256):
            low = (value & -value).bit_length() - 1
            table[value] = table[value & (value - 1)] ^ units[low]
        tables.append(table)
    return tables


_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _byte_tables()


def encode_word(word: int) -> int:
    """Compute the 8-bit ECC (7 Hamming parity bits + overall parity)."""
    if word < 0 or word >= (1 << _DATA_BITS):
        raise ValueError(f"word out of 64-bit range: {word:#x}")
    return (
        _T0[word & 0xFF]
        ^ _T1[(word >> 8) & 0xFF]
        ^ _T2[(word >> 16) & 0xFF]
        ^ _T3[(word >> 24) & 0xFF]
        ^ _T4[(word >> 32) & 0xFF]
        ^ _T5[(word >> 40) & 0xFF]
        ^ _T6[(word >> 48) & 0xFF]
        ^ _T7[word >> 56]
    )


def check_word(word: int, ecc: int) -> bool:
    """True when ``word`` is consistent with ``ecc`` (no error syndrome)."""
    return encode_word(word) == (ecc & 0xFF)


def encode_line(line: bytes) -> bytes:
    """ECC for a 64-byte line: one byte per 64-bit word."""
    if len(line) != 64:
        raise ValueError(f"line must be 64 bytes, got {len(line)}")
    return bytes(
        encode_word(int.from_bytes(line[i : i + 8], "little")) for i in range(0, 64, 8)
    )


def check_line(line: bytes, ecc: bytes) -> bool:
    """Check all 8 words of a line against its 8 ECC bytes."""
    if len(line) != 64 or len(ecc) != 8:
        raise ValueError("line must be 64 bytes and ecc 8 bytes")
    return all(
        check_word(int.from_bytes(line[i : i + 8], "little"), ecc[i // 8])
        for i in range(0, 64, 8)
    )
