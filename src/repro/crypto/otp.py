"""One-time-pad generation and the XOR algebra FsEncr relies on.

Counter-mode encryption never feeds data through AES.  Instead AES
encrypts an IV to produce a pad, and ciphertext = plaintext XOR pad.  The
decryption latency therefore hides behind the memory access: the pad is
computed while the line is in flight, and only the XOR remains on the
critical path.

FsEncr's central trick is pad *composition*: for a DAX-file line the final
pad is ``OTP_mem XOR OTP_file``, where the two pads come from two engines
keyed independently (memory key vs per-file key) and counted independently
(MECB vs FECB).  XOR composition keeps both layers on the parallel path —
neither engine ever sees the other's key — and yields defence-in-depth:
recovering the plaintext requires breaking *both* pads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .aes import AES128
from .iv import CounterIV

if TYPE_CHECKING:  # pragma: no cover - keys.py imports this module
    from .keys import SecretKey

__all__ = ["generate_otp", "xor_bytes", "compose_pads", "apply_pad", "OTPEngine"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def generate_otp(cipher: AES128, iv: CounterIV, length: int = 64) -> bytes:
    """Generate a pad of ``length`` bytes by encrypting IV-derived blocks.

    A 64-byte cache line needs four AES blocks; each is the packed IV with
    a distinct block index folded into the last byte (the IV layout leaves
    at least 3 spare low bits, so the fold never collides with IV fields).
    """
    if length % 16 != 0:
        raise ValueError(f"pad length must be a multiple of 16, got {length}")
    base = iv.pack()
    blocks = []
    for i in range(length // 16):
        block_input = base[:-1] + bytes([base[-1] ^ i])
        blocks.append(cipher.encrypt_block(block_input))
    return b"".join(blocks)


def compose_pads(pads: Iterable[bytes]) -> bytes:
    """XOR-fold any number of pads into the final OTP."""
    result: bytes | None = None
    for pad in pads:
        result = pad if result is None else xor_bytes(result, pad)
    if result is None:
        raise ValueError("compose_pads needs at least one pad")
    return result


def apply_pad(data: bytes, pad: bytes) -> bytes:
    """Encrypt or decrypt (they are the same operation) with a pad."""
    return xor_bytes(data, pad)


class OTPEngine:
    """A keyed counter-mode pad generator (one AES engine in Figure 2/7).

    The engine caches its AES key schedule; callers supply the IV per
    request.  ``pad_for`` is the functional path; the timing path models
    the same engine with the configured AES latency and never calls here.
    """

    def __init__(self, key: "SecretKey", line_size: int = 64) -> None:
        self._cipher = AES128(key)
        self._line_size = line_size

    @property
    def line_size(self) -> int:
        return self._line_size

    def pad_for(self, iv: CounterIV) -> bytes:
        return generate_otp(self._cipher, iv, self._line_size)

    def encrypt(self, plaintext: bytes, iv: CounterIV) -> bytes:
        return apply_pad(plaintext, self.pad_for(iv))

    def decrypt(self, ciphertext: bytes, iv: CounterIV) -> bytes:
        return apply_pad(ciphertext, self.pad_for(iv))

    def rekey(self, key: "SecretKey") -> None:
        """Install a new key.

        Re-installing the current key keeps the cached key schedule.  The
        functional path re-keys before every file pad, almost always with
        the very key object already installed, so identity is checked
        before value.
        """
        current = self._cipher.key
        if key is not current and key != current:
            self._cipher = AES128(key)
