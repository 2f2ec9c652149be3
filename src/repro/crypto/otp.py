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

from typing import TYPE_CHECKING, Dict, Iterable, Tuple

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
    a distinct block index folded into the last byte, one
    :meth:`~repro.crypto.aes.AES128.encrypt_counter_blocks` run.  The fold
    is only collision-free while the index fits in the IV layout's spare
    low bits (3 under the default 125-bit layout, so up to 8 blocks); a
    longer pad would reuse another IV's blocks, so it is refused.
    """
    if length % 16 != 0:
        raise ValueError(f"pad length must be a multiple of 16, got {length}")
    blocks = length // 16
    if blocks > 2 ** (128 - iv.layout.total_bits):
        raise ValueError(
            f"a {length}-byte pad needs {blocks} blocks, but a "
            f"{iv.layout.total_bits}-bit IV leaves room for "
            f"{2 ** (128 - iv.layout.total_bits)}"
        )
    return cipher.encrypt_counter_blocks(iv.pack(), blocks)


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

    ``pad_for`` remembers each line's last pad, keyed on the IV's
    (domain, page, line offset), and serves it again only to a request
    with an equal IV under the very cipher object that made it; a
    ``rekey`` to another key installs a new cipher, so a stored pad never
    serves another key.  Reads re-pad a line at an unchanged counter, and
    Osiris recovery re-tries the same candidates, so this saves host AES
    work.  It is a host-side cache of a pure function, not a model of a
    hardware pad buffer: simulated time never reads it, and recovery
    trials and ``recovery_ns`` come from ``recover_line``'s candidate
    count.  It holds one entry per line the engine has padded, and lives
    and dies with the engine's machine.
    """

    def __init__(self, key: "SecretKey", line_size: int = 64) -> None:
        self._cipher = AES128(key)
        self._line_size = line_size
        # (domain, page_id, page_offset) -> (cipher, iv, pad)
        self._last_pads: Dict[Tuple[int, int, int], Tuple[AES128, CounterIV, bytes]] = {}

    @property
    def line_size(self) -> int:
        return self._line_size

    def pad_for(self, iv: CounterIV) -> bytes:
        line = (iv.domain, iv.page_id, iv.page_offset)
        cipher = self._cipher
        last = self._last_pads.get(line)
        if last is not None and last[0] is cipher and last[1] == iv:
            return last[2]
        pad = generate_otp(cipher, iv, self._line_size)
        self._last_pads[line] = (cipher, iv, pad)
        return pad

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
