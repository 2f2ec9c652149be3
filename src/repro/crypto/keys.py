"""Key hierarchy: file keys, wrapping keys, and passphrase derivation.

FsEncr keeps the software half of key management identical to eCryptfs /
fscrypt (§III-E): every encrypted file gets a randomly generated 128-bit
File Encryption Key (FEK); the FEK is wrapped (encrypted) under a File
Encryption Key Encryption Key (FEKEK) derived from the owner's passphrase;
the wrapped FEK lives with the file metadata while the plaintext FEK is
pushed to the memory controller's Open Tunnel Table over MMIO.

What changes versus eCryptfs is *where the FEK is used*: never in
software on the access path — only inside the controller's file
encryption engine.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .aes import AES128
from .otp import xor_bytes

__all__ = [
    "KEY_SIZE",
    "derive_fekek",
    "generate_fek",
    "wrap_key",
    "unwrap_key",
    "KeyWrapError",
    "WrappedKey",
    "KeyHierarchy",
]

KEY_SIZE = 16  # AES-128
_PBKDF2_ITERATIONS = 1000  # modest: this is a model, not a password vault
_WRAP_TWEAK = bytes.fromhex("a5" * KEY_SIZE)


class KeyWrapError(Exception):
    """Raised when unwrapping fails its integrity check (wrong passphrase)."""


def derive_fekek(passphrase: str, salt: bytes) -> bytes:
    """Derive the wrapping key from a user passphrase (PBKDF2-HMAC-SHA256).

    eCryptfs derives its FEKEK the same way; the salt is stored in the
    filesystem superblock so the derivation is repeatable across boots.
    """
    if not passphrase:
        raise ValueError("passphrase must be non-empty")
    return hashlib.pbkdf2_hmac(
        "sha256", passphrase.encode("utf-8"), salt, _PBKDF2_ITERATIONS, dklen=KEY_SIZE
    )


def generate_fek(entropy: bytes) -> bytes:
    """Deterministically expand caller-supplied entropy into a fresh FEK.

    The simulator supplies entropy from its seeded RNG so whole runs are
    reproducible; a real kernel would read ``get_random_bytes``.
    """
    return hashlib.sha256(b"fsencr-fek" + entropy).digest()[:KEY_SIZE]


@dataclass(frozen=True)
class WrappedKey:
    """A FEK encrypted under a FEKEK, plus an integrity tag.

    The tag lets the open() path detect a wrong passphrase instead of
    silently handing the controller a garbage key (which would decrypt the
    file to noise — the classic eCryptfs failure mode the paper describes).
    """

    ciphertext: bytes
    tag: bytes


def wrap_key(fek: bytes, fekek: bytes) -> WrappedKey:
    """Encrypt ``fek`` under ``fekek`` with an authenticated tag."""
    if len(fek) != KEY_SIZE:
        raise ValueError(f"FEK must be {KEY_SIZE} bytes, got {len(fek)}")
    cipher = AES128(fekek)
    ciphertext = cipher.encrypt_block(fek)
    tag = hmac.new(fekek, b"fsencr-wrap" + ciphertext, hashlib.sha256).digest()[:16]
    return WrappedKey(ciphertext=ciphertext, tag=tag)


def unwrap_key(wrapped: WrappedKey, fekek: bytes) -> bytes:
    """Recover the FEK; raises :class:`KeyWrapError` on a bad passphrase."""
    expected = hmac.new(
        fekek, b"fsencr-wrap" + wrapped.ciphertext, hashlib.sha256
    ).digest()[:16]
    if not hmac.compare_digest(expected, wrapped.tag):
        raise KeyWrapError("key unwrap failed integrity check (wrong passphrase?)")
    return AES128(fekek).decrypt_block(wrapped.ciphertext)


class KeyHierarchy:
    """The full per-system key tree used by an FsEncr machine.

    * ``memory_key`` — the processor's memory encryption key (never leaves
      the chip; encrypts every line via MECB counters).
    * ``ott_key`` — encrypts OTT entries spilled to the dedicated memory
      region (never leaves the chip either).
    * per-file FEKs — generated on file creation, wrapped under the
      owner's FEKEK for at-rest storage, plaintext copy pushed to the OTT.

    The hierarchy object itself lives on the "processor" side of the
    simulation; the filesystem only ever sees wrapped keys.
    """

    def __init__(self, memory_key: bytes, ott_key: bytes) -> None:
        # Validate via lengths only: the key bytes themselves must stay
        # out of the raise path (key-hygiene).
        sizes = {"memory_key": len(memory_key), "ott_key": len(ott_key)}
        for name, size in sizes.items():
            if size != KEY_SIZE:
                raise ValueError(f"{name} must be {KEY_SIZE} bytes")
        self._memory_key = bytes(memory_key)
        self._ott_key = bytes(ott_key)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyHierarchy":
        """Derive both chip keys deterministically from a seed (for tests)."""
        memory_key = hashlib.sha256(b"fsencr-memkey" + seed).digest()[:KEY_SIZE]
        ott_key = hashlib.sha256(b"fsencr-ottkey" + seed).digest()[:KEY_SIZE]
        return cls(memory_key, ott_key)

    @property
    def memory_key(self) -> bytes:
        return self._memory_key

    @property
    def ott_key(self) -> bytes:
        return self._ott_key

    def derive_file_key(self, file_id: int, group_id: int, entropy: bytes) -> bytes:
        """Generate a fresh FEK bound to nothing but fresh entropy.

        File ID and group ID are mixed in only to diversify the
        deterministic test path; uniqueness comes from the entropy.
        """
        material = entropy + file_id.to_bytes(8, "big") + group_id.to_bytes(8, "big")
        return generate_fek(material)

    def rotated_file_key(self, old_key: bytes) -> bytes:
        """Derive a replacement FEK for the counter-overflow re-key path."""
        return hashlib.sha256(b"fsencr-rekey" + old_key).digest()[:KEY_SIZE]
