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

Every key this module hands out is a :class:`SecretKey`, an opaque
value in the spirit of a kernel keyring payload: it redacts itself in
``repr``/``str``/``format`` (so logs, f-strings and exception messages
show no key bytes) and refuses every implicit conversion to bytes
(``bytes(k)``, ``b"" + k``, ``hashlib.sha256(k)``, a stats counter, a
canonical-JSON cache key all raise ``TypeError``).  The raw bytes come
out only through :meth:`SecretKey.reveal`, which ``tests/test_contracts.py``
allows only in this package (the AES key schedule and key wrapping),
the OTT spill region's sealing (``core/ott.py``) and the
machine-transport package (``core/transport.py``).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .aes import AES128

__all__ = [
    "KEY_SIZE",
    "SecretKey",
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


class KeyWrapError(Exception):
    """Raised when unwrapping fails its integrity check (wrong passphrase)."""


class SecretKey:
    """128 bits of key material that never renders and never converts.

    Immutable and hashable (keys compare by value, so they can sit in
    sets and dict keys); ``fingerprint`` is the one sanctioned digest.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: bytes) -> None:
        if not isinstance(raw, bytes):
            raise TypeError(f"SecretKey wraps bytes, not {type(raw).__name__}")
        if len(raw) != KEY_SIZE:
            raise ValueError(f"a key must be {KEY_SIZE} bytes")
        object.__setattr__(self, "_raw", raw)

    def reveal(self) -> bytes:
        """The raw key bytes (allowed only under ``key-reveal-paths``)."""
        return self._raw

    def fingerprint(self) -> bytes:
        """8-byte SHA-256 digest identifying the key without exposing it."""
        return hashlib.sha256(self._raw).digest()[:8]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return hmac.compare_digest(self._raw, other._raw)

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return "SecretKey(<redacted>)"

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return repr(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SecretKey is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("SecretKey is immutable")

    def __reduce__(self):
        raise TypeError("SecretKey cannot be pickled")


def derive_fekek(passphrase: str, salt: bytes) -> SecretKey:
    """Derive the wrapping key from a user passphrase (PBKDF2-HMAC-SHA256).

    eCryptfs derives its FEKEK the same way; the salt is stored in the
    filesystem superblock so the derivation is repeatable across boots.
    """
    if not passphrase:
        raise ValueError("passphrase must be non-empty")
    return SecretKey(
        hashlib.pbkdf2_hmac(
            "sha256", passphrase.encode("utf-8"), salt, _PBKDF2_ITERATIONS, dklen=KEY_SIZE
        )
    )


def generate_fek(entropy: bytes) -> SecretKey:
    """Deterministically expand caller-supplied entropy into a fresh FEK.

    The simulator supplies entropy from its seeded RNG so whole runs are
    reproducible; a real kernel would read ``get_random_bytes``.
    """
    return SecretKey(hashlib.sha256(b"fsencr-fek" + entropy).digest()[:KEY_SIZE])


@dataclass(frozen=True)
class WrappedKey:
    """A FEK encrypted under a FEKEK, plus an integrity tag.

    The tag lets the open() path detect a wrong passphrase instead of
    silently handing the controller a garbage key (which would decrypt the
    file to noise — the classic eCryptfs failure mode the paper describes).
    """

    ciphertext: bytes
    tag: bytes


def _wrap_tag(fekek: SecretKey, ciphertext: bytes) -> bytes:
    return hmac.new(fekek.reveal(), b"fsencr-wrap" + ciphertext, hashlib.sha256).digest()[:16]


def wrap_key(fek: SecretKey, fekek: SecretKey) -> WrappedKey:
    """Encrypt ``fek`` under ``fekek`` with an authenticated tag."""
    ciphertext = AES128(fekek).encrypt_block(fek.reveal())
    return WrappedKey(ciphertext=ciphertext, tag=_wrap_tag(fekek, ciphertext))


def unwrap_key(wrapped: WrappedKey, fekek: SecretKey) -> SecretKey:
    """Recover the FEK; raises :class:`KeyWrapError` on a bad passphrase."""
    if not hmac.compare_digest(_wrap_tag(fekek, wrapped.ciphertext), wrapped.tag):
        raise KeyWrapError("key unwrap failed integrity check (wrong passphrase?)")
    return SecretKey(AES128(fekek).decrypt_block(wrapped.ciphertext))


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

    def __init__(self, memory_key: SecretKey, ott_key: SecretKey) -> None:
        for name, key in (("memory_key", memory_key), ("ott_key", ott_key)):
            if not isinstance(key, SecretKey):
                raise TypeError(f"{name} must be a SecretKey")
        self._memory_key = memory_key
        self._ott_key = ott_key

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyHierarchy":
        """Derive both chip keys deterministically from a seed (for tests)."""
        memory_key = hashlib.sha256(b"fsencr-memkey" + seed).digest()[:KEY_SIZE]
        ott_key = hashlib.sha256(b"fsencr-ottkey" + seed).digest()[:KEY_SIZE]
        return cls(SecretKey(memory_key), SecretKey(ott_key))

    @property
    def memory_key(self) -> SecretKey:
        return self._memory_key

    @property
    def ott_key(self) -> SecretKey:
        return self._ott_key
