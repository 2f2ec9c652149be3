"""Cryptographic primitives for the FsEncr reproduction.

Everything here is implemented from scratch (no third-party crypto): an
AES-128 block cipher, the counter-mode IV layout from the paper's
Figure 2, pad generation / XOR composition, and the eCryptfs-style key
hierarchy (FEK wrapped under a passphrase-derived FEKEK) whose keys are
opaque :class:`SecretKey` values.
"""

from .aes import AES128, aes128_decrypt_block, aes128_encrypt_block
from .iv import FILE_DOMAIN, MEMORY_DOMAIN, OTT_DOMAIN, CounterIV, IVLayout
from .keys import (
    KEY_SIZE,
    KeyHierarchy,
    KeyWrapError,
    SecretKey,
    WrappedKey,
    derive_fekek,
    generate_fek,
    unwrap_key,
    wrap_key,
)
from .otp import OTPEngine, apply_pad, compose_pads, generate_otp, xor_bytes

__all__ = [
    "AES128",
    "aes128_encrypt_block",
    "aes128_decrypt_block",
    "CounterIV",
    "IVLayout",
    "MEMORY_DOMAIN",
    "FILE_DOMAIN",
    "OTT_DOMAIN",
    "OTPEngine",
    "generate_otp",
    "compose_pads",
    "apply_pad",
    "xor_bytes",
    "KEY_SIZE",
    "KeyHierarchy",
    "KeyWrapError",
    "SecretKey",
    "WrappedKey",
    "derive_fekek",
    "generate_fek",
    "wrap_key",
    "unwrap_key",
]
