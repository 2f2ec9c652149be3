"""Kernel keyring: user sessions, FEKEKs, and wrapped-FEK handling.

Mirrors the Linux keyring usage of eCryptfs/fscrypt (§III-E): each user
"logs in" with a passphrase, the kernel derives their FEKEK and parks it
in the session keyring; opening an encrypted file unwraps the FEK with
the caller's FEKEK.  A wrong passphrase produces a FEKEK whose unwrap
fails the integrity tag — the file never opens, which is the paper's
defence against the accidental ``chmod 777`` scenario (§VI).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict

from ..crypto.keys import (
    KeyWrapError,
    SecretKey,
    WrappedKey,
    derive_fekek,
    unwrap_key,
    wrap_key,
)

__all__ = ["KeyringError", "SessionKeyring", "Keyring"]


class KeyringError(Exception):
    """Keyring misuse: no session, wrong passphrase, unknown user."""


@dataclass
class SessionKeyring:
    """One user's logged-in session: their derived FEKEK."""

    uid: int
    # repr=False: the derived FEKEK is key material; session objects show
    # up in debug output and must not render it (§III-E key hygiene).
    fekek: SecretKey = field(repr=False)

    def wrap(self, fek: SecretKey) -> WrappedKey:
        return wrap_key(fek, self.fekek)

    def unwrap(self, wrapped: WrappedKey) -> SecretKey:
        try:
            return unwrap_key(wrapped, self.fekek)
        except KeyWrapError as exc:
            raise KeyringError(f"uid {self.uid}: {exc}") from exc


@dataclass
class Keyring:
    """System-wide keyring: per-uid sessions plus the admin credential.

    The admin credential digest is what boot sends to the controller via
    MMIO ``ADMIN_LOGIN``; its SHA-256 stands in for whatever attestation
    a real design would use.
    """

    salt: bytes = b"fsencr-system-salt"
    _sessions: Dict[int, SessionKeyring] = field(default_factory=dict)

    def login(self, uid: int, passphrase: str) -> SessionKeyring:
        """Derive and install the user's FEKEK for this session."""
        session = SessionKeyring(uid=uid, fekek=derive_fekek(passphrase, self.salt))
        self._sessions[uid] = session
        return session

    def session(self, uid: int) -> SessionKeyring:
        session = self._sessions.get(uid)
        if session is None:
            raise KeyringError(f"uid {uid} has no logged-in session")
        return session

    # -- admin credential -----------------------------------------------------

    def credential_digest(self, passphrase: str) -> bytes:
        return hashlib.sha256(b"fsencr-admin" + passphrase.encode("utf-8")).digest()
