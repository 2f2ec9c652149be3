"""Untrusted-OS extension: enclave-managed file keys (§VI future work).

The paper's threat model trusts the OS; §VI sketches the harder setting
— an SGX-like world where "applications need to only trust the
processor chip" and must "directly communicate their key, file ID, and
encryption mode to the hardware, which otherwise should have been done
by the OS".  This module prototypes that sketch:

* an :class:`Enclave` is a measured application context; its identity is
  a hash of its (simulated) code measurement, attested by the processor;
* an attested enclave obtains an :class:`EnclaveChannel` — a direct,
  kernel-invisible path to the controller's key-management verbs;
* keys installed through a channel are *owner-tagged*: the controller
  remembers which enclave installed each (group, file) binding and
  refuses management requests for it from other enclaves or from the
  (now untrusted) kernel MMIO path.

The OS still faults pages and schedules — it just can never inject,
replace, or revoke an enclave's file keys, which is precisely the
capability the untrusted-OS model must remove from ring 0.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..mem.stats import StatCounters
from .fsencr import FsEncrController

__all__ = ["AttestationError", "EnclaveOwnershipError", "Enclave", "EnclaveManager"]


class AttestationError(Exception):
    """The enclave's measurement did not verify."""


class EnclaveOwnershipError(Exception):
    """A party other than the owning enclave touched a protected key."""


@dataclass(frozen=True)
class Enclave:
    """A measured application context.

    ``measurement`` stands in for the hash of the enclave's initial
    memory; the processor's launch check compares it against the value
    the application's developer signed.
    """

    enclave_id: int
    measurement: bytes

    @staticmethod
    def measure(code: bytes) -> bytes:
        return hashlib.sha256(b"enclave-measurement" + code).digest()


class EnclaveChannel:
    """A direct enclave -> controller key-management channel."""

    def __init__(self, manager: "EnclaveManager", enclave: Enclave) -> None:
        self._manager = manager
        self._enclave = enclave

    def install_file_key(self, group_id: int, file_id: int, key: bytes) -> None:
        self._manager._install(self._enclave, group_id, file_id, key)

    def revoke_file_key(self, group_id: int, file_id: int) -> None:
        self._manager._revoke(self._enclave, group_id, file_id)

    def rekey_file(self, group_id: int, file_id: int) -> bytes:
        manager = self._manager
        manager._check_owner(self._enclave, group_id, file_id)
        # The controller's re-key path re-installs the new key through
        # the (guarded) install verb; the owner's authorisation extends
        # to that inner call.
        manager._authorized += 1
        try:
            return manager.controller.rekey_file(group_id, file_id)
        finally:
            manager._authorized -= 1


class EnclaveManager:
    """The processor-side launch/attestation and ownership registry.

    Wraps an :class:`FsEncrController`; once any enclave owns a key, the
    kernel-facing MMIO verbs for that key are rejected (the manager
    installs itself in front of the controller's verbs).
    """

    def __init__(self, controller: FsEncrController, stats: Optional[StatCounters] = None) -> None:
        self.controller = controller
        self.stats = stats or StatCounters("enclaves")
        self._expected: Dict[int, bytes] = {}
        self._owners: Dict[Tuple[int, int], int] = {}
        self._next_id = 1
        self._authorized = 0  # reentrancy depth of owner-authorised ops
        # Interpose on the kernel path so ring 0 cannot touch owned keys.
        self._kernel_install = controller.install_file_key
        self._kernel_revoke = controller.revoke_file_key
        controller.install_file_key = self._guarded_kernel_install  # type: ignore[assignment]
        controller.revoke_file_key = self._guarded_kernel_revoke  # type: ignore[assignment]

    # -- launch / attestation -------------------------------------------------

    def enroll(self, code: bytes) -> int:
        """Developer-side: register the expected measurement; returns the
        enclave id the application will launch under."""
        enclave_id = self._next_id
        self._next_id += 1
        self._expected[enclave_id] = Enclave.measure(code)
        return enclave_id

    def launch(self, enclave_id: int, code: bytes) -> EnclaveChannel:
        """Processor launch check: measure the code, compare, attest."""
        expected = self._expected.get(enclave_id)
        measured = Enclave.measure(code)
        if expected is None or measured != expected:
            # Standalone attestation model: its counters are asserted on
            # directly by its unit tests, never through a machine registry.
            self.stats.add("failed_attestations")  # repro-lint: disable=stats-registered (standalone component)
            raise AttestationError(f"enclave {enclave_id}: measurement mismatch")
        self.stats.add("launches")
        return EnclaveChannel(self, Enclave(enclave_id=enclave_id, measurement=measured))

    # -- guarded key management -------------------------------------------------

    def _check_owner(self, enclave: Enclave, group_id: int, file_id: int) -> None:
        owner = self._owners.get((group_id, file_id))
        if owner is not None and owner != enclave.enclave_id:
            self.stats.add("ownership_violations")
            raise EnclaveOwnershipError(
                f"(group={group_id}, file={file_id}) is owned by enclave {owner}"
            )

    def _install(self, enclave: Enclave, group_id: int, file_id: int, key: bytes) -> None:
        self._check_owner(enclave, group_id, file_id)
        self._kernel_install(group_id, file_id, key)
        self._owners[(group_id, file_id)] = enclave.enclave_id
        self.stats.add("enclave_installs")

    def _revoke(self, enclave: Enclave, group_id: int, file_id: int) -> None:
        self._check_owner(enclave, group_id, file_id)
        self._kernel_revoke(group_id, file_id)
        self._owners.pop((group_id, file_id), None)
        self.stats.add("enclave_revokes")

    # -- the untrusted kernel's residual verbs ------------------------------

    def _guarded_kernel_install(self, group_id: int, file_id: int, key: bytes) -> None:
        if (group_id, file_id) in self._owners and not self._authorized:
            self.stats.add("kernel_rejections")
            raise EnclaveOwnershipError(
                "untrusted kernel may not replace an enclave-owned key"
            )
        self._kernel_install(group_id, file_id, key)

    def _guarded_kernel_revoke(self, group_id: int, file_id: int) -> None:
        if (group_id, file_id) in self._owners and not self._authorized:
            self.stats.add("kernel_rejections")
            raise EnclaveOwnershipError(
                "untrusted kernel may not revoke an enclave-owned key"
            )
        self._kernel_revoke(group_id, file_id)

    def owner_of(self, group_id: int, file_id: int) -> Optional[int]:
        return self._owners.get((group_id, file_id))
