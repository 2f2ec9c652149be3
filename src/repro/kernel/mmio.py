"""Memory-mapped I/O registers: the kernel -> memory-controller channel.

§III-F-1 enumerates the only messages the OS ever sends the hardware:

* ``INSTALL_KEY``   — file creation/open: (group_id, file_id, 128-bit key)
                      goes into the Open Tunnel Table.
* ``REVOKE_KEY``    — file deletion: drop the OTT entry and its spill copy.
* ``UPDATE_FECB``   — DAX page fault: stamp (group_id, file_id) into the
                      page's File Encryption Counter Block.
* ``ADMIN_LOGIN``   — boot-time admin credential check; a wrong credential
                      locks the file-decryption engine (§VI "Protecting
                      Files from Internal Attacks").

Nothing is sent on read()/write()/load/store — that is the whole point
of the design.  The register file charges a fixed uncached-MMIO-write
latency per doorbell, and the simulated controller implements
:class:`MMIOTarget` to receive the payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..crypto.keys import SecretKey
from ..mem.stats import StatCounters

__all__ = ["MMIOTarget", "MMIORegisters", "MMIO_WRITE_LATENCY_NS"]

MMIO_WRITE_LATENCY_NS = 150.0  # uncached store + fence to a device register


class MMIOTarget(Protocol):
    """What the memory controller exposes to the kernel."""

    def install_file_key(self, group_id: int, file_id: int, key: SecretKey) -> None:
        """OTT insert (file created or opened)."""

    def revoke_file_key(self, group_id: int, file_id: int) -> None:
        """OTT + spill-region removal (file deleted)."""

    def update_fecb(self, page: int, group_id: int, file_id: int) -> None:
        """Stamp the page's FECB with its owning file (DAX fault)."""

    def admin_login(self, credential_digest: bytes) -> bool:
        """Boot-time credential check; False locks file decryption."""


@dataclass
class MMIORegisters:
    """The kernel-visible register file, with doorbell semantics.

    Each high-level operation is a handful of register writes plus one
    doorbell; the model charges ``writes_per_op`` MMIO store latencies
    and forwards the decoded payload to the target.  Latency is returned
    to the caller so fault/creat paths can account it.
    """

    target: MMIOTarget
    stats: Optional[StatCounters] = None
    write_latency_ns: float = MMIO_WRITE_LATENCY_NS

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = StatCounters("mmio")

    def _charge(self, op: str, register_writes: int) -> float:
        self.stats.add(op)
        self.stats.add("register_writes", register_writes)
        return register_writes * self.write_latency_ns

    def install_file_key(self, group_id: int, file_id: int, key: SecretKey) -> float:
        # 2 key halves + file id + group id + doorbell = 5 register writes.
        self.target.install_file_key(group_id, file_id, key)
        return self._charge("install_key", 5)

    def revoke_file_key(self, group_id: int, file_id: int) -> float:
        self.target.revoke_file_key(group_id, file_id)
        return self._charge("revoke_key", 3)

    def update_fecb(self, page: int, group_id: int, file_id: int) -> float:
        self.target.update_fecb(page, group_id, file_id)
        return self._charge("update_fecb", 4)

    def admin_login(self, credential_digest: bytes) -> "tuple[bool, float]":
        accepted = self.target.admin_login(credential_digest)
        return accepted, self._charge("admin_login", 3)
