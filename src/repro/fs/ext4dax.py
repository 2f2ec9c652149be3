"""A DAX-enabled ext4-like filesystem over a reserved PMEM region.

This is the simulation's stand-in for ``memmap=4G!12G`` + ``mkfs.ext4 &&
mount -o dax`` (§IV): a physical page allocator over the persistent
region, a flat namespace of inodes, Unix permissions, and per-file
encryption contexts.  What makes it "DAX" is what it does *not* do —
file pages are handed to the MMU as direct physical mappings; there is
no page cache and no copy on the access path.

The co-design hooks fire from here:

* ``create``  -> MMIO ``INSTALL_KEY``  (fresh FEK into the OTT)
* ``open``    -> unwrap FEK with the caller's FEKEK (wrong passphrase =>
                 open refused), then re-INSTALL (idempotent; the OTT may
                 have spilled the entry)
* ``unlink``  -> MMIO ``REVOKE_KEY`` + secure shredding of the extents
* DAX fault   -> :meth:`fault_in` returns (pfn, df) and fires
                 MMIO ``UPDATE_FECB`` for encrypted files
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..crypto.keys import generate_fek
from ..kernel.costs import SoftwareCosts
from ..kernel.keyring import Keyring, KeyringError
from ..kernel.mmio import MMIORegisters
from ..mem.address import PAGE_SIZE
from ..mem.stats import StatCounters
from .inode import EncryptionContext, Inode
from .permissions import AccessDenied, User, UserDatabase, check_access

__all__ = ["FsError", "FileHandle", "DaxFilesystem"]


class FsError(Exception):
    """Filesystem-level failure (ENOENT, EEXIST, ENOSPC...)."""


@dataclass(frozen=True)
class FileHandle:
    """An open file descriptor: the inode plus the opener's identity.

    For encrypted files the handle existing at all proves the opener's
    passphrase unwrapped the FEK — the paper's last line of defence when
    mode bits have been botched.
    """

    inode: Inode
    user: User
    writable: bool


class DaxFilesystem:
    """The mounted persistent filesystem.

    ``mmio`` is the kernel->controller channel; pass ``None`` to mount
    without hardware filesystem encryption (plain ext4-dax, or the
    software-encryption comparison where crypto happens above the fs).
    """

    def __init__(
        self,
        pmem_base: int,
        pmem_bytes: int,
        users: Optional[UserDatabase] = None,
        keyring: Optional[Keyring] = None,
        mmio: Optional[MMIORegisters] = None,
        costs: Optional[SoftwareCosts] = None,
        stats: Optional[StatCounters] = None,
        entropy_source: Optional[Callable[[], bytes]] = None,
    ) -> None:
        if pmem_base % PAGE_SIZE or pmem_bytes % PAGE_SIZE:
            raise ValueError("PMEM region must be page aligned")
        if pmem_bytes <= 0:
            raise ValueError("PMEM region must be non-empty")
        self.pmem_base = pmem_base
        self.pmem_bytes = pmem_bytes
        self.users = users or UserDatabase()
        self.keyring = keyring or Keyring()
        self.mmio = mmio
        self.costs = costs or SoftwareCosts()
        self.stats = stats or StatCounters("fs")
        self._entropy_source = entropy_source or self._default_entropy
        first_page = pmem_base // PAGE_SIZE
        self._free_pages: List[int] = list(
            range(first_page + pmem_bytes // PAGE_SIZE - 1, first_page - 1, -1)
        )
        self._namespace: Dict[str, int] = {}
        self._inodes: Dict[int, Inode] = {}
        self._next_ino = 2  # ino 1 is the root directory by convention
        self._entropy_counter = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _default_entropy(self) -> bytes:
        self._entropy_counter += 1
        return hashlib.sha256(b"fs-entropy" + self._entropy_counter.to_bytes(8, "big")).digest()

    def _allocate_page(self) -> int:
        if not self._free_pages:
            raise FsError("ENOSPC: persistent region exhausted")
        return self._free_pages.pop()

    def _release_page(self, pfn: int) -> None:
        self._free_pages.append(pfn)

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------

    def create(
        self,
        path: str,
        uid: int,
        mode: int = 0o644,
        encrypted: bool = False,
    ) -> Tuple[FileHandle, float]:
        """creat(2).  Returns the handle and the software latency spent.

        Creating an encrypted file requires the owner to have a keyring
        session (their passphrase-derived FEKEK wraps the fresh FEK).
        """
        if path in self._namespace:
            raise FsError(f"EEXIST: {path}")
        user = self.users.user(uid)
        latency = self.costs.syscall_ns + self.costs.fs_layer_ns
        inode = Inode(i_ino=self._next_ino, i_uid=uid, i_gid=user.gid, mode=mode)
        self._next_ino += 1

        if encrypted:
            session = self.keyring.session(uid)  # raises if not logged in
            fek = generate_fek(self._entropy_source())
            inode.encryption = EncryptionContext(
                wrapped_fek=session.wrap(fek),
                key_fingerprint=fek.fingerprint(),
            )
            if self.mmio is not None:
                latency += self.mmio.install_file_key(inode.i_gid, inode.i_ino, fek)
            self.stats.add("encrypted_creates")

        self._namespace[path] = inode.i_ino
        self._inodes[inode.i_ino] = inode
        self.stats.add("creates")
        return FileHandle(inode=inode, user=user, writable=True), latency

    def open(self, path: str, uid: int, write: bool = False) -> Tuple[FileHandle, float]:
        """open(2) with the paper's key check on top of mode bits.

        Even when mode bits allow the access (e.g. after an accidental
        ``chmod 777``), an encrypted file only opens if the caller's
        keyring session unwraps the FEK — a wrong passphrase raises
        :class:`~repro.kernel.keyring.KeyringError` (§VI).
        """
        inode = self._lookup(path)
        user = self.users.user(uid)
        check_access(inode.mode, user, inode.i_uid, inode.i_gid, write=write)
        latency = self.costs.syscall_ns + self.costs.fs_layer_ns

        if inode.encrypted:
            session = self.keyring.session(uid)
            fek = session.unwrap(inode.encryption.wrapped_fek)  # may raise
            if self.mmio is not None:
                latency += self.mmio.install_file_key(inode.i_gid, inode.i_ino, fek)
            self.stats.add("encrypted_opens")

        self.stats.add("opens")
        return FileHandle(inode=inode, user=user, writable=write), latency

    def unlink(self, path: str, uid: int) -> float:
        """unlink(2): drop the name, revoke the key, shred the extents,
        free the pages.

        Secure deletion follows the Silent-Shredder approach (§VI): the
        controller invalidates the encryption state for the pages rather
        than overwriting data — modelled by the REVOKE_KEY message plus
        extent release; the ciphertext left behind is undecryptable once
        the FECB is re-initialised and the key revoked.
        """
        inode = self._lookup(path)
        user = self.users.user(uid)
        check_access(inode.mode, user, inode.i_uid, inode.i_gid, write=True)
        latency = self.costs.syscall_ns + self.costs.fs_layer_ns
        del self._namespace[path]
        if inode.encrypted and self.mmio is not None:
            latency += self.mmio.revoke_file_key(inode.i_gid, inode.i_ino)
        for pfn in inode.extents.values():
            self._release_page(pfn)
        inode.extents.clear()
        del self._inodes[inode.i_ino]
        self.stats.add("unlinks")
        return latency

    def chmod(self, path: str, uid: int, mode: int) -> None:
        """chmod(2): only the owner (or root) may change the mode."""
        inode = self._lookup(path)
        if uid not in (0, inode.i_uid):
            raise AccessDenied(f"uid {uid} may not chmod {path}")
        inode.mode = mode
        self.stats.add("chmods")

    def stat(self, path: str) -> Inode:
        return self._lookup(path)

    def exists(self, path: str) -> bool:
        return path in self._namespace

    def _lookup(self, path: str) -> Inode:
        ino = self._namespace.get(path)
        if ino is None:
            raise FsError(f"ENOENT: {path}")
        return self._inodes[ino]

    # ------------------------------------------------------------------
    # The DAX fault hook
    # ------------------------------------------------------------------

    def fault_in(self, handle: FileHandle, file_page: int) -> Tuple[int, bool, float]:
        """Allocate/locate the physical page behind a faulting file page.

        This is the simulated ``dax_insert_mapping``: returns
        ``(pfn, df, latency)`` where ``df`` says whether the PTE must
        carry the DF-bit.  For encrypted files the FECB is stamped with
        (group, file) over MMIO — once per page, at fault time, exactly
        as §III-F-1 specifies.
        """
        inode = handle.inode
        latency = self.costs.dax_fault_ns()
        pfn = inode.extents.get(file_page)
        if pfn is None:
            pfn = self._allocate_page()
            inode.extents[file_page] = pfn
            inode.ensure_size((file_page + 1) * PAGE_SIZE)
            self.stats.add("page_allocations")
        df = inode.encrypted and self.mmio is not None
        if df:
            latency += self.mmio.update_fecb(pfn, inode.i_gid, inode.i_ino)
        self.stats.add("dax_faults")
        return pfn, df, latency
