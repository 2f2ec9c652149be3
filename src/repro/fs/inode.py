"""Inodes and extent bookkeeping for the simulated DAX filesystem.

The fields the paper's kernel snippets read are all here with their
Linux names: ``i_ino`` (the File ID pushed to the controller),
``i_gid`` (the Group ID), mode/uid for the permission layer, and the
per-file encryption context (the wrapped FEK, exactly where eCryptfs
keeps it — in the file's metadata).

Extents map file page indices to physical pages inside the mounted PMEM
region; DAX mmap exposes those physical pages directly, which is why a
file page's physical address is stable and can key the FECB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..crypto.keys import WrappedKey

__all__ = ["EncryptionContext", "Inode"]


@dataclass
class EncryptionContext:
    """Per-file crypto metadata stored with the inode.

    ``wrapped_fek`` is the FEK sealed under the owner's FEKEK; the
    plaintext FEK exists only inside the memory controller's OTT (and
    transiently in the kernel during creat/open).
    """

    wrapped_fek: WrappedKey
    # Diagnostic only — lets tests confirm the right key reached the OTT
    # without scraping controller internals.  A real inode stores nothing
    # like this.
    key_fingerprint: bytes = b""


@dataclass
class Inode:
    """One file.  ``extents`` maps file-page-index -> physical page number."""

    i_ino: int
    i_uid: int
    i_gid: int
    mode: int
    size: int = 0
    encryption: Optional[EncryptionContext] = None
    extents: Dict[int, int] = field(default_factory=dict)

    @property
    def encrypted(self) -> bool:
        return self.encryption is not None

    @property
    def pages(self) -> int:
        """Allocated page count (not the same as size for sparse files)."""
        return len(self.extents)

    def ensure_size(self, offset_end: int) -> None:
        if offset_end > self.size:
            self.size = offset_end
