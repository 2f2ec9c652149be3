"""File Encryption Counter Blocks (FECB).

§III-D: a FECB accompanies every MECB, covering the same 4 KB page, but
with the layout 18-bit Group ID + 14-bit File ID + 32-bit major counter
+ 64 x 7-bit minor counters.  The embedded IDs are how the memory
controller maps a DAX request to its file key: extract (group, file)
from the page's FECB, look the key up in the OTT.

FECBs are stamped at DAX fault time (MMIO ``UPDATE_FECB``) and
re-initialised when the page changes hands — footnote 4: file counters
only need to survive the file's lifetime, so re-stamping for a new file
resets them, and deletion invalidates them (the Silent-Shredder-style
secure delete: old ciphertext becomes undecryptable even with the old
key, because the pad depended on counters that are gone).

A FECB's persisted image is ``(group_id, file_id, major, minors)``: the
MECB image (``repro.secmem.counters``) with the identity in front, so
the controller journals, shadows and restores both kinds of line alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..secmem.counters import CounterBlock, FECB_MAJOR_BITS
from .ott import FILE_ID_BITS, GROUP_ID_BITS

__all__ = ["FECBlock", "FECBStore"]


@dataclass
class FECBlock:
    """One FECB line: owning-file identity + a split-counter block."""

    group_id: int = 0
    file_id: int = 0
    counters: CounterBlock = field(
        default_factory=lambda: CounterBlock(major_bits=FECB_MAJOR_BITS)
    )

    @property
    def stamped(self) -> bool:
        """Whether this page currently belongs to an encrypted file."""
        return self.file_id != 0 or self.group_id != 0

    def stamp(self, group_id: int, file_id: int) -> bool:
        """Bind the page to a file.  Returns True if counters were reset
        (page recycled from a different file — fresh counters both for
        security hygiene and because the old file's versions are dead)."""
        if not 0 <= group_id < (1 << GROUP_ID_BITS):
            raise ValueError(f"group_id {group_id} exceeds {GROUP_ID_BITS} bits")
        if not 0 <= file_id < (1 << FILE_ID_BITS):
            raise ValueError(f"file_id {file_id} exceeds {FILE_ID_BITS} bits")
        reset = self.stamped and (group_id, file_id) != (self.group_id, self.file_id)
        if reset:
            self.counters.reset()
        self.group_id = group_id
        self.file_id = file_id
        return reset

    def invalidate(self) -> None:
        """Unbind (file deleted): secure-delete semantics for the page."""
        self.group_id = 0
        self.file_id = 0
        self.counters.reset()

    def image(self) -> "tuple[int, int, int, tuple]":
        """Persisted state, ``(group_id, file_id, major, minors)``."""
        return (self.group_id, self.file_id) + self.counters.image()

    def load(self, group_id: int, file_id: int, major: int, minors) -> None:
        """Install an :meth:`image` back (snapshots / crash recovery)."""
        self.group_id = group_id
        self.file_id = file_id
        self.counters.load(major, minors)

    def serialize(self) -> bytes:
        """Canonical bytes for Merkle hashing: IDs + counters.

        The paper stresses that the ID fields must be integrity-protected
        along with the counters (§VI) — including them here is that
        protection: the BMT hashes this serialisation.
        """
        ids = (self.group_id << FILE_ID_BITS) | self.file_id
        return ids.to_bytes(4, "big") + self.counters.serialize()


class FECBStore:
    """Sparse page -> FECB map (the memory-resident truth)."""

    def __init__(self) -> None:
        self._blocks: Dict[int, FECBlock] = {}

    def block(self, page: int) -> FECBlock:
        existing = self._blocks.get(page)
        if existing is None:
            existing = FECBlock()
            self._blocks[page] = existing
        return existing

    def peek(self, page: int) -> Optional[FECBlock]:
        return self._blocks.get(page)

    def stamped_pages(self, group_id: int, file_id: int) -> "list[int]":
        """Every page currently bound to a file (the delete walk)."""
        return [
            page
            for page, blk in self._blocks.items()
            if (blk.group_id, blk.file_id) == (group_id, file_id) and blk.stamped
        ]

    def snapshot(self) -> Dict[int, Tuple[int, int, int, Tuple[int, ...]]]:
        """{page: image}."""
        return {page: blk.image() for page, blk in self._blocks.items()}

    def restore(self, snapshot: Dict[int, Tuple[int, int, int, Tuple[int, ...]]]) -> None:
        self._blocks.clear()
        for page, image in snapshot.items():
            blk = self._blocks[page] = FECBlock()
            blk.load(*image)
