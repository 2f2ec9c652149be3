"""Split-counter blocks: MECB (memory) and the counter core reused by FECB.

The split-counter scheme (§II-C) packs, into one 64-byte line, a shared
major counter plus 64 per-line minor counters covering a whole 4 KB page.
Every write bumps the line's minor counter; a minor overflow bumps the
major counter, resets all minors, and forces a page re-encryption (every
line's pad changes when the major changes).

MECB layout:  64-bit major + 64 x 7-bit minors            = 512 bits
FECB layout:  18-bit Group ID + 14-bit File ID +
              32-bit major + 64 x 7-bit minors            = 512 bits

Both are modelled by :class:`CounterBlock` parameterised with field
widths; FECB's extra ID fields live in ``repro.core.fecb``.  Either
line's persisted state is its *image*, a flat tuple ending in
``(major, minors)`` — an MECB's is just that pair, an FECB's puts the
Group and File IDs in front.  ``image()`` takes one and ``load(*image)``
installs it back: store snapshots, the controller's persisted-line
journal and the Anubis shadow all hold images, so one write rule (the
controller's ``_bump_line``) and one crash reader serve both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..mem.address import LINES_PER_PAGE

__all__ = ["CounterBlock", "CounterStore", "MECB_MAJOR_BITS", "FECB_MAJOR_BITS", "MINOR_BITS"]

MECB_MAJOR_BITS = 64
FECB_MAJOR_BITS = 32
MINOR_BITS = 7


class CounterBlock:
    """One split-counter line covering a 4 KB page.

    ``bump`` is the write-path operation: increment the minor counter of
    one cache line, handling minor overflow by bumping the major and
    resetting every minor (the caller must then re-encrypt the page).
    ``value_for`` is the read-path operation: the (major, minor) pair
    that parameterises the line's IV.
    """

    __slots__ = ("major", "minors", "major_bits", "minor_bits")

    def __init__(
        self,
        major_bits: int = MECB_MAJOR_BITS,
        minor_bits: int = MINOR_BITS,
        lines: int = LINES_PER_PAGE,
    ) -> None:
        self.major = 0
        self.minors: List[int] = [0] * lines
        self.major_bits = major_bits
        self.minor_bits = minor_bits

    @property
    def minor_limit(self) -> int:
        return 1 << self.minor_bits

    @property
    def major_limit(self) -> int:
        return 1 << self.major_bits

    def value_for(self, line_index: int) -> "tuple[int, int]":
        """(major, minor) for the IV of one cache line in the page."""
        return self.major, self.minors[line_index]

    def bump(self, line_index: int) -> bool:
        """Increment the minor counter for a write.

        Returns True when the minor overflowed — the major was bumped,
        all minors reset, and the whole page must be re-encrypted.
        Raises :class:`OverflowError` if the *major* overflows, never
        wraps: the paper's answer is re-keying the file (§VI), which the
        model does not implement.
        """
        new_minor = self.minors[line_index] + 1
        if new_minor < self.minor_limit:
            self.minors[line_index] = new_minor
            return False
        if self.major + 1 >= self.major_limit:
            raise OverflowError("major counter exhausted; re-key required")
        self.major += 1
        self.minors = [0] * len(self.minors)
        return True

    def reset(self) -> None:
        """Zero everything (file deletion or page recycling re-initialises FECBs)."""
        self.major = 0
        self.minors = [0] * len(self.minors)

    def load(self, major: int, minors) -> None:
        """Restore persisted state wholesale (snapshots / crash recovery).

        This is the one sanctioned write path besides :meth:`bump` —
        restore sites must not poke ``major``/``minors`` directly, so
        width validation stays in one place (``tests/test_contracts.py``
        checks that no other module assigns either field).
        """
        minors = list(minors)
        if not 0 <= major < self.major_limit:
            raise ValueError(f"major {major} exceeds {self.major_bits} bits")
        if any(not 0 <= minor < self.minor_limit for minor in minors):
            raise ValueError(f"minor counter exceeds {self.minor_bits} bits")
        self.major = major
        self.minors = minors

    def image(self) -> "tuple[int, tuple]":
        """Persisted state, ``(major, minors)``; ``load(*image)`` restores it."""
        return self.major, tuple(self.minors)

    def serialize(self) -> bytes:
        """Canonical byte encoding (hashed by the Merkle tree)."""
        packed = self.major
        for minor in self.minors:
            packed = (packed << self.minor_bits) | minor
        total_bits = self.major_bits + self.minor_bits * len(self.minors)
        return packed.to_bytes((total_bits + 7) // 8, "big")


@dataclass
class CounterStore:
    """Sparse functional home of counter blocks, one per data page.

    The store *is* the memory-resident truth; the metadata cache is only
    a tag filter in front of it.  Crash simulations snapshot/restore this
    dict (see ``repro.secmem.osiris``).
    """

    major_bits: int = MECB_MAJOR_BITS
    blocks: Dict[int, CounterBlock] = field(default_factory=dict)

    def block(self, page: int) -> CounterBlock:
        existing = self.blocks.get(page)
        if existing is None:
            existing = CounterBlock(major_bits=self.major_bits)
            self.blocks[page] = existing
        return existing

    def peek(self, page: int) -> Optional[CounterBlock]:
        """Look up without materialising a zero block."""
        return self.blocks.get(page)

    def snapshot(self) -> Dict[int, "tuple[int, tuple]"]:
        """Cheap copy for crash tests: {page: image}."""
        return {page: blk.image() for page, blk in self.blocks.items()}

    def restore(self, snapshot: Dict[int, "tuple[int, tuple]"]) -> None:
        self.blocks.clear()
        for page, image in snapshot.items():
            blk = self.blocks[page] = CounterBlock(major_bits=self.major_bits)
            blk.load(*image)
