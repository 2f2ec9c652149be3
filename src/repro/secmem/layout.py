"""Physical layout of the security-metadata region.

Counter-mode encryption keeps its metadata *in memory* (§II-C): MECBs,
FECBs, Merkle-tree nodes, and FsEncr's encrypted-OTT spill region all
occupy reserved physical ranges above the data region.  Their addresses
matter to the timing model — a metadata-cache miss turns into a real NVM
access at that address, with its own row-buffer behaviour — so the layout
is computed once here and shared by every component.  Construction
derives every region base, the OTT slot and Merkle leaf counts, each
tree level's base address and node count, and the layout's end; after
that, each address is one addition and a bounds check.

Layout (one line = 64 B):

    [0, data_bytes)                        data (memory + DAX files)
    [mecb_base, +lines_of(pages))          one MECB line per 4 KB data page
    [fecb_base, +lines_of(pages))          one FECB line per 4 KB data page
                                           ("a file encryption counter
                                           block follows each memory
                                           encryption counter block" —
                                           modelled as a parallel array,
                                           which keeps indexing trivial
                                           and preserves the 1:1 pairing)
    [ott_base, +ott_region_bytes)          encrypted OTT hash table
    [merkle_level_bases[level], ...)       Merkle-tree levels, leaves up
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Tuple

from ..mem.address import LINE_SIZE, PAGE_SIZE

__all__ = ["MetadataLayout"]

#: A geometry attribute: set by ``__post_init__``, never a constructor
#: argument, and left out of equality, hashing and ``repr``.
_derived = functools.partial(field, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class MetadataLayout:
    """Address carving for a machine with ``data_bytes`` of protected data.

    The three constructor arguments define the layout; every other
    attribute is a plain value derived from them once, at construction.
    """

    data_bytes: int = 16 * 1024 * 1024 * 1024  # Table III: 16 GB
    ott_region_bytes: int = 256 * 1024  # spill area for evicted OTT entries
    merkle_arity: int = 8

    num_pages: int = _derived()
    #: Bytes of one counter array (MECB or FECB): one line per page.
    counter_region_bytes: int = _derived()
    mecb_base: int = _derived()
    fecb_base: int = _derived()
    ott_base: int = _derived()
    merkle_base: int = _derived()
    ott_slots: int = _derived()
    #: Leaf count: every protected metadata line is a leaf.  The tree
    #: covers MECBs + FECBs + the encrypted OTT region (§VI "Integrity of
    #: Filesystem Encryption Counters and OTT").
    merkle_leaves: int = _derived()
    #: Internal node levels stored in memory, level 0 being the parents
    #: of the leaves.  Neither the leaves (the metadata lines themselves)
    #: nor the on-chip root count; the top level is the root's only child.
    merkle_levels: int = _derived()
    #: Address of each level's first node; levels are packed arrays laid
    #: out end to end above ``merkle_base``.
    merkle_level_bases: Tuple[int, ...] = _derived()
    #: Node count of each level.
    merkle_level_nodes: Tuple[int, ...] = _derived()
    #: Upper bound of the whole layout (for address-space checks).
    total_bytes: int = _derived()

    def __post_init__(self) -> None:
        if self.data_bytes <= 0 or self.data_bytes % PAGE_SIZE:
            raise ValueError("data_bytes must be a positive multiple of the page size")
        if self.ott_region_bytes % LINE_SIZE:
            raise ValueError("ott_region_bytes must be line aligned")
        if self.merkle_arity < 2:
            raise ValueError("merkle arity must be >= 2")
        put = functools.partial(object.__setattr__, self)
        put("num_pages", self.data_bytes // PAGE_SIZE)
        put("counter_region_bytes", self.num_pages * LINE_SIZE)
        put("mecb_base", self.data_bytes)
        put("fecb_base", self.mecb_base + self.counter_region_bytes)
        put("ott_base", self.fecb_base + self.counter_region_bytes)
        put("merkle_base", self.ott_base + self.ott_region_bytes)
        put("ott_slots", self.ott_region_bytes // LINE_SIZE)
        protected_bytes = 2 * self.counter_region_bytes + self.ott_region_bytes
        put("merkle_leaves", protected_bytes // LINE_SIZE)
        bases = []
        counts = []
        base = self.merkle_base
        nodes = self.merkle_leaves
        while nodes > 1:
            nodes = -(-nodes // self.merkle_arity)  # ceil division
            bases.append(base)
            counts.append(nodes)
            base += nodes * LINE_SIZE
        put("merkle_level_bases", tuple(bases))
        put("merkle_level_nodes", tuple(counts))
        put("merkle_levels", len(counts))
        put("total_bytes", base)

    # -- per-page metadata addresses -----------------------------------------

    def mecb_addr(self, page: int) -> int:
        self._check_page(page)
        return self.mecb_base + page * LINE_SIZE

    def fecb_addr(self, page: int) -> int:
        self._check_page(page)
        return self.fecb_base + page * LINE_SIZE

    def ott_slot_addr(self, slot: int) -> int:
        addr = self.ott_base + slot * LINE_SIZE
        if addr >= self.merkle_base:
            raise ValueError(f"OTT slot {slot} outside the OTT region")
        return addr

    def _check_page(self, page: int) -> None:
        if page < 0 or page >= self.num_pages:
            raise ValueError(f"page {page} outside data region ({self.num_pages} pages)")

    # -- Merkle-tree geometry --------------------------------------------------

    def merkle_leaf_index(self, metadata_addr: int) -> int:
        """Leaf index of a protected metadata line address."""
        if not self.mecb_base <= metadata_addr < self.merkle_base:
            raise ValueError(f"{metadata_addr:#x} is not a protected metadata address")
        return (metadata_addr - self.mecb_base) // LINE_SIZE

    def merkle_node_addr(self, level: int, index: int) -> int:
        """Memory address of a tree node (level 0 = parents of leaves)."""
        if not 0 <= level < self.merkle_levels:
            raise ValueError(f"level {level} outside the tree's {self.merkle_levels} levels")
        if index >= self.merkle_level_nodes[level]:
            raise ValueError(f"node index {index} out of range at level {level}")
        return self.merkle_level_bases[level] + index * LINE_SIZE
