"""8-ary Bonsai Merkle tree over the security-metadata region.

The tree authenticates every protected metadata line (MECBs, FECBs, the
encrypted-OTT region).  Its root lives on-chip and never touches memory;
internal nodes live in the metadata region and are cached in the metadata
cache like counters are.

Two faces, matching the rest of the simulator:

* *Timing face* — :meth:`path_to_root` enumerates the node addresses a
  verification/update must touch; the secure controller feeds them
  through the metadata cache and charges NVM traffic for misses.
* *Functional face* — real SHA-256 hashing: :meth:`update_leaf` rehashes
  the path after a counter change, :meth:`verify_leaf` recomputes up to
  the root and compares.  Tamper tests flip bits in the counter store and
  assert the root mismatch fires.

Every stored node at level >= 1 keeps a *preimage*: the 8 stored digests
of its children, concatenated.  :meth:`_store` is the only writer of node
digests and writes each one through into its parent's preimage, so the
invariant is that a preimage always equals the stored (or default)
digests of its children, and rehashing a level >= 1 node is one SHA-256
of its preimage.  Level 0 always reads its leaves' actual bytes through
``leaf_reader``: an out-of-band leaf tamper, a replay or a flipped OTT
slot is caught exactly where a full recompute of the children catches it.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..mem.address import LINE_SIZE
from ..mem.stats import StatCounters
from .layout import MetadataLayout

__all__ = ["IntegrityError", "BonsaiMerkleTree"]

_ZERO_DIGEST = hashlib.sha256(b"fsencr-empty-node").digest()
_DIGEST_BYTES = len(_ZERO_DIGEST)


class IntegrityError(Exception):
    """Raised when a Merkle verification detects tampering or replay."""


class BonsaiMerkleTree:
    """Sparse functional + geometric model of the metadata integrity tree.

    Node digests are stored sparsely; an absent node means "subtree of
    all-default leaves" and hashes to a level-dependent default, so the
    tree never materialises its multi-million-node full shape.
    """

    def __init__(
        self,
        layout: MetadataLayout,
        leaf_reader: Optional[Callable[[int], bytes]] = None,
        stats: Optional[StatCounters] = None,
        touched: Iterable[int] = (),
    ) -> None:
        """``leaf_reader(leaf_index) -> bytes`` returns the canonical bytes
        of the protected metadata line (counter serialisation / OTT slot
        ciphertext); the tree itself stores no leaf data.  ``touched``
        seeds the leaf indices :meth:`rebuild_root` rehashes."""
        self.layout = layout
        self.arity = layout.merkle_arity
        #: Internal levels stored in memory (``MetadataLayout.merkle_levels``).
        self.num_levels = layout.merkle_levels
        self._leaf_reader = leaf_reader
        self._max_leaf = layout.merkle_leaves
        self.stats = stats or StatCounters("merkle")
        self._nodes: Dict["tuple[int, int]", bytes] = {}
        #: (level >= 1, index) -> the node's children's stored digests,
        #: concatenated; written only through :meth:`_store`.
        self._preimages: Dict["tuple[int, int]", bytearray] = {}
        self._touched: set = set(touched)
        #: metadata address -> :meth:`path_to_root`, filled on first use.
        self._paths: Dict[int, Tuple[int, ...]] = {}
        self._default_digests = self._compute_default_digests()
        self._root = self._default_digests[-1]

    # -- geometry -----------------------------------------------------------

    def path_to_root(self, metadata_addr: int) -> Tuple[int, ...]:
        """Memory addresses of the internal nodes covering a leaf.

        Ordered leaf-side first.  The last level's single node is the
        root's only child; the root itself has no address.  A pure
        function of the layout, so each leaf's path is built once.
        """
        path = self._paths.get(metadata_addr)
        if path is None:
            index = self.layout.merkle_leaf_index(metadata_addr)
            arity = self.arity
            addrs: List[int] = []
            for base in self.layout.merkle_level_bases:
                index //= arity
                addrs.append(base + index * LINE_SIZE)
            path = self._paths[metadata_addr] = tuple(addrs)
        return path

    # -- functional hashing ----------------------------------------------------

    def _compute_default_digests(self) -> List[bytes]:
        """Digest of an all-default subtree at each level (leaf level = 0)."""
        digests = [_ZERO_DIGEST]
        for _ in range(self.num_levels):
            digests.append(
                hashlib.sha256(digests[-1] * self.arity).digest()
            )
        return digests

    def _leaf_digest(self, leaf_index: int) -> bytes:
        """Digest of the leaf's *actual* content.

        All-zero content maps to the default digest so the sparse
        default-subtree arithmetic stays exact — and so tampering with a
        never-updated leaf (whose content is then no longer zero) is
        still caught.
        """
        if self._leaf_reader is None:
            raise RuntimeError("functional hashing requires a leaf_reader")
        data = self._leaf_reader(leaf_index)
        if not any(data):
            return _ZERO_DIGEST
        return hashlib.sha256(data).digest()

    def _node_digest(self, level: int, index: int) -> bytes:
        """Stored digest of node (level, index), or its level's default."""
        stored = self._nodes.get((level, index))
        if stored is not None:
            return stored
        return self._default_digests[level + 1]

    def _store(self, level: int, index: int, digest: bytes) -> None:
        """Store a node digest and write it through into the parent's
        preimage.  The only writer of ``_nodes``."""
        self._nodes[(level, index)] = digest
        if level + 1 < self.num_levels:
            parent = (level + 1, index // self.arity)
            preimage = self._preimages.get(parent)
            if preimage is None:
                preimage = bytearray(self._default_digests[level + 1] * self.arity)
                self._preimages[parent] = preimage
            offset = (index % self.arity) * _DIGEST_BYTES
            preimage[offset:offset + _DIGEST_BYTES] = digest

    def _level0_digest(self, index: int) -> bytes:
        """Hash level-0 node ``index`` over its leaves' actual bytes.

        Leaves past the protected region (and every leaf of a tree with
        no ``leaf_reader``) count as default.
        """
        base = index * self.arity
        stop = base if self._leaf_reader is None else min(base + self.arity, self._max_leaf)
        leaf = self._leaf_digest
        return hashlib.sha256(
            b"".join([leaf(child) for child in range(base, stop)])
            + _ZERO_DIGEST * (base + self.arity - stop)
        ).digest()

    def _recompute(self, level: int, index: int) -> bytes:
        """Digest of node (level, index) recomputed from its children."""
        if level == 0:
            return self._level0_digest(index)
        preimage = self._preimages.get((level, index))
        if preimage is None:
            return self._default_digests[level + 1]
        return hashlib.sha256(preimage).digest()

    # -- public functional API ---------------------------------------------------

    @property
    def root(self) -> bytes:
        return self._root

    def update_leaf(self, metadata_addr: int) -> None:
        """Re-hash the path after the leaf's content changed."""
        index = self.layout.merkle_leaf_index(metadata_addr)
        self._touched.add(index)
        self.stats.add("leaf_updates")
        arity = self.arity
        preimages = self._preimages
        store = self._store
        index //= arity
        digest = self._level0_digest(index)
        store(0, index, digest)
        for level in range(1, self.num_levels):
            index //= arity
            digest = hashlib.sha256(preimages[(level, index)]).digest()
            store(level, index, digest)
        self._root = digest

    def verify_leaf(self, metadata_addr: int) -> None:
        """Recompute the path and compare against the on-chip root.

        Each level's recomputed digest must equal the stored digest its
        parent's preimage holds.  Raises :class:`IntegrityError` on
        mismatch (tamper/replay).
        """
        index = self.layout.merkle_leaf_index(metadata_addr)
        self.stats.add("verifications")
        if self._leaf_reader is None:
            raise RuntimeError("functional hashing requires a leaf_reader")
        arity = self.arity
        index //= arity
        digest = self._level0_digest(index)
        for level in range(1, self.num_levels):
            offset = (index % arity) * _DIGEST_BYTES
            index //= arity
            preimage = self._preimages.get((level, index))
            if preimage is None:
                stored = self._default_digests[level]
                next_digest = self._default_digests[level + 1]
            else:
                stored = preimage[offset:offset + _DIGEST_BYTES]
                next_digest = hashlib.sha256(preimage).digest()
            if stored != digest:
                self.stats.add("mismatches")
                raise IntegrityError(
                    f"merkle mismatch at level {level} for {metadata_addr:#x}"
                )
            digest = next_digest
        if digest != self._root:
            self.stats.add("mismatches")
            raise IntegrityError(f"root mismatch verifying {metadata_addr:#x}")

    def adopt_nodes(self, nodes: Dict["tuple[int, int]", bytes], touched: Iterable[int]) -> None:
        """Take over another tree's stored nodes and touched leaves (a
        transported DIMM's metadata region); the root follows the
        adopted top node."""
        self._nodes = {}
        self._preimages = {}
        for (level, index), digest in nodes.items():
            self._store(level, index, digest)
        self._touched = set(touched)
        self._root = self._node_digest(self.num_levels - 1, 0)

    # -- fault injection and post-crash integrity scan --------------------------

    def stored_nodes(self) -> List["tuple[int, int]"]:
        """(level, index) of every materialised internal node — the
        node digests that live in the NVM metadata region and therefore
        survive a crash (and are exposed to media faults)."""
        return sorted(self._nodes)

    def flip_node_bit(self, level: int, index: int, bit: int) -> None:
        """Media fault: flip one bit of a stored node digest in place."""
        digest = self._nodes.get((level, index))
        if digest is None:
            raise KeyError(f"no stored node at level={level} index={index}")
        if not 0 <= bit < len(digest) * 8:
            raise ValueError(f"bit index {bit} out of digest range")
        corrupted = bytearray(digest)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        self._store(level, index, bytes(corrupted))

    def flag_poisoned_nodes(self) -> List["tuple[int, int]"]:
        """Scan every stored node against a recompute from its children.

        The reboot path calls this *before* recovered counters are
        installed, while leaf content still matches what the stored
        level-0 digests were computed over — so any mismatch is media
        damage (or tampering) in the node storage itself, never a
        legitimate recovery delta.  The top stored node is additionally
        checked against the on-chip root, which survives power loss
        inside the processor.  Returns the poisoned (level, index) list.
        """
        poisoned = [
            node for node in self.stored_nodes()
            if self._recompute(*node) != self._nodes[node]
        ]
        top = (self.num_levels - 1, 0)
        if top in self._nodes and self._nodes[top] != self._root and top not in poisoned:
            poisoned.append(top)
        if poisoned:
            self.stats.add("poisoned_nodes", len(poisoned))
        return poisoned

    def rebuild_root(self) -> bytes:
        """Recompute every stored node bottom-up (crash recovery path).

        Osiris recovers counters first, then "the Merkle tree can be
        regenerated and verified through the root stored inside the
        processor" — this is that regeneration.
        """
        parents = {index // self.arity for index in self._touched}
        for level in range(self.num_levels):
            next_parents = set()
            for index in parents:
                self._store(level, index, self._recompute(level, index))
                next_parents.add(index // self.arity)
            parents = next_parents
        self._root = self._node_digest(self.num_levels - 1, 0)
        self.stats.add("rebuilds")
        return self._root
