"""Bonsai Merkle tree: path geometry, tamper detection, rebuild."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import LINE_SIZE
from repro.secmem import BonsaiMerkleTree, IntegrityError, MetadataLayout
from repro.secmem.merkle import _ZERO_DIGEST


@pytest.fixture
def small_setup():
    layout = MetadataLayout(data_bytes=4 * 1024 * 1024, ott_region_bytes=4096)
    leaves = {}

    def reader(index):
        return leaves.get(index, bytes(LINE_SIZE))

    tree = BonsaiMerkleTree(layout, leaf_reader=reader)
    return layout, leaves, tree


class TestGeometry:
    def test_path_is_leaf_side_first(self, small_setup):
        layout, _, tree = small_setup
        path = list(tree.path_to_root(layout.mecb_base))
        assert path == sorted(path) or len(path) == len(set(path))
        assert len(path) == tree.num_levels

    def test_sibling_leaves_share_path(self, small_setup):
        layout, _, tree = small_setup
        a = tree.path_to_root(layout.mecb_base)
        b = tree.path_to_root(layout.mecb_base + LINE_SIZE)
        assert a == b  # siblings under the same level-0 parent

    def test_distant_leaves_converge(self, small_setup):
        layout, _, tree = small_setup
        a = tree.path_to_root(layout.mecb_base)
        b = tree.path_to_root(layout.merkle_base - LINE_SIZE)
        assert a[-1] == b[-1]  # same top node
        assert a[0] != b[0]

    def test_non_metadata_address_rejected(self, small_setup):
        _, _, tree = small_setup
        with pytest.raises(ValueError):
            tree.path_to_root(0)


class TestFunctionalIntegrity:
    def test_verify_default_leaf(self, small_setup):
        layout, _, tree = small_setup
        tree.verify_leaf(layout.mecb_base)  # untouched leaf verifies

    def test_update_then_verify(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        tree.verify_leaf(layout.mecb_base)

    def test_root_changes_on_update(self, small_setup):
        layout, leaves, tree = small_setup
        before = tree.root
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        assert tree.root != before

    def test_tamper_detected(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x22" * LINE_SIZE  # tamper without update
        with pytest.raises(IntegrityError):
            tree.verify_leaf(layout.mecb_base)

    def test_replay_detected(self, small_setup):
        """Restoring an old value after a newer update must fail —
        the replay attack counter-mode cannot survive."""
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x22" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x11" * LINE_SIZE  # replay the old value
        with pytest.raises(IntegrityError):
            tree.verify_leaf(layout.mecb_base)

    def test_sibling_tamper_detected(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[1] = b"\x99" * LINE_SIZE  # tamper an untouched sibling
        with pytest.raises(IntegrityError):
            tree.verify_leaf(layout.mecb_base + LINE_SIZE)

    def test_independent_subtrees_unaffected(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        far = layout.merkle_base - LINE_SIZE
        tree.verify_leaf(far)  # distant default leaf still verifies

    def test_requires_leaf_reader_for_hashing(self):
        layout = MetadataLayout(data_bytes=4 * 1024 * 1024, ott_region_bytes=4096)
        tree = BonsaiMerkleTree(layout)  # no reader
        tree2 = BonsaiMerkleTree(layout)
        assert tree.root == tree2.root  # geometry-only trees agree
        with pytest.raises(RuntimeError):
            tree._leaf_digest(0)


class TestRebuild:
    def test_rebuild_preserves_valid_state(self, small_setup):
        layout, leaves, tree = small_setup
        for i in range(5):
            leaves[i] = bytes([i + 1]) * LINE_SIZE
            tree.update_leaf(layout.mecb_base + i * LINE_SIZE)
        before = tree.root
        assert tree.rebuild_root() == before

    def test_rebuild_after_out_of_band_changes(self, small_setup):
        """Crash recovery: counters recovered by Osiris changed leaf
        content; rebuild recomputes a consistent root."""
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x22" * LINE_SIZE  # recovered to a newer value
        tree.rebuild_root()
        tree.verify_leaf(layout.mecb_base)

    def test_stats_counted(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        tree.verify_leaf(layout.mecb_base)
        assert tree.stats.get("leaf_updates") == 1
        assert tree.stats.get("verifications") == 1


@pytest.mark.parametrize("bit", [-1, 256])
def test_flip_node_bit_outside_digest_rejected(small_setup, bit):
    layout, leaves, tree = small_setup
    leaves[0] = b"\x11" * LINE_SIZE
    tree.update_leaf(layout.mecb_base)
    with pytest.raises(ValueError):
        tree.flip_node_bit(0, 0, bit)
    assert tree.flag_poisoned_nodes() == []


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class ReferenceTree:
    """The tree recomputed the plain way: every node hashes the join of
    its children's digests, read afresh at every level."""

    def __init__(self, layout, reader):
        self.layout, self.reader = layout, reader
        self.arity, self.levels = layout.merkle_arity, layout.merkle_levels
        self.nodes, self.touched = {}, set()
        self.defaults = [_ZERO_DIGEST]
        for _ in range(self.levels):
            self.defaults.append(_sha(self.defaults[-1] * self.arity))
        self.root = self.defaults[-1]

    def leaf(self, index):
        data = self.reader(index)
        return _sha(data) if any(data) else _ZERO_DIGEST

    def node(self, level, index):
        return self.nodes.get((level, index), self.defaults[level + 1])

    def children(self, level, index):
        kids = range(index * self.arity, (index + 1) * self.arity)
        if level == 0:
            return [self.leaf(k) if k < self.layout.merkle_leaves else _ZERO_DIGEST for k in kids]
        return [self.node(level - 1, k) for k in kids]

    def recompute(self, level, index):
        return _sha(b"".join(self.children(level, index)))

    def update_leaf(self, addr):
        index = self.layout.merkle_leaf_index(addr)
        self.touched.add(index)
        for level in range(self.levels):
            index //= self.arity
            self.nodes[(level, index)] = self.recompute(level, index)
        self.root = self.node(self.levels - 1, 0)

    def verify_leaf(self, addr):
        index = self.layout.merkle_leaf_index(addr)
        digest = self.leaf(index)
        for level in range(self.levels):
            slot, index = index % self.arity, index // self.arity
            kids = self.children(level, index)
            if kids[slot] != digest:
                raise IntegrityError(f"merkle mismatch at level {level} for {addr:#x}")
            digest = _sha(b"".join(kids))
        if digest != self.root:
            raise IntegrityError(f"root mismatch verifying {addr:#x}")

    def flip_node_bit(self, level, index, bit):
        corrupted = bytearray(self.nodes[(level, index)])
        corrupted[bit // 8] ^= 1 << (bit % 8)
        self.nodes[(level, index)] = bytes(corrupted)

    def flag_poisoned_nodes(self):
        poisoned = [n for n in sorted(self.nodes) if self.recompute(*n) != self.nodes[n]]
        top = (self.levels - 1, 0)
        if top in self.nodes and self.nodes[top] != self.root and top not in poisoned:
            poisoned.append(top)
        return poisoned

    def rebuild_root(self):
        parents = {index // self.arity for index in self.touched}
        for level in range(self.levels):
            for index in parents:
                self.nodes[(level, index)] = self.recompute(level, index)
            parents = {index // self.arity for index in parents}
        self.root = self.node(self.levels - 1, 0)
        return self.root


_LAYOUT = MetadataLayout(data_bytes=4 * 1024 * 1024, ott_region_bytes=4096)
#: Sibling groups at the region's start, a level-1 boundary, and the
#: last leaves (whose level-0 group is cut short by the region's end).
_LEAVES = [0, 1, 2, 7, 8, 9, 63, 64, 65, 1000, _LAYOUT.merkle_leaves - 2, _LAYOUT.merkle_leaves - 1]
_STEP = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(_LEAVES), st.integers(0, 3)),
    st.tuples(st.just("tamper"), st.sampled_from(_LEAVES), st.integers(0, 3)),
    st.tuples(st.just("update"), st.sampled_from(_LEAVES)),
    st.tuples(st.just("verify"), st.sampled_from(_LEAVES)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 255)),
    st.tuples(st.just("rebuild")),
    st.tuples(st.just("reseed")),
    st.tuples(st.just("poison")),
)


def _outcome(call):
    try:
        return ("ok", call())
    except IntegrityError as exc:
        return ("integrity", str(exc))


@given(steps=st.lists(_STEP, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_matches_reference_recompute(steps):
    """The preimage tree and the recompute-every-level tree agree after
    every step: root, stored digests, poisoned lists and the first
    IntegrityError's message; and a fresh tree rebuilt in one pass over
    the touched leaves equals one updated leaf by leaf."""
    layout = _LAYOUT
    leaves = {}

    def reader(index):
        return leaves.get(index, bytes(LINE_SIZE))

    tree = BonsaiMerkleTree(layout, leaf_reader=reader)
    ref = ReferenceTree(layout, reader)
    for step in steps:
        op = step[0]
        if op in ("write", "tamper"):
            leaves[step[1]] = bytes([step[2]]) * LINE_SIZE
        if op in ("write", "update"):
            addr = layout.mecb_base + step[1] * LINE_SIZE
            assert _outcome(lambda: tree.update_leaf(addr)) == _outcome(lambda: ref.update_leaf(addr))
        elif op == "verify":
            addr = layout.mecb_base + step[1] * LINE_SIZE
            assert _outcome(lambda: tree.verify_leaf(addr)) == _outcome(lambda: ref.verify_leaf(addr))
        elif op == "flip" and ref.nodes:
            node = sorted(ref.nodes)[step[1] % len(ref.nodes)]
            tree.flip_node_bit(*node, step[2])
            ref.flip_node_bit(*node, step[2])
        elif op == "rebuild":
            assert tree.rebuild_root() == ref.rebuild_root()
        elif op == "reseed":
            # The reboot path: a fresh tree seeded with the touched leaves
            # and rebuilt in one pass equals one built leaf by leaf.
            seeded = BonsaiMerkleTree(layout, leaf_reader=reader, touched=ref.touched)
            per_leaf = BonsaiMerkleTree(layout, leaf_reader=reader)
            for index in sorted(ref.touched):
                per_leaf.update_leaf(layout.mecb_base + index * LINE_SIZE)
            assert seeded.rebuild_root() == per_leaf.root
            assert {n: seeded._node_digest(*n) for n in seeded.stored_nodes()} == {
                n: per_leaf._node_digest(*n) for n in per_leaf.stored_nodes()
            }
        elif op == "poison":
            assert tree.flag_poisoned_nodes() == ref.flag_poisoned_nodes()
        assert tree.root == ref.root
        assert tree.stored_nodes() == sorted(ref.nodes)
        assert {n: tree._node_digest(*n) for n in tree.stored_nodes()} == ref.nodes
