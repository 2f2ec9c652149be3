"""Metadata layout: region carving and Merkle geometry."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem import LINE_SIZE, PAGE_SIZE
from repro.secmem import BonsaiMerkleTree, MetadataLayout


def layout(mb=16, ott_kb=32):
    return MetadataLayout(data_bytes=mb * 1024 * 1024, ott_region_bytes=ott_kb * 1024)


class TestRegions:
    def test_regions_are_ordered_and_disjoint(self):
        lay = layout()
        assert lay.mecb_base == lay.data_bytes
        assert lay.fecb_base == lay.mecb_base + lay.counter_region_bytes
        assert lay.ott_base == lay.fecb_base + lay.counter_region_bytes
        assert lay.merkle_base == lay.ott_base + lay.ott_region_bytes

    def test_counter_region_sizes(self):
        lay = layout(mb=16)
        assert lay.num_pages == 16 * 1024 * 1024 // PAGE_SIZE
        assert lay.counter_region_bytes == lay.num_pages * LINE_SIZE

    def test_one_counter_line_per_page(self):
        lay = layout()
        assert lay.mecb_addr(1) - lay.mecb_addr(0) == LINE_SIZE
        assert lay.fecb_addr(1) - lay.fecb_addr(0) == LINE_SIZE

    def test_mecb_fecb_parallel_arrays(self):
        lay = layout()
        for page in (0, 17, lay.num_pages - 1):
            assert lay.fecb_addr(page) - lay.mecb_addr(page) == lay.counter_region_bytes

    def test_page_bounds_enforced(self):
        lay = layout()
        with pytest.raises(ValueError):
            lay.mecb_addr(-1)
        with pytest.raises(ValueError):
            lay.mecb_addr(lay.num_pages)
        with pytest.raises(ValueError):
            lay.fecb_addr(lay.num_pages)

    def test_ott_slots(self):
        lay = layout(ott_kb=32)
        assert lay.ott_slots == 32 * 1024 // LINE_SIZE
        assert lay.ott_slot_addr(0) == lay.ott_base
        with pytest.raises(ValueError):
            lay.ott_slot_addr(lay.ott_slots)

    @pytest.mark.parametrize("kwargs", [
        dict(data_bytes=4097),
        dict(data_bytes=0, ott_region_bytes=LINE_SIZE),
        dict(data_bytes=PAGE_SIZE, ott_region_bytes=100),
        dict(data_bytes=PAGE_SIZE, merkle_arity=1),
    ])
    def test_invalid_layouts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MetadataLayout(**kwargs)


class TestMerkleGeometry:
    def test_leaves_cover_all_protected_metadata(self):
        lay = layout()
        protected = 2 * lay.counter_region_bytes + lay.ott_region_bytes
        assert lay.merkle_leaves == protected // LINE_SIZE

    def test_leaf_index_bijective_over_regions(self):
        lay = layout()
        assert lay.merkle_leaf_index(lay.mecb_base) == 0
        assert lay.merkle_leaf_index(lay.mecb_base + LINE_SIZE) == 1
        last = lay.merkle_base - LINE_SIZE
        assert lay.merkle_leaf_index(last) == lay.merkle_leaves - 1

    def test_leaf_index_rejects_non_metadata(self):
        lay = layout()
        with pytest.raises(ValueError):
            lay.merkle_leaf_index(0)  # data region
        with pytest.raises(ValueError):
            lay.merkle_leaf_index(lay.merkle_base)  # tree region

    def test_node_addrs_above_merkle_base(self):
        lay = layout()
        assert lay.merkle_node_addr(0, 0) == lay.merkle_base
        assert lay.merkle_node_addr(1, 0) > lay.merkle_node_addr(0, 0)

    def test_node_index_bounds(self):
        lay = layout()
        with pytest.raises(ValueError):
            lay.merkle_node_addr(0, lay.merkle_leaves)  # way out of range
        with pytest.raises(ValueError):
            lay.merkle_node_addr(-1, 0)

    def test_levels_above_the_top_rejected(self):
        lay = MetadataLayout(data_bytes=4 * 1024 * 1024, ott_region_bytes=4096)
        assert lay.merkle_levels == 4
        top = lay.merkle_node_addr(lay.merkle_levels - 1, 0)
        assert top + LINE_SIZE == lay.total_bytes
        for level in (lay.merkle_levels, 7):
            with pytest.raises(ValueError):
                lay.merkle_node_addr(level, 0)

    def test_levels_shrink_by_arity(self):
        lay = layout()
        level0_nodes = -(-lay.merkle_leaves // 8)
        span0 = lay.merkle_node_addr(1, 0) - lay.merkle_node_addr(0, 0)
        assert span0 == level0_nodes * LINE_SIZE

    def test_total_bytes_monotone_in_data(self):
        assert layout(mb=32).total_bytes > layout(mb=16).total_bytes

    def test_paper_scale_tree_depth(self):
        """Table III: 8 in-memory levels for the full 16 GB machine (8-ary)."""
        lay = MetadataLayout(data_bytes=16 * 1024 * 1024 * 1024)
        # leaves = 2*4M pages + OTT slots; ceil(log8(leaves)) == 8 internal
        # levels, the top one being the on-chip root's only child.
        assert lay.merkle_levels == 8


def _ceil_div(a, b):
    return -(-a // b)


def _walked_level(merkle_base, leaves, arity, level):
    """(base, node count) of a level, by the per-call walk up from the
    leaves that the layout used before its geometry was precomputed."""
    base, nodes = merkle_base, _ceil_div(leaves, arity)
    for _ in range(level):
        base += nodes * LINE_SIZE
        nodes = _ceil_div(nodes, arity)
    return base, nodes


def _walked_levels(leaves, arity):
    """Tree depth by both of the former loops; they must agree."""
    layout_levels, nodes = 1, leaves
    while nodes > arity:
        nodes = _ceil_div(nodes, arity)
        layout_levels += 1
    tree_levels, nodes = 0, leaves
    while nodes > 1:
        nodes = _ceil_div(nodes, arity)
        tree_levels += 1
    assert layout_levels == tree_levels
    return tree_levels


def _walked_total_bytes(merkle_base, leaves, arity):
    base, nodes = merkle_base, _ceil_div(leaves, arity)
    while True:
        base += nodes * LINE_SIZE
        if nodes == 1:
            return base
        nodes = _ceil_div(nodes, arity)


class TestPrecomputedGeometry:
    """The fields set at construction equal the former per-call formulas."""

    @given(
        pages=st.one_of(st.integers(1, 8), st.integers(1, 1 << 22)),
        ott_slots=st.one_of(st.integers(0, 8), st.integers(0, 1 << 14)),
        arity=st.integers(2, 16),
        leaf_pick=st.floats(0, 1),
    )
    @example(pages=1, ott_slots=0, arity=2, leaf_pick=1.0)
    @example(pages=2, ott_slots=3, arity=16, leaf_pick=0.5)
    @example(pages=4, ott_slots=0, arity=8, leaf_pick=0.0)
    @settings(max_examples=200, deadline=None)
    def test_fields_match_the_loop_formulas(self, pages, ott_slots, arity, leaf_pick):
        data_bytes = pages * PAGE_SIZE
        ott_bytes = ott_slots * LINE_SIZE
        lay = MetadataLayout(data_bytes=data_bytes, ott_region_bytes=ott_bytes,
                             merkle_arity=arity)
        counter = pages * LINE_SIZE
        merkle_base = data_bytes + 2 * counter + ott_bytes
        leaves = 2 * pages + ott_slots
        assert lay.num_pages == pages
        assert lay.counter_region_bytes == counter
        assert lay.mecb_base == data_bytes
        assert lay.fecb_base == data_bytes + counter
        assert lay.ott_base == data_bytes + 2 * counter
        assert lay.merkle_base == merkle_base
        assert lay.ott_slots == ott_slots
        assert lay.merkle_leaves == leaves

        levels = _walked_levels(leaves, arity)
        assert lay.merkle_levels == levels >= 1
        assert len(lay.merkle_level_bases) == len(lay.merkle_level_nodes) == levels
        for level in range(levels):
            base, nodes = _walked_level(merkle_base, leaves, arity, level)
            assert lay.merkle_level_bases[level] == base
            assert lay.merkle_level_nodes[level] == nodes
            assert lay.merkle_node_addr(level, 0) == base
            assert lay.merkle_node_addr(level, nodes - 1) == base + (nodes - 1) * LINE_SIZE
            with pytest.raises(ValueError):
                lay.merkle_node_addr(level, nodes)
        assert lay.merkle_level_nodes[-1] == 1
        with pytest.raises(ValueError):
            lay.merkle_node_addr(levels, 0)
        assert lay.total_bytes == _walked_total_bytes(merkle_base, leaves, arity)

        tree = BonsaiMerkleTree(lay)
        assert tree.num_levels == levels
        leaf = min(int(leaf_pick * leaves), leaves - 1)
        for index in {0, leaf, leaves - 1}:
            addr = lay.mecb_base + index * LINE_SIZE
            expected = [
                lay.merkle_node_addr(level, index // arity ** (level + 1))
                for level in range(levels)
            ]
            # The second call is served from the per-address memo.
            assert list(tree.path_to_root(addr)) == expected
            assert list(tree.path_to_root(addr)) == expected

    @given(
        pages=st.integers(1, 1 << 20),
        ott_slots=st.integers(0, 1 << 12),
        arity=st.integers(2, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_identity_is_the_constructor_arguments(self, pages, ott_slots, arity):
        args = (pages * PAGE_SIZE, ott_slots * LINE_SIZE, arity)
        lay = MetadataLayout(*args)
        twin = MetadataLayout(*args)
        assert lay == twin and lay is not twin
        assert hash(lay) == hash(twin) == hash(args)
        assert repr(lay) == (
            f"MetadataLayout(data_bytes={args[0]}, ott_region_bytes={args[1]}, "
            f"merkle_arity={arity})"
        )
        assert lay != MetadataLayout(args[0] + PAGE_SIZE, args[1], arity)
        assert dataclasses.replace(lay) == lay
        grown = dataclasses.replace(lay, data_bytes=args[0] + PAGE_SIZE)
        assert grown == MetadataLayout(args[0] + PAGE_SIZE, args[1], arity)
        assert grown.num_pages == pages + 1
        assert grown.merkle_base == lay.merkle_base + PAGE_SIZE + 2 * LINE_SIZE
        init_args = [f.name for f in dataclasses.fields(lay) if f.init]
        assert init_args == ["data_bytes", "ott_region_bytes", "merkle_arity"]
        for f in dataclasses.fields(lay):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lay, f.name, getattr(lay, f.name))
        with pytest.raises(ValueError):
            dataclasses.replace(lay, merkle_base=0)
