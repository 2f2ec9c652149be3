"""Address arithmetic and the RoRaBaChCo device map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SIZE,
    AddressMap,
    line_address,
    page_number,
    page_offset_lines,
)


class TestLinePageMath:
    def test_line_address_aligns_down(self):
        assert line_address(0) == 0
        assert line_address(63) == 0
        assert line_address(64) == 64
        assert line_address(130) == 128

    def test_page_number(self):
        assert page_number(0) == 0
        assert page_number(PAGE_SIZE - 1) == 0
        assert page_number(PAGE_SIZE) == 1

    def test_page_offset_lines(self):
        assert page_offset_lines(0) == 0
        assert page_offset_lines(64) == 1
        assert page_offset_lines(PAGE_SIZE - 1) == LINES_PER_PAGE - 1

    def test_constants_consistent(self):
        assert LINES_PER_PAGE * LINE_SIZE == PAGE_SIZE

    @given(addr=st.integers(0, 2**48))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_property(self, addr):
        reconstructed = page_number(addr) * PAGE_SIZE + page_offset_lines(addr) * LINE_SIZE
        assert reconstructed == line_address(addr)


class TestAddressMap:
    def test_defaults_match_table3(self):
        amap = AddressMap()
        assert amap.ranks_per_channel == 2
        assert amap.banks_per_rank == 8
        assert amap.row_buffer_bytes == 1024

    def test_total_banks(self):
        assert AddressMap().total_banks == 16
        assert AddressMap(channels=2).total_banks == 32

    def test_sequential_lines_same_row(self):
        amap = AddressMap()
        first = amap.decompose(0)
        second = amap.decompose(64)
        assert first.row == second.row
        assert (first.channel, first.rank, first.bank) == (second.channel, second.rank, second.bank)
        assert second.column == first.column + 1

    def test_row_crossing_changes_coordinates(self):
        amap = AddressMap()
        last_in_row = amap.decompose(1024 - 64)
        next_line = amap.decompose(1024)
        before = (last_in_row.row, last_in_row.channel, last_in_row.rank, last_in_row.bank)
        after = (next_line.row, next_line.channel, next_line.rank, next_line.bank)
        assert before != after or next_line.column == 0

    def test_bank_interleave_above_column_bits(self):
        """RoRaBaChCo: the bank changes once the row-buffer span is crossed."""
        amap = AddressMap(channels=1)
        a = amap.decompose(0)
        b = amap.decompose(1024)  # next row-buffer-sized chunk
        assert b.bank == (a.bank + 1) % amap.banks_per_rank

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            AddressMap().decompose(-1)

    @pytest.mark.parametrize("kwargs", [
        dict(channels=3),
        dict(banks_per_rank=0),
        dict(row_buffer_bytes=96),
        dict(row_buffer_bytes=32),  # smaller than a line
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AddressMap(**kwargs)

    @given(addr=st.integers(0, 2**40))
    @settings(max_examples=50, deadline=None)
    def test_decompose_fields_in_range(self, addr):
        amap = AddressMap(channels=2)
        coord = amap.decompose(addr)
        assert 0 <= coord.channel < amap.channels
        assert 0 <= coord.rank < amap.ranks_per_channel
        assert 0 <= coord.bank < amap.banks_per_rank
        assert 0 <= coord.column < amap.columns_per_row

    @given(a=st.integers(0, 2**30), b=st.integers(0, 2**30))
    @settings(max_examples=50, deadline=None)
    def test_decompose_injective_on_lines(self, a, b):
        amap = AddressMap()
        la, lb = line_address(a), line_address(b)
        ca, cb = amap.decompose(la), amap.decompose(lb)
        if la != lb:
            assert (ca.channel, ca.rank, ca.bank, ca.row, ca.column) != (
                cb.channel, cb.rank, cb.bank, cb.row, cb.column
            )
