"""IV layout: packing injectivity and field validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import FILE_DOMAIN, MEMORY_DOMAIN, OTT_DOMAIN, CounterIV, IVLayout


def make_iv(**overrides):
    fields = dict(domain=MEMORY_DOMAIN, page_id=7, page_offset=3, major=1, minor=5)
    fields.update(overrides)
    return CounterIV(**fields)


class TestLayout:
    def test_default_fits_in_block(self):
        assert IVLayout().total_bits <= 128

    def test_oversized_layout_rejected(self):
        with pytest.raises(ValueError):
            IVLayout(page_id_bits=60, major_bits=64)

    def test_domains_distinct(self):
        assert len({MEMORY_DOMAIN, FILE_DOMAIN, OTT_DOMAIN}) == 3


class TestFieldValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("domain", 256),
            ("domain", -1),
            ("page_id", 1 << 40),
            ("page_offset", 64),
            ("major", 1 << 64),
            ("minor", 128),
            ("minor", -1),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_iv(**{field: value})

    def test_max_values_accepted(self):
        make_iv(domain=255, page_id=(1 << 40) - 1, page_offset=63, major=(1 << 64) - 1, minor=127)


class TestPacking:
    def test_pack_is_16_bytes(self):
        assert len(make_iv().pack()) == 16

    def test_pack_deterministic(self):
        assert make_iv().pack() == make_iv().pack()

    @pytest.mark.parametrize("field,a,b", [
        ("domain", MEMORY_DOMAIN, FILE_DOMAIN),
        ("page_id", 1, 2),
        ("page_offset", 0, 1),
        ("major", 0, 1),
        ("minor", 0, 1),
    ])
    def test_each_field_changes_pack(self, field, a, b):
        assert make_iv(**{field: a}).pack() != make_iv(**{field: b}).pack()

    @given(
        page_id=st.integers(0, (1 << 40) - 1),
        page_offset=st.integers(0, 63),
        major=st.integers(0, (1 << 64) - 1),
        minor=st.integers(0, 127),
    )
    @settings(max_examples=50, deadline=None)
    def test_pack_injective_property(self, page_id, page_offset, major, minor):
        """Distinct IVs pack distinctly (spot-checked against a tweak)."""
        iv = make_iv(page_id=page_id, page_offset=page_offset, major=major, minor=minor)
        tweaked = make_iv(
            page_id=page_id,
            page_offset=page_offset,
            major=major,
            minor=(minor + 1) % 128,
        )
        if minor != (minor + 1) % 128:
            assert iv.pack() != tweaked.pack()
