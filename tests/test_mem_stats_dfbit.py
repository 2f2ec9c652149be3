"""Stats plumbing and DF-bit address tagging."""

import pytest

from repro.mem import StatCounters, StatsRegistry
from repro.mem.dfbit import (
    DF_BIT_POSITION,
    DF_MASK,
    PHYSICAL_ADDRESS_BITS,
    clear_df,
    has_df,
    set_df,
    strip,
)


class TestStatCounters:
    def test_add_and_get(self):
        s = StatCounters("x")
        s.add("hits")
        s.add("hits", 4)
        assert s.get("hits") == 5
        assert s.get("absent") == 0

    def test_as_dict_prefixes(self):
        s = StatCounters("nvm")
        s.add("reads", 7)
        s.add("bank_conflicts", 2)
        assert list(s.as_dict().items()) == [("nvm.bank_conflicts", 2), ("nvm.reads", 7)]


class TestStatsRegistry:
    def test_create_and_snapshot(self):
        reg = StatsRegistry()
        reg.create("a").add("x", 1)
        reg.create("b").add("y", 2)
        assert reg.snapshot() == {"a.x": 1, "b.y": 2}

    def test_duplicate_rejected(self):
        reg = StatsRegistry()
        reg.create("a")
        with pytest.raises(ValueError):
            reg.create("a")


class TestDfBit:
    def test_position_matches_paper(self):
        """The paper's kernel snippet: (1UL << 51) | pfn."""
        assert DF_BIT_POSITION == 51
        assert DF_MASK == 1 << 51
        assert PHYSICAL_ADDRESS_BITS == 52

    def test_set_then_has(self):
        assert has_df(set_df(0x1234))
        assert not has_df(0x1234)

    def test_clear_and_strip(self):
        tagged = set_df(0x1234)
        assert clear_df(tagged) == 0x1234
        assert strip(tagged) == 0x1234
        assert strip(0x1234) == 0x1234

    def test_set_idempotent(self):
        assert set_df(set_df(0x10)) == set_df(0x10)

    def test_address_payload_untouched(self):
        addr = 0xDEAD_BEEF_000
        assert strip(set_df(addr)) == addr

    @pytest.mark.parametrize("bad", [-1, 1 << 52, 1 << 60])
    def test_out_of_space_rejected(self, bad):
        for fn in (set_df, clear_df, has_df, strip):
            with pytest.raises(ValueError):
                fn(bad)

    def test_df_bit_above_usable_memory(self):
        """Half the 52-bit space remains addressable with the DF tag."""
        top_usable = (1 << 51) - 1
        assert set_df(top_usable) < (1 << 52)
