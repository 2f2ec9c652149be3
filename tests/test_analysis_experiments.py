"""Experiment harnesses: tiny-footprint smoke runs of every figure."""

import pytest

from repro.analysis import (
    figure3_software_encryption,
    figure8_to_10_pmemkv,
    figure11_whisper,
    figure12_to_14_micro,
    figure15_cache_sensitivity,
    render_sensitivity,
)


class TestFigure3:
    def test_rows_and_direction(self):
        table = figure3_software_encryption(ops=250)
        assert len(table.rows) == 3
        assert {row.workload for row in table.rows} == {"YCSB", "Hashmap", "CTree"}
        assert all(row.scheme == "software_encryption" for row in table.rows)
        # Even at tiny scale, software encryption must not win.
        assert table.mean("slowdown") >= 1.0


class TestFigures8to10:
    def test_covers_all_ten_benchmarks(self):
        table = figure8_to_10_pmemkv(ops=60)
        assert len(table.rows) == 10
        names = [row.workload for row in table.rows]
        assert names[0] == "Fillrandom-S" and names[-1] == "Readseq-L"

    def test_all_three_series_present(self):
        table = figure8_to_10_pmemkv(ops=60)
        for row in table.rows:
            assert row.slowdown > 0
            assert row.normalized_reads >= 0
            assert row.normalized_writes >= 0


class TestFigure11:
    def test_rows(self):
        table = figure11_whisper(ops=200)
        assert [row.workload for row in table.rows] == ["YCSB", "Hashmap", "CTree"]
        assert all(row.scheme == "fsencr" for row in table.rows)


class TestFigures12to14:
    def test_rows(self):
        table = figure12_to_14_micro(iterations=500)
        assert [row.workload for row in table.rows] == ["DAX-1", "DAX-2", "DAX-3", "DAX-4"]


class TestFigure15:
    def test_curves_shape(self):
        curves = figure15_cache_sensitivity(
            cache_sizes=[2 * 1024, 8 * 1024],
            pmemkv_ops=60,
            whisper_ops=150,
            micro_iters=500,
        )
        assert set(curves) == {"Fillrandom-L", "Hashmap", "DAX-2"}
        for curve in curves.values():
            assert set(curve) == {2 * 1024, 8 * 1024}

    @pytest.mark.parametrize("scheme", ["baseline_secure", "conventional", "ext4dax_plain"])
    def test_non_fsencr_column_is_rejected(self, scheme):
        # A machine without FsEncr's metadata has no curve to plot: no
        # table of zeros or flat lines.
        with pytest.raises(ValueError, match="FsEncr column"):
            figure15_cache_sensitivity(scheme=scheme, workloads=["Hashmap"])

    def test_render(self):
        curves = {"Hashmap": {2048: 3.5, 8192: 2.1}}
        text = render_sensitivity(curves)
        assert "Hashmap" in text and "2KB" in text and "8KB" in text

    def test_default_sweep_matches_module_constant(self):
        from repro.analysis import FIG15_CACHE_SIZES

        assert FIG15_CACHE_SIZES == sorted(FIG15_CACHE_SIZES)
        assert all(size % 1024 == 0 for size in FIG15_CACHE_SIZES)


class TestTablesRender:
    def test_render_all(self):
        table = figure11_whisper(ops=150)
        text = table.render()
        assert "slowdown" in text and "average" in text
