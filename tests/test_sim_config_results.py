"""Machine configuration and result/record arithmetic."""

import json
import pickle

import pytest

from repro.mem.cache import CacheConfig
from repro.mem.nvm import NVMTiming
from repro.mem.wpq import WPQConfig
from repro.secmem.metadata_cache import MetadataCacheConfig
from repro.sim import Comparison, MachineConfig, ResultTable, RunResult, Scheme
from repro.sim.config import SCALE_FACTOR, scaled_hierarchy


class TestScheme:
    def test_dax_usage(self):
        assert not Scheme.FSENCR.uses_page_cache
        assert not Scheme.EXT4DAX_PLAIN.uses_page_cache
        assert not Scheme.BASELINE_SECURE.uses_page_cache
        assert Scheme.SOFTWARE_ENCRYPTION.uses_page_cache

    def test_file_encryption_flag(self):
        assert Scheme.FSENCR.has_file_encryption
        assert Scheme.SOFTWARE_ENCRYPTION.has_file_encryption
        assert not Scheme.BASELINE_SECURE.has_file_encryption
        assert not Scheme.EXT4DAX_PLAIN.has_file_encryption


class TestMachineConfig:
    def test_default_scaling(self):
        cfg = MachineConfig()
        assert cfg.hierarchy.l3.size_bytes == 4 * 1024 * 1024 // SCALE_FACTOR
        assert cfg.metadata_cache.size_bytes == 512 * 1024 // SCALE_FACTOR

    def test_paper_scale_restores_table3(self):
        cfg = MachineConfig.paper_scale()
        assert cfg.hierarchy.l1.size_bytes == 32 * 1024
        assert cfg.hierarchy.l3.size_bytes == 4 * 1024 * 1024
        assert cfg.metadata_cache.size_bytes == 512 * 1024

    def test_with_scheme_preserves_rest(self):
        cfg = MachineConfig(aes_latency_ns=55.0)
        other = cfg.with_scheme(Scheme.BASELINE_SECURE)
        assert other.scheme is Scheme.BASELINE_SECURE
        assert other.aes_latency_ns == 55.0

    def test_with_metadata_cache(self):
        cfg = MachineConfig().with_metadata_cache(64 * 1024)
        assert cfg.metadata_cache.size_bytes == 64 * 1024

    def test_controller_config_propagates(self):
        cfg = MachineConfig(aes_latency_ns=99.0, stop_loss=7, functional=True)
        ctl_cfg = cfg.controller_config()
        assert ctl_cfg.aes_latency_ns == 99.0
        assert ctl_cfg.stop_loss == 7
        assert ctl_cfg.functional

    @pytest.mark.parametrize("kwargs", [
        dict(pmem_base=100),
        dict(pmem_bytes=100),
        dict(pmem_base=512 * 1024 * 1024, pmem_bytes=128 * 1024 * 1024),
        dict(write_contention_factor=1.5),
        dict(stop_loss=0),
        dict(aes_latency_ns=-5.0),
        dict(aes_latency_ns=float("nan")),
        dict(page_cache_pages=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)

    @pytest.mark.parametrize("build", [
        lambda: CacheConfig("l1", 32 * 1024, ways=0),
        lambda: CacheConfig("l1", 32 * 1024, ways=8, line_size=0),
        lambda: CacheConfig("l1", 32 * 1024, ways=8, hit_latency=-1.0),
        lambda: CacheConfig("l1", 32 * 1024, ways=8, hit_latency=float("nan")),
        lambda: MetadataCacheConfig(ways=0),
        lambda: MetadataCacheConfig(line_size=0),
        lambda: MetadataCacheConfig(hit_latency=-3.0),
        lambda: MetadataCacheConfig(hit_latency=float("nan")),
        lambda: NVMTiming(read_ns=-60.0),
        lambda: NVMTiming(write_ns=float("nan")),
        lambda: NVMTiming(t_cl_ns=float("nan")),
        lambda: WPQConfig(accept_ns=-30.0),
        lambda: WPQConfig(accept_ns=float("nan")),
        lambda: WPQConfig(drain_ns_per_entry=0.0),
        lambda: WPQConfig(drain_ns_per_entry=float("nan")),
    ], ids=[
        "cache-ways-0", "cache-line-0", "cache-latency-negative", "cache-latency-nan",
        "mdc-ways-0", "mdc-line-0", "mdc-latency-negative", "mdc-latency-nan",
        "nvm-read-negative", "nvm-write-nan", "nvm-tcl-nan",
        "wpq-accept-negative", "wpq-accept-nan", "wpq-drain-0", "wpq-drain-nan",
    ])
    def test_nested_config_validation(self, build):
        """A nonsense nested config fails at construction, not as a
        ZeroDivisionError or a NaN clock deep inside a run."""
        with pytest.raises(ValueError):
            build()

    def test_table3_timing_defaults(self):
        cfg = MachineConfig()
        assert cfg.nvm_timing.read_ns == 60.0
        assert cfg.nvm_timing.write_ns == 150.0
        assert cfg.aes_latency_ns == 40.0


def run(workload="w", scheme="fsencr", ns=200.0, reads=20, writes=10):
    return RunResult(workload=workload, scheme=scheme, elapsed_ns=ns, nvm_reads=reads, nvm_writes=writes)


class TestComparison:
    def test_ratios(self):
        c = Comparison.of(run(ns=220, reads=22, writes=11), run(scheme="base", ns=200))
        assert c.slowdown == pytest.approx(1.1)
        assert c.normalized_reads == pytest.approx(1.1)
        assert c.normalized_writes == pytest.approx(1.1)
        assert c.overhead_percent == pytest.approx(10.0)

    def test_zero_baseline(self):
        c = Comparison.of(run(writes=5), run(scheme="b", writes=0))
        assert c.normalized_writes == float("inf")
        c2 = Comparison.of(run(writes=0), run(scheme="b", writes=0))
        assert c2.normalized_writes == 0.0
        # Time is different: a baseline that took none normalises nothing.
        with pytest.raises(ValueError, match="slowdown needs elapsed time"):
            Comparison.of(run(ns=0), run(scheme="b", ns=0))

    def test_workload_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Comparison.of(run(workload="a"), run(workload="b"))


class TestResultTable:
    def make_table(self):
        table = ResultTable("test")
        table.add(Comparison.of(run(ns=220), run(scheme="b", ns=200)))
        table.add(Comparison.of(run(workload="w2", ns=150), run(workload="w2", scheme="b", ns=100)))
        return table

    def test_mean(self):
        assert self.make_table().mean("slowdown") == pytest.approx((1.1 + 1.5) / 2)

    def test_geometric_mean(self):
        gm = self.make_table().geometric_mean("slowdown")
        assert gm == pytest.approx((1.1 * 1.5) ** 0.5)

    def test_render_contains_rows_and_average(self):
        text = self.make_table().render()
        assert "w2" in text and "average" in text and "1.500" in text

    def test_save_json(self, tmp_path):
        path = tmp_path / "out.json"
        self.make_table().save_json(path, extra={"note": "x"})
        payload = json.loads(path.read_text())
        assert payload["title"] == "test"
        assert len(payload["rows"]) == 2
        assert payload["note"] == "x"

    def test_empty_table_means(self):
        table = ResultTable("empty")
        assert table.mean() == 0.0
        assert table.geometric_mean() == 0.0


class TestRunResultSerde:
    def test_roundtrip(self):
        # A pool worker hands its results back by pickle.
        r = run()
        r.stats["nvm.reads"] = 20
        assert pickle.loads(pickle.dumps(r)) == r
        assert json.loads(json.dumps(r.to_dict()))["stats"] == r.stats
