"""Benchmark workloads: they run, produce traffic, and replay exactly."""

import pytest

from repro.sim import MachineConfig, Scheme
from repro.workloads import (
    DAX_MICRO_BENCHMARKS,
    PMEMKV_BENCHMARKS,
    WHISPER_BENCHMARKS,
    compare_schemes,
    make_dax_micro,
    make_pmemkv_workload,
    make_whisper_workload,
    run_workload,
)

SMALL = dict(ops=120)
CFG = MachineConfig(scheme=Scheme.FSENCR)


class TestFactories:
    def test_all_pmemkv_names_resolve(self):
        for name, _cls, size in PMEMKV_BENCHMARKS:
            w = make_pmemkv_workload(name, ops=10)
            assert w.name == name
            assert w.value_size == size

    def test_all_whisper_names_resolve(self):
        for name, _cls in WHISPER_BENCHMARKS:
            assert make_whisper_workload(name, ops=10).name == name

    def test_all_micro_names_resolve(self):
        for name, _cls in DAX_MICRO_BENCHMARKS:
            assert make_dax_micro(name, iterations=10).name == name

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            make_pmemkv_workload("nope")
        with pytest.raises(KeyError):
            make_whisper_workload("nope")
        with pytest.raises(KeyError):
            make_dax_micro("nope")

    def test_value_size_suffix(self):
        assert make_pmemkv_workload("Fillseq-S").value_size == 64
        assert make_pmemkv_workload("Fillseq-L").value_size == 4096


class TestRunability:
    @pytest.mark.parametrize("name", [n for n, _, _ in PMEMKV_BENCHMARKS])
    def test_pmemkv_benchmarks_run(self, name):
        result = run_workload(CFG, make_pmemkv_workload(name, ops=40))
        assert result.elapsed_ns > 0
        assert result.workload == name

    @pytest.mark.parametrize("name", [n for n, _ in WHISPER_BENCHMARKS])
    def test_whisper_benchmarks_run(self, name):
        result = run_workload(CFG, make_whisper_workload(name, ops=100))
        assert result.elapsed_ns > 0

    @pytest.mark.parametrize("name", [n for n, _ in DAX_MICRO_BENCHMARKS])
    def test_micro_benchmarks_run(self, name):
        result = run_workload(CFG, make_dax_micro(name, iterations=300))
        assert result.elapsed_ns > 0
        assert result.nvm_reads > 0

    def test_all_schemes_run_one_workload(self):
        for scheme in Scheme:
            result = run_workload(
                CFG.with_scheme(scheme), make_whisper_workload("Hashmap", ops=60)
            )
            assert result.scheme == scheme.value
            assert result.elapsed_ns > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_workload(CFG, make_pmemkv_workload("Fillrandom-S", ops=60, seed=5))
        b = run_workload(CFG, make_pmemkv_workload("Fillrandom-S", ops=60, seed=5))
        assert a.elapsed_ns == b.elapsed_ns
        assert a.nvm_reads == b.nvm_reads
        assert a.nvm_writes == b.nvm_writes

    def test_different_seed_different_order(self):
        a = run_workload(CFG, make_pmemkv_workload("Fillrandom-S", ops=60, seed=5))
        b = run_workload(CFG, make_pmemkv_workload("Fillrandom-S", ops=60, seed=6))
        assert a.elapsed_ns != b.elapsed_ns

    def test_micro_determinism(self):
        a = run_workload(CFG, make_dax_micro("DAX-3", iterations=200))
        b = run_workload(CFG, make_dax_micro("DAX-3", iterations=200))
        assert a.elapsed_ns == b.elapsed_ns


class TestCompareSchemes:
    def test_comparison_runs_and_names_match(self):
        cmp = compare_schemes(
            lambda: make_whisper_workload("Hashmap", ops=80),
            schemes=(Scheme.BASELINE_SECURE, Scheme.FSENCR),
        )
        row = cmp.against(Scheme.BASELINE_SECURE, Scheme.FSENCR)
        assert row.workload == "Hashmap"
        assert row.slowdown > 0

    def test_fsencr_never_faster_than_baseline_on_writes(self):
        cmp = compare_schemes(
            lambda: make_whisper_workload("Hashmap", ops=150),
            schemes=(Scheme.BASELINE_SECURE, Scheme.FSENCR),
        )
        row = cmp.against(Scheme.BASELINE_SECURE, Scheme.FSENCR)
        assert row.slowdown >= 1.0
        assert row.normalized_writes >= 1.0

    def test_empty_schemes_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compare_schemes(lambda: make_whisper_workload("Hashmap", ops=10), schemes=())
