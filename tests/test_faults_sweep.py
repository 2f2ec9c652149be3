"""Systematic crash-point sweeps: the universal no-silent-corruption claim.

One PMEMKV pattern and one DAX micro-workload are swept end to end —
record, replay-to-boundary, crash, reboot, audit — under a mixed fault
plan (partial ADR drain, torn writes, a media bit flip).  The sweep's
own invariant does the heavy lifting; these tests pin it plus the
determinism contract that makes any failure a repro.
"""

from __future__ import annotations

import pytest

from repro.exec import CellExecutionError, ExperimentRunner, resolve_workload
from repro.faults import FAULT_PROFILES, FaultPlan
from repro.faults.sweep import (
    MatrixResult,
    OUTCOME_DETECTED,
    OUTCOME_RECOVERED_NEW,
    OUTCOME_SILENT,
    SweepResult,
    CrashPointResult,
    matrix_configs,
    sweep_matrix,
    sweep_workload,
)
from repro.sim import Machine, MachineConfig, Scheme
from repro.sim.batch import capture_workload
from repro.sim.schemes import CRASH_MATRIX
from repro.sim.trace import TraceRecorder
from repro.workloads.pmemkv import PMEMKV_BENCHMARKS

PLAN = FaultPlan(seed=0xFA11, drain_fraction=0.5, torn_probability=0.5, bit_flips=1)


def run_sweep(name: str, **factory_kw) -> SweepResult:
    return sweep_workload(
        resolve_workload(name, **factory_kw),
        MachineConfig(scheme=Scheme.FSENCR),
        plan=PLAN,
        max_points=4,
        seed=0xFA11,
        name=name,
    )


@pytest.fixture(scope="module")
def dax_sweep() -> SweepResult:
    return run_sweep("DAX-3", iterations=16)


@pytest.fixture(scope="module")
def pmemkv_sweep() -> SweepResult:
    return run_sweep("Fillseq-S", ops=12)


class TestInvariant:
    def test_dax_micro_no_silent_corruption(self, dax_sweep):
        dax_sweep.assert_invariant()
        assert dax_sweep.silent_corruptions == 0
        assert dax_sweep.outcome_totals().get(OUTCOME_SILENT, 0) == 0

    def test_pmemkv_no_silent_corruption(self, pmemkv_sweep):
        pmemkv_sweep.assert_invariant()
        assert pmemkv_sweep.silent_corruptions == 0

    def test_sweep_actually_exercised_faults(self, dax_sweep):
        """The invariant is vacuous unless lines were really at risk."""
        assert len(dax_sweep.points) > 0
        assert dax_sweep.boundaries_total >= len(dax_sweep.points)
        dispositions: dict = {}
        for point in dax_sweep.points:
            for kind, count in point.dispositions.items():
                dispositions[kind] = dispositions.get(kind, 0) + count
        assert dispositions["drained"] > 0
        assert dispositions["dropped"] + dispositions["torn"] > 0
        totals = dax_sweep.outcome_totals()
        assert totals.get(OUTCOME_RECOVERED_NEW, 0) > 0
        assert totals.get(OUTCOME_DETECTED, 0) > 0

    def test_recovery_work_is_accounted(self, pmemkv_sweep):
        for point in pmemkv_sweep.points:
            assert point.recovery_ns > 0
            assert point.recovered_keys >= 1  # the workload's file key


class TestDeterminism:
    def test_identical_sweeps_produce_identical_results(self, dax_sweep):
        again = run_sweep("DAX-3", iterations=16)
        assert again.points == dax_sweep.points
        assert again.boundaries_total == dax_sweep.boundaries_total

    def test_per_point_plans_are_derived_not_shared(self, dax_sweep):
        seeds = [point.plan_seed for point in dax_sweep.points]
        assert len(set(seeds)) == len(seeds)
        assert all(seed != PLAN.seed for seed in seeds)


@pytest.fixture(scope="module")
def matrix() -> MatrixResult:
    return sweep_matrix(
        resolve_workload("Fillseq-S", ops=12),
        MachineConfig(),
        max_points=2,
        seed=0xFA11,
        name="Fillseq-S",
    )


class TestMatrixOnRunner:
    def test_factory_on_pool_runner_equals_serial(self, matrix):
        # A resolved factory pickles, so a callable (not only a name)
        # fans out over worker processes.
        parallel = sweep_matrix(
            resolve_workload("Fillseq-S", ops=12),
            MachineConfig(),
            max_points=2,
            seed=0xFA11,
            name="Fillseq-S",
            runner=ExperimentRunner(jobs=2),
        )
        assert parallel == matrix

    def test_failing_cell_names_its_matrix_column(self):
        # The four FsEncr columns share Scheme.FSENCR; the error must
        # name the column, not the base scheme.
        with pytest.raises(CellExecutionError, match=r"\[sweep fsencr\+anubis/clean\] failed"):
            sweep_matrix(
                "No-Such-Workload",
                schemes=matrix_configs(names=("fsencr+anubis",)),
                profiles={"clean": FaultPlan()},
            )


class TestSchemeMatrix:
    def test_covers_every_scheme_and_profile(self, matrix):
        assert len(matrix.cells) == len(CRASH_MATRIX) * len(FAULT_PROFILES)
        schemes = {scheme for scheme, _ in matrix.cells}
        profiles = {profile for _, profile in matrix.cells}
        assert schemes == set(CRASH_MATRIX)
        assert profiles == set(FAULT_PROFILES)

    def test_no_cell_has_silent_corruption(self, matrix):
        matrix.assert_invariant()
        assert matrix.silent_corruptions == 0

    def test_new_fault_vocabulary_is_exercised(self, matrix):
        burst_cells = [r for (s, p), r in matrix.cells.items() if p == "torn-burst"]
        flip_cells = [r for (s, p), r in matrix.cells.items() if p == "counter-flips"]
        assert sum(
            pt.dispositions.get("torn_bursts", 0) for r in burst_cells for pt in r.points
        ) > 0
        assert sum(
            pt.dispositions.get("metadata_flips", 0) for r in flip_cells for pt in r.points
        ) > 0

    def test_summary_names_every_cell(self, matrix):
        summary = matrix.summary()
        for scheme in CRASH_MATRIX:
            assert scheme in summary
        for profile in FAULT_PROFILES:
            assert profile in summary


class TestStrictStatLookups:
    def test_run_result_stat_raises_on_unknown_key(self):
        machine = Machine(MachineConfig())
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        handle = machine.create_file("/pmem/strict", uid=1000)
        base = machine.mmap(handle, pages=1)
        machine.load(base)
        result = machine.result("strict")
        known = next(k for k in sorted(result.stats) if "." in k)
        assert result.stat(known) == result.stats[known]
        with pytest.raises(KeyError, match="unknown stat"):
            result.stat("machine.no_such_counter")

    def test_stat_counters_strict_accessor(self):
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR))
        stats = machine.controller.stats
        assert stats.stat("ott_refills") == 0  # eagerly declared
        with pytest.raises(KeyError, match="unknown stat"):
            stats.stat("ott_refils")


class TestAssertInvariantMechanism:
    def test_raises_listing_silent_lines(self):
        result = SweepResult(workload="w", scheme="fsencr", seed=1, boundaries_total=1)
        result.points.append(
            CrashPointResult(
                op_index=0,
                plan_seed=1,
                dispositions={},
                outcomes={OUTCOME_SILENT: 1},
                silent_lines=(0x1000,),
                trials=0,
                recovery_ns=0.0,
                recovered_keys=0,
            )
        )
        with pytest.raises(AssertionError, match="0x1000"):
            result.assert_invariant()


#: The PMEMKV patterns and the four DAX micro-benchmarks.
_SWEEP_REACHABLE = (
    [name for name, *_ in PMEMKV_BENCHMARKS]
    + [f"DAX-{i}" for i in range(1, 5)]
)


class TestCapturedOps:
    @pytest.mark.parametrize("name", _SWEEP_REACHABLE)
    def test_capture_stub_ops_equal_recorded_ops(self, name):
        # The sweep takes its op list from the capture stub; a functional
        # run through TraceRecorder must have produced exactly the same.
        factory = resolve_workload(name, ops=8, iterations=8)
        config = MachineConfig(scheme=Scheme.FSENCR, functional=True)
        workload = factory()
        recorder = TraceRecorder(Machine(config), name=workload.name)
        workload.setup(recorder)
        workload.run(recorder)
        workload = factory()
        machine = Machine(config)
        workload.setup(machine)
        captured = capture_workload(machine, workload)
        assert captured is not None
        assert captured.ops == recorder.trace.ops

    def test_uncapturable_workload_is_rejected_by_name(self):
        class ByteWriter:
            name = "ByteWriter"

            def setup(self, machine):
                machine.add_user(uid=1000, gid=100, passphrase="pw")

            def run(self, machine):
                machine.store_bytes(0, bytes(64))  # outside the traced API

        with pytest.raises(ValueError, match="'ByteWriter' is not capturable"):
            sweep_workload(ByteWriter, MachineConfig(scheme=Scheme.FSENCR))


class TestSweepArguments:
    @pytest.mark.parametrize("max_points", [0, -2])
    def test_max_points_below_one_is_rejected(self, max_points):
        # 0 would divide by zero in the boundary sampler; a negative
        # bound would sample no crash point and still report a clean sweep.
        with pytest.raises(ValueError, match="max_points must be >= 1"):
            sweep_workload(resolve_workload("Fillseq-S", ops=12), max_points=max_points)

    def test_whisper_workloads_sweep_by_name(self):
        sweep = sweep_workload(resolve_workload("Hashmap", ops=20), max_points=2, name="Hashmap")
        assert sweep.boundaries_total > 0
        assert len(sweep.points) == 2
        sweep.assert_invariant()
