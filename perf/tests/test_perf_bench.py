"""Checks of the benchmark itself, on shrunken workloads (the gate test
at the top runs the real seed-0 grid and crash matrix).

    PYTHONPATH=src python -m pytest perf/tests -q
"""

import dataclasses
import json
import math
import re

import pytest

import bench
import tracing
from repro.faults.plan import FAULT_PROFILES
from repro.workloads.base import StreamSpec

BENCHMARK = json.loads((bench.PERF_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_seed0_matches_batchcheck_and_crash_smoke(tmp_path, monkeypatch):
    """The pinned gates, re-derived: seed 0 reproduces every
    ``batchcheck`` digest, and seed 0's first crash matrix (the CI
    smoke's, at seed 7) has no silent corruption."""
    from repro import cli

    report = tmp_path / "batchcheck.json"
    assert cli.main(["batchcheck", "--reps", "1", "--json", str(report)]) == 0
    expected = {
        cell: row["digest"] for cell, row in json.loads(report.read_text())["cells"].items()
    }
    grid = bench.SUITES["grid-reference"]
    _seconds, records, failures = bench.run_pass(grid, grid.cells(0))
    assert not failures
    assert {label: rec.digest for label, rec in records.items()} == expected

    assert bench.crash_seeds(0)[0] == 7
    monkeypatch.setattr(bench, "CRASH_SWEEP_SEEDS", 1)
    crash = bench.SUITES["crashsweep"]
    _seconds, records, failures = bench.run_pass(crash, crash.cells(0))
    assert not failures
    assert sum(len(rec.data["recovery_ns"]) for rec in records.values()) == 24
    assert crash.audit(0, records) == (0, [])


def _shrink(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(bench, "SETUP_PROBES", 1)
    mp.setattr(bench, "GRID_SIZES", {"DAX-1": 200, "Fillseq-S": 40, "Hashmap": 120})
    mp.setattr(bench, "LOAD_MIX", StreamSpec("Fillseq-S", count=3, ops=30, seed=1234))
    mp.setattr(bench, "LOAD_RATES_MOPS", (9, 18))
    mp.setattr(bench, "CRASH_POINTS", 1)
    mp.setattr(bench, "CRASH_SWEEP_SEEDS", 1)
    mp.setattr(bench, "FAULT_PROFILES", {"mixed": FAULT_PROFILES["mixed"]})


@pytest.fixture
def tiny():
    with pytest.MonkeyPatch.context() as mp:
        _shrink(mp)
        yield


def _entry_points():
    """Every attribute the tracer or the call counter replaces."""
    found = {}
    for targets in tracing.LAYERS.values():
        for target in targets:
            owner, attr = tracing._resolve(target)
            found[target] = vars(owner)[attr]
    layout = tracing.counted_class()
    found.update((f"layout.{k}", v) for k, v in vars(layout).items())
    return found


@pytest.fixture(scope="module")
def runs():
    """One measured and one traced run of every shrunken workload."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        _shrink(mp)
        for name, suite in bench.SUITES.items():
            before = _entry_points()
            measured = bench.measure(suite, seed=0, seconds=0)
            traced = bench.traced_run(suite, seed=0)
            after = _entry_points()
            restored = before.keys() == after.keys() and all(
                after[key] is value for key, value in before.items()
            )
            out[name] = (measured, traced, restored)
    return out


def test_benchmark_json_names_workloads_and_bounds():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.SUITES)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_metric_is_emitted_with_its_unit(runs):
    emitted_sim = set()
    for name, (measured, traced, _restored) in runs.items():
        line = measured.result_line()
        assert line["correct"] and line["failed"] == 0, (name, measured.failures)
        assert {k: v["unit"] for k, v in line["metrics"].items()} == bench.END_TO_END_UNITS
        assert all(v["value"] > 0 for v in line["metrics"].values()), name
        line = traced.result_line()
        assert line["correct"], (name, traced.failures)
        assert {k: v["unit"] for k, v in line["metrics"].items()} == bench.PER_LAYER_UNITS
        emitted_sim.update(traced.detail["sim"])
    # Every simulated value the catalogue lists is produced by a workload.
    assert emitted_sim == {k for k in bench.PER_LAYER_UNITS if k.startswith("sim.")}


def test_traced_run_reproduces_the_untraced_run_and_unwraps(runs):
    for name, (measured, traced, restored) in runs.items():
        assert traced.digests == measured.digests, name
        assert traced.detail["sim"] == measured.detail["sim"], name
        assert restored, name
        assert traced.metrics["trace_overhead"][0] > 0


def test_a_stale_entry_point_fails_the_traced_run(monkeypatch):
    before = _entry_points()
    layers = dict(tracing.LAYERS, **{"mem.nvm": ("repro.mem.nvm:NVMDevice.renamed",)})
    monkeypatch.setattr(tracing, "LAYERS", layers)
    with pytest.raises(LookupError, match="NVMDevice.renamed"):
        with tracing.Tracer():
            pass
    monkeypatch.undo()
    after = _entry_points()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_and_outside_time_add_up_to_the_traced_run(runs):
    for name, (_measured, traced, _restored) in runs.items():
        self_s = sum(value for key, (value, _unit) in traced.metrics.items()
                     if key.startswith("host_self_s."))
        total = self_s + traced.metrics["host_outside_s"][0]
        assert math.isclose(total, traced.detail["traced_s"], rel_tol=0.01), name


def test_the_seed_determines_the_digests(runs, tiny):
    for name, suite in bench.SUITES.items():
        _seconds, records, failures = bench.run_pass(suite, suite.cells(1))
        assert not failures
        seed1 = {label: rec.digest for label, rec in records.items()}
        assert seed1.keys() == runs[name][0].digests.keys()
        assert seed1 != runs[name][0].digests, name


def test_compare_counts_a_dead_run_as_missing(capsys):
    import compare

    def report(run):
        return {
            "seed": 0,
            "workloads": {
                w["name"]: {"runs": [run, run], "traced": {"metrics": {}, "digests": {"c": "d"}}}
                for w in BENCHMARK["workloads"]
            },
        }

    metrics = {m["name"]: {"value": 1.0} for m in BENCHMARK["end_to_end"]}
    good = report({"metrics": metrics, "digests": {"c": "d"}})
    dead = report({"metrics": {}})  # what run.py records for a process that died
    assert compare.compare(good, good, BENCHMARK) == 0
    assert compare.compare(good, dead, BENCHMARK) == 1
    assert "missing in B" in capsys.readouterr().out


def test_an_executor_mismatch_fails_the_run(tiny, monkeypatch):
    cells = bench.GridSuite.cells

    def diverging(self, seed):
        if not self.batched:
            return cells(self, seed)
        return [
            (label, lambda state, run=run: dataclasses.replace(run(state), digest="x"))
            for label, run in cells(self, seed)
        ]

    monkeypatch.setattr(bench.GridSuite, "cells", diverging)
    outcome = bench.measure(bench.SUITES["grid-reference"], seed=0, seconds=0)
    line = outcome.result_line()
    assert not line["correct"]
    assert line["failed"] == len(bench.GRID_CELLS)
    assert 0 < line["failed"] / line["attempted"] <= 1
