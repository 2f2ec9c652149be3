"""repro.exec: spec identity, parallel/serial equivalence, failures.

The runner's contract has two legs, and each gets direct coverage:

* ``jobs=2`` produces payloads bit-identical to ``jobs=1`` (parallelism
  is an implementation detail, never an input to the simulation);
* a failing cell raises :class:`CellExecutionError` naming the cell —
  a grid run never silently returns partial results.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.exec import runner as runner_module
from repro.exec import (
    CellExecutionError,
    CellSpec,
    ExperimentRunner,
    canonical_json,
)
from repro.faults.plan import FaultPlan
from repro.sim.config import MachineConfig, Scheme


def spec_for(workload="Fillseq-S", ops=12, config=None, schemes=None):
    return CellSpec(
        kind="compare",
        workload=workload,
        config=config or MachineConfig(),
        ops=ops,
        schemes=schemes or (Scheme.BASELINE_SECURE.value, Scheme.FSENCR.value),
    )


# -- spec identity -------------------------------------------------------


def test_canonical_json_is_deterministic_and_config_sensitive():
    a = spec_for()
    b = spec_for()
    assert canonical_json(a) == canonical_json(b)
    c = spec_for(config=MachineConfig().with_metadata_cache(2048))
    assert canonical_json(a) != canonical_json(c)


def test_compare_spec_requires_schemes_and_known_kind():
    with pytest.raises(ValueError):
        CellSpec(kind="compare", workload="X", config=MachineConfig())
    with pytest.raises(ValueError):
        CellSpec(kind="nope", workload="X", config=MachineConfig(), schemes=("fsencr",))
    with pytest.raises(ValueError):
        CellSpec(kind="sweep", workload="X", config=MachineConfig())


@pytest.mark.parametrize("max_points", [0, -2])
def test_sweep_spec_requires_a_crash_point(max_points):
    with pytest.raises(ValueError, match="max_points must be >= 1"):
        CellSpec(
            kind="sweep",
            workload="Fillseq-S",
            config=MachineConfig(),
            plan=FaultPlan(),
            max_points=max_points,
        )


# -- no memo -------------------------------------------------------------


def test_no_cache_never_reads_or_writes(tmp_path, monkeypatch):
    """Every run computes every cell, and the runner leaves nothing in
    its working directory."""
    monkeypatch.chdir(tmp_path)
    runner = ExperimentRunner(jobs=1)
    first = runner.run([spec_for()])[0]
    second = runner.run([spec_for()])[0]
    assert second.payload == first.payload
    assert second.wall_seconds > 0
    assert runner.lifetime.cells_total == 2
    assert list(tmp_path.iterdir()) == []


# -- parallel == serial --------------------------------------------------


def test_jobs2_matches_jobs1_bit_identical():
    grid = [
        spec_for("Fillseq-S", ops=10),
        spec_for("DAX-1", ops=0),
        spec_for("Fillseq-S", ops=10, config=MachineConfig().with_metadata_cache(2048)),
    ]
    serial = ExperimentRunner(jobs=1).run(grid)
    parallel = ExperimentRunner(jobs=2).run(grid)
    assert [r.payload for r in serial] == [r.payload for r in parallel]
    # Order is spec order, not completion order.
    assert [r.spec.label for r in parallel] == [s.label for s in grid]


def test_stats_observability_fields():
    runner = ExperimentRunner(jobs=1)
    runner.run([spec_for(), spec_for(ops=11)])
    stats = runner.last_stats
    assert stats.cells_total == 2
    assert stats.wall_seconds > 0
    assert stats.cell_seconds > 0
    assert stats.cells_per_second > 0
    summary = stats.summary()
    assert summary.startswith("exec: 2 cells in ") and "jobs=1" in summary
    assert stats.to_dict()["cells_total"] == 2
    # lifetime accumulates across run() calls
    runner.run([spec_for()])
    assert runner.lifetime.cells_total == 3


# -- failure surfacing ---------------------------------------------------


def test_failing_cell_raises_serial():
    runner = ExperimentRunner(jobs=1)
    with pytest.raises(CellExecutionError, match="No-Such-Workload"):
        runner.run([spec_for("No-Such-Workload")])


def test_fail_fast_attaches_the_grid_report():
    """With no audit object left, the error message is the report: it
    names the failed cell and carries the worker's traceback."""
    runner = ExperimentRunner(jobs=2)
    grid = [spec_for(ops=8), spec_for("No-Such-Workload")]
    with pytest.raises(CellExecutionError) as err:
        runner.run(grid)
    message = str(err.value)
    assert message.startswith(f"cell {grid[1].label} failed:")
    assert "Traceback" in message
    assert grid[0].label not in message


def test_failing_cell_raises_in_pool_never_partial():
    runner = ExperimentRunner(jobs=2)
    grid = [spec_for("Fillseq-S", ops=10), spec_for("No-Such-Workload")]
    with pytest.raises(CellExecutionError, match="No-Such-Workload"):
        runner.run(grid)


def _fail_on(monkeypatch, failing, fail=None):
    """Make ``execute_cell`` fail for the cells ``failing(spec)`` picks.
    Fork-started pool workers inherit the patch."""
    real = runner_module.execute_cell

    def execute_cell(spec):
        if failing(spec):
            if fail is not None:
                fail()
            raise RuntimeError(f"injected failure in {spec.label}")
        return real(spec)

    monkeypatch.setattr(runner_module, "execute_cell", execute_cell)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched execute_cell reaches workers only through fork",
)
def test_pool_death_is_blamed_on_the_in_flight_cell(monkeypatch):
    """A dead pool names the cells in flight, never a queued one: with
    two workers, DAX-1 and Fillrandom-S are outstanding and Fillseq-S
    waits for a free worker."""
    _fail_on(monkeypatch, lambda spec: spec.workload == "DAX-1", fail=lambda: os._exit(13))
    grid = [
        spec_for("DAX-1", ops=0),
        spec_for("Fillrandom-S", ops=800),
        spec_for("Fillseq-S", ops=8),
    ]
    with pytest.raises(CellExecutionError) as err:
        ExperimentRunner(jobs=2).run(grid)
    message = str(err.value)
    assert "worker pool died (BrokenProcessPoolError)" in message
    assert "in flight" in message and "DAX-1" in message
    assert "Fillseq-S" not in message


def test_failed_figure_cell_writes_no_json(tmp_path, monkeypatch):
    """A figure grid with a failing cell raises; it never prints or
    saves a table with that row missing."""
    from repro.cli import main

    _fail_on(monkeypatch, lambda spec: spec.workload == "DAX-2")
    out = tmp_path / "fig12.json"
    with pytest.raises(CellExecutionError, match="DAX-2"):
        main(["fig12", "--iters", "30", "--json", str(out)])
    assert not out.exists()


def test_failed_loadcurve_cell_raises_cell_error(monkeypatch):
    from repro.cli import main

    _fail_on(monkeypatch, lambda spec: spec.kind == "loadcurve")
    with pytest.raises(CellExecutionError, match=r"3xFillseq-S\[loadcurve baseline_secure\]"):
        main(["loadcurve"])


def test_runner_stats_strict_lookup():
    runner = ExperimentRunner(jobs=1)
    runner.run([spec_for()])
    stats = runner.last_stats
    assert stats.stat("cells_total") == 1
    assert stats.stat("jobs") == 1
    with pytest.raises(KeyError, match="cells_totl'"):
        stats.stat("cells_totl")  # typos fail loudly, never read as 0
