"""repro.exec: canonical identity, parallel/serial equivalence, failures.

The runner's contract has two legs, and each gets direct coverage:

* ``jobs=2`` produces results bit-identical to ``jobs=1`` (parallelism
  is an implementation detail, never an input to the simulation);
* a failing cell raises :class:`CellExecutionError` naming the cell —
  a grid run never silently returns partial results.
"""

from __future__ import annotations

import os
import pickle
from functools import partial

import pytest

from repro.analysis.experiments import _compare_cell
from repro.exec import runner as runner_module
from repro.exec import (
    Cell,
    CellExecutionError,
    ExperimentRunner,
    canonical_json,
    resolve_workload,
)
from repro.faults.sweep import sweep_matrix
from repro.sim.config import MachineConfig


def cell_for(workload="Fillseq-S", ops=12, config=None, schemes=("baseline_secure", "fsencr")):
    """A figure driver's compare cell."""
    return _compare_cell(workload, config or MachineConfig(), schemes, ops=ops)


# -- identity ------------------------------------------------------------


def test_canonical_json_is_deterministic_and_config_sensitive():
    a = MachineConfig()
    assert canonical_json(a) == canonical_json(MachineConfig())
    c = MachineConfig().with_metadata_cache(2048)
    assert canonical_json(a) != canonical_json(c)


@pytest.mark.parametrize("name", ["DAX-2", "Hashmap", "Fillseq-S", "ManyFiles@10"])
def test_resolved_factories_pickle(name):
    """Every workload family's factory crosses a process boundary."""
    factory = resolve_workload(name, ops=8, iterations=8, seed=3)
    clone = pickle.loads(pickle.dumps(factory))
    original, copy = factory(), clone()
    assert type(copy) is type(original)
    assert (copy.name, copy.seed) == (original.name, original.seed) == (original.name, 3)


@pytest.mark.parametrize("max_points", [0, -2])
def test_sweep_spec_requires_a_crash_point(max_points):
    """The matrix rejects a bad point count before any cell runs."""
    with pytest.raises(ValueError, match="max_points must be >= 1"):
        sweep_matrix("Fillseq-S", max_points=max_points)


# -- no memo -------------------------------------------------------------


def test_no_cache_never_reads_or_writes(tmp_path, monkeypatch):
    """Every run computes every cell, and the runner leaves nothing in
    its working directory."""
    monkeypatch.chdir(tmp_path)
    runner = ExperimentRunner(jobs=1)
    first = runner.run([cell_for()])[0]
    second = runner.run([cell_for()])[0]
    assert second == first
    assert runner.last_stats.cell_seconds > 0
    assert runner.lifetime.cells_total == 2
    assert list(tmp_path.iterdir()) == []


# -- parallel == serial --------------------------------------------------


def test_jobs2_matches_jobs1_bit_identical():
    grid = [
        cell_for("Fillseq-S", ops=10),
        cell_for("DAX-1", ops=0),
        cell_for("Fillseq-S", ops=10, config=MachineConfig().with_metadata_cache(2048)),
    ]
    serial = ExperimentRunner(jobs=1).run(grid)
    parallel = ExperimentRunner(jobs=2).run(grid)
    assert serial == parallel
    # Order is cell order, not completion order.
    assert [c.workload for c in parallel] == ["Fillseq-S", "DAX-1", "Fillseq-S"]
    assert parallel[0] != parallel[2]


def test_stats_observability_fields():
    runner = ExperimentRunner(jobs=1)
    runner.run([cell_for(), cell_for(ops=11)])
    stats = runner.last_stats
    assert stats.cells_total == 2
    assert stats.wall_seconds > 0
    assert stats.cell_seconds > 0
    assert stats.cells_per_second > 0
    summary = stats.summary()
    assert summary.startswith("exec: 2 cells in ") and "jobs=1" in summary
    assert stats.to_dict()["cells_total"] == 2
    # lifetime accumulates across run() calls
    runner.run([cell_for()])
    assert runner.lifetime.cells_total == 3


# -- failure surfacing ---------------------------------------------------


def test_failing_cell_raises_serial():
    runner = ExperimentRunner(jobs=1)
    with pytest.raises(CellExecutionError, match="No-Such-Workload"):
        runner.run([cell_for("No-Such-Workload")])


def test_fail_fast_attaches_the_grid_report():
    """With no audit object left, the error message is the report: it
    names the failed cell and carries the worker's traceback."""
    runner = ExperimentRunner(jobs=2)
    grid = [cell_for(ops=8), cell_for("No-Such-Workload")]
    with pytest.raises(CellExecutionError) as err:
        runner.run(grid)
    message = str(err.value)
    assert message.startswith(f"cell {grid[1].label} failed:")
    assert "Traceback" in message
    assert grid[0].label not in message


def test_failing_cell_raises_in_pool_never_partial():
    runner = ExperimentRunner(jobs=2)
    grid = [cell_for("Fillseq-S", ops=10), cell_for("No-Such-Workload")]
    with pytest.raises(CellExecutionError, match="No-Such-Workload"):
        runner.run(grid)


def _fail_on(monkeypatch, failing):
    """Make the serial runner fail the cells whose label ``failing(label)``
    picks."""
    real = runner_module._execute_timed

    def execute_timed(cell):
        if failing(cell.label):
            raise RuntimeError(f"injected failure in {cell.label}")
        return real(cell)

    monkeypatch.setattr(runner_module, "_execute_timed", execute_timed)


def test_pool_death_is_blamed_on_the_in_flight_cell():
    """A dead pool names the cells in flight, never a queued one: with
    two workers, DAX-1 and Fillrandom-S are outstanding and Fillseq-S
    waits for a free worker."""
    grid = [
        Cell("DAX-1(killed)", partial(os._exit, 13)),
        cell_for("Fillrandom-S", ops=800),
        cell_for("Fillseq-S", ops=8),
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

    _fail_on(monkeypatch, lambda label: label.startswith("DAX-2("))
    out = tmp_path / "fig12.json"
    with pytest.raises(CellExecutionError, match="DAX-2"):
        main(["fig12", "--iters", "30", "--json", str(out)])
    assert not out.exists()


def test_failed_loadcurve_cell_raises_cell_error(monkeypatch):
    from repro.cli import main

    _fail_on(monkeypatch, lambda label: "[loadcurve " in label)
    with pytest.raises(CellExecutionError, match=r"3xFillseq-S\[loadcurve baseline_secure\]"):
        main(["loadcurve"])


def test_runner_stats_strict_lookup():
    runner = ExperimentRunner(jobs=1)
    runner.run([cell_for()])
    stats = runner.last_stats
    assert stats.stat("cells_total") == 1
    assert stats.stat("jobs") == 1
    with pytest.raises(KeyError, match="cells_totl'"):
        stats.stat("cells_totl")  # typos fail loudly, never read as 0
