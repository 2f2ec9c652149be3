"""repro.exec: cache correctness, parallel/serial equivalence, failures.

The runner's contract has three legs, and each gets direct coverage:

* the content-addressed cache hits only when (spec, source fingerprint)
  both match — any config knob, seed, or source change must miss;
* ``jobs=2`` produces payloads bit-identical to ``jobs=1`` (parallelism
  is an implementation detail, never an input to the simulation);
* a failing cell raises :class:`CellExecutionError` naming the cell —
  a grid run never silently returns partial results.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.exec import runner as runner_module
from repro.exec import (
    CellExecutionError,
    CellSpec,
    ExperimentRunner,
    ResultCache,
    canonical_json,
    cell_key,
    payload_checksum,
    source_fingerprint,
)
from repro.sim.config import MachineConfig, Scheme


def spec_for(workload="Fillseq-S", ops=12, config=None, schemes=None):
    return CellSpec(
        kind="compare",
        workload=workload,
        config=config or MachineConfig(),
        ops=ops,
        schemes=schemes or (Scheme.BASELINE_SECURE.value, Scheme.FSENCR.value),
    )


def runner_for(tmp_path, jobs=1, **kw):
    kw.setdefault("fingerprint", "test-fingerprint")
    return ExperimentRunner(jobs=jobs, cache_dir=tmp_path / "cache", **kw)


# -- spec identity -------------------------------------------------------


def test_canonical_json_is_deterministic_and_config_sensitive():
    a = spec_for()
    b = spec_for()
    assert canonical_json(a) == canonical_json(b)
    c = spec_for(config=MachineConfig().with_metadata_cache(2048))
    assert canonical_json(a) != canonical_json(c)


def test_cell_key_binds_spec_and_fingerprint():
    spec = spec_for()
    assert cell_key(spec, "fp-1") != cell_key(spec, "fp-2")
    assert cell_key(spec, "fp-1") == cell_key(spec_for(), "fp-1")


def test_compare_spec_requires_schemes_and_known_kind():
    with pytest.raises(ValueError):
        CellSpec(kind="compare", workload="X", config=MachineConfig())
    with pytest.raises(ValueError):
        CellSpec(kind="nope", workload="X", config=MachineConfig(), schemes=("fsencr",))
    with pytest.raises(ValueError):
        CellSpec(kind="sweep", workload="X", config=MachineConfig())


# -- cache hit / miss / invalidation ------------------------------------


def test_cold_run_simulates_then_warm_run_is_all_hits(tmp_path):
    runner = runner_for(tmp_path)
    spec = spec_for()

    cold = runner.run([spec])[0]
    assert not cold.from_cache
    assert runner.last_stats.simulated == 1
    assert runner.last_stats.cache_hits == 0

    warm = runner.run([spec])[0]
    assert warm.from_cache
    assert runner.last_stats.simulated == 0
    assert runner.last_stats.cache_hits == 1
    assert warm.payload == cold.payload


def test_config_change_misses(tmp_path):
    runner = runner_for(tmp_path)
    runner.run([spec_for()])
    runner.run([spec_for(config=MachineConfig().with_metadata_cache(2048))])
    assert runner.last_stats.cache_hits == 0
    assert runner.last_stats.simulated == 1


def test_seed_and_ops_changes_miss(tmp_path):
    runner = runner_for(tmp_path)
    base = spec_for()
    runner.run([base])
    reseeded = CellSpec(
        kind="compare",
        workload=base.workload,
        config=base.config,
        ops=base.ops,
        workload_seed=4242,
        schemes=base.schemes,
    )
    runner.run([reseeded])
    assert runner.last_stats.cache_hits == 0
    runner.run([spec_for(ops=13)])
    assert runner.last_stats.cache_hits == 0


def test_fingerprint_change_invalidates_everything(tmp_path):
    cold = runner_for(tmp_path, fingerprint="before-edit")
    cold.run([spec_for()])
    edited = runner_for(tmp_path, fingerprint="after-edit")
    edited.run([spec_for()])
    assert edited.last_stats.cache_hits == 0
    assert edited.last_stats.simulated == 1


def test_real_fingerprint_covers_simulator_sources():
    fp = source_fingerprint()
    assert len(fp) == 64
    assert fp == source_fingerprint()  # memoised and stable in-process


def test_no_cache_never_reads_or_writes(tmp_path):
    runner = runner_for(tmp_path, use_cache=False)
    runner.run([spec_for()])
    assert len(runner.cache) == 0
    runner.run([spec_for()])
    assert runner.last_stats.cache_hits == 0


def test_clear_cache_removes_entries(tmp_path):
    runner = runner_for(tmp_path)
    runner.run([spec_for()])
    assert len(runner.cache) == 1
    assert runner.clear_cache() == 1
    runner.run([spec_for()])
    assert runner.last_stats.simulated == 1


def _truncate(path):
    path.write_text("{ truncated", encoding="utf-8")


def _garble(path):
    # Valid JSON whose payload no longer matches its stored checksum.
    entry = json.loads(path.read_text())
    entry["payload"]["workload"] = "garbled"
    path.write_text(json.dumps(entry), encoding="utf-8")


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    """Both kinds of damage read as a miss and are recomputed: a
    truncated entry (a killed writer) and a garbled one (bit rot that
    still parses)."""
    spec = spec_for()
    key = cell_key(spec, "test-fingerprint")
    for corrupt in (_truncate, _garble):
        runner = runner_for(tmp_path / corrupt.__name__)
        truth = runner.run([spec])[0].payload
        entry_path = runner.cache.entry_path(key)
        corrupt(entry_path)
        result = runner.run([spec])[0]
        assert not result.from_cache, corrupt.__name__
        assert result.payload == truth
        assert json.loads(entry_path.read_text())["payload"] == truth


@pytest.mark.parametrize("mode", ["truncate", "garble"])
def test_corrupt_cache_write_is_a_miss_and_verify_quarantines(tmp_path, mode):
    grid = [spec_for(ops=8), spec_for("DAX-1", ops=0), spec_for(ops=9)]
    cold = runner_for(tmp_path)
    cold_results = cold.run(grid)
    corrupt = {"truncate": _truncate, "garble": _garble}[mode]
    corrupt(cold.cache.entry_path(cell_key(grid[1], "test-fingerprint")))

    # verify() finds exactly the damaged entry and quarantines it.
    audit = cold.cache.verify()
    assert audit["checked"] == 3
    assert audit["corrupt"] == 1 and audit["ok"] == 2
    assert len(audit["quarantined"]) == 1
    quarantine = cold.cache.directory / "quarantine"
    assert sorted(p.name for p in quarantine.glob("*.json")) == audit["quarantined"]

    # A warm run treats the quarantined entry as a miss and recomputes
    # it to the same payload; the survivors still hit.
    warm = runner_for(tmp_path)
    warm_results = warm.run(grid)
    assert warm.last_stats.cache_hits == 2
    assert warm.last_stats.simulated == 1
    assert [r.payload for r in warm_results] == [r.payload for r in cold_results]
    assert warm.cache.verify()["corrupt"] == 0


def test_garbled_entry_is_a_miss_even_without_verify(tmp_path):
    """The checksum check in ``get`` itself: a garbled payload with a
    stale checksum must never be served, even if nobody ran verify."""
    grid = [spec_for(ops=8), spec_for("DAX-1", ops=0)]
    truth = [r.payload for r in runner_for(tmp_path).run(grid)]
    _garble(runner_for(tmp_path).cache.entry_path(cell_key(grid[1], "test-fingerprint")))
    warm = runner_for(tmp_path)
    results = warm.run(grid)
    assert warm.last_stats.simulated == 1  # the garbled cell, recomputed
    assert [r.payload for r in results] == truth
    assert "garbled" not in json.dumps(results[1].payload)


# -- parallel == serial --------------------------------------------------


def test_jobs2_matches_jobs1_bit_identical(tmp_path):
    grid = [
        spec_for("Fillseq-S", ops=10),
        spec_for("DAX-1", ops=0),
        spec_for("Fillseq-S", ops=10, config=MachineConfig().with_metadata_cache(2048)),
    ]
    serial = runner_for(tmp_path / "serial", jobs=1, use_cache=False).run(grid)
    parallel = runner_for(tmp_path / "parallel", jobs=2, use_cache=False).run(grid)
    assert [r.payload for r in serial] == [r.payload for r in parallel]
    # Order is spec order, not completion order.
    assert [r.spec.label for r in parallel] == [s.label for s in grid]


def test_stats_observability_fields(tmp_path):
    runner = runner_for(tmp_path)
    runner.run([spec_for(), spec_for(ops=11)])
    stats = runner.last_stats
    assert stats.cells_total == 2
    assert stats.cache_misses == 2
    assert stats.wall_seconds > 0
    assert stats.cell_seconds > 0
    assert stats.cells_per_second > 0
    summary = stats.summary()
    assert "2 cells" in summary and "jobs=1" in summary
    payload = stats.to_dict()
    assert payload["simulated"] == 2 and payload["cache_hits"] == 0
    # lifetime accumulates across run() calls
    runner.run([spec_for()])
    assert runner.lifetime.cells_total == 3


# -- failure surfacing ---------------------------------------------------


def test_failing_cell_raises_serial(tmp_path):
    runner = runner_for(tmp_path)
    with pytest.raises(CellExecutionError, match="No-Such-Workload"):
        runner.run([spec_for("No-Such-Workload")])


def test_fail_fast_attaches_the_grid_report(tmp_path):
    """With no audit object left, the error message is the report: it
    names the failed cell and carries the worker's traceback."""
    runner = runner_for(tmp_path, jobs=2)
    grid = [spec_for(ops=8), spec_for("No-Such-Workload")]
    with pytest.raises(CellExecutionError) as err:
        runner.run(grid)
    message = str(err.value)
    assert message.startswith(f"cell {grid[1].label} failed:")
    assert "Traceback" in message
    assert grid[0].label not in message


def test_failing_cell_raises_in_pool_never_partial(tmp_path):
    runner = runner_for(tmp_path, jobs=2)
    grid = [spec_for("Fillseq-S", ops=10), spec_for("No-Such-Workload")]
    with pytest.raises(CellExecutionError, match="No-Such-Workload"):
        runner.run(grid)


def test_completed_cells_survive_a_failed_grid(tmp_path):
    runner = runner_for(tmp_path)
    with pytest.raises(CellExecutionError):
        runner.run([spec_for("Fillseq-S", ops=10), spec_for("No-Such-Workload")])
    # The good cell was cached before the bad one raised, so a re-run
    # after the fix only pays for what never completed.
    rerun = runner.run([spec_for("Fillseq-S", ops=10)])[0]
    assert rerun.from_cache


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
def test_pool_death_is_blamed_on_the_in_flight_cell(tmp_path, monkeypatch):
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
        runner_for(tmp_path, jobs=2).run(grid)
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
        main(["fig12", "--iters", "30", "--cache-dir", str(tmp_path / "c"),
              "--json", str(out)])
    assert not out.exists()


def test_failed_loadcurve_cell_raises_cell_error(tmp_path, monkeypatch):
    from repro.cli import main

    _fail_on(monkeypatch, lambda spec: spec.kind == "loadcurve")
    with pytest.raises(CellExecutionError, match=r"3xFillseq-S\[loadcurve baseline_secure\]"):
        main(["loadcurve", "--cache-dir", str(tmp_path)])


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get("ab" * 32) is None
    cache.put("ab" * 32, {"payload": {"x": 1}})
    assert cache.get("ab" * 32)["payload"] == {"x": 1}
    assert len(cache) == 1


# -- cache integrity + tooling (python -m repro cache ...) ---------------


def test_put_stamps_a_checksum_and_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = "ab" * 32
    cache.put(key, {"payload": {"x": 1}})
    entry = json.loads(cache.entry_path(key).read_text())
    assert entry["checksum"] == payload_checksum({"x": 1})
    # Garble the payload but keep the stale checksum: must never be served.
    entry["payload"] = {"x": 2}
    cache.entry_path(key).write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(key) is None
    # Entries from before checksums existed stay readable.
    cache.put("cd" * 32, {"payload": {"y": 1}, "checksum": None})
    legacy = json.loads(cache.entry_path("cd" * 32).read_text())
    del legacy["checksum"]
    cache.entry_path("cd" * 32).write_text(json.dumps(legacy), encoding="utf-8")
    assert cache.get("cd" * 32)["payload"] == {"y": 1}


def test_clear_cache_also_sweeps_orphaned_tmp_files(tmp_path):
    runner = runner_for(tmp_path)
    runner.run([spec_for()])
    orphan = runner.cache.directory / "ab" / "deadbeef.tmp.1234"
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("{ interrupted", encoding="utf-8")
    assert runner.clear_cache() == 1  # tmp files don't count as entries
    assert not orphan.exists()
    assert not list(runner.cache.directory.rglob("*.tmp.*"))


def test_cache_stats_counts_entries_tmp_and_quarantine(tmp_path):
    runner = runner_for(tmp_path)
    runner.run([spec_for(), spec_for(ops=13)])
    cache = runner.cache
    (cache.directory / "zz").mkdir(parents=True, exist_ok=True)
    (cache.directory / "zz" / "x.tmp.99").write_text("{", encoding="utf-8")
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["tmp_files"] == 1
    assert stats["quarantined"] == 0
    assert stats["bytes"] > 0
    assert stats["oldest_age_seconds"] >= stats["newest_age_seconds"] >= 0


def test_cache_verify_quarantines_corrupt_entries(tmp_path):
    runner = runner_for(tmp_path)
    spec = spec_for()
    runner.run([spec, spec_for(ops=13)])
    key = cell_key(spec, "test-fingerprint")
    runner.cache.entry_path(key).write_text("{ truncated", encoding="utf-8")
    report = runner.cache.verify()
    assert report["checked"] == 2
    assert report["ok"] == 1 and report["corrupt"] == 1
    assert report["quarantined"] == [f"{key}.json"]
    assert (runner.cache.directory / "quarantine" / f"{key}.json").exists()
    # The quarantined entry no longer counts as live; a second verify is clean.
    assert len(runner.cache) == 1
    assert runner.cache.verify()["corrupt"] == 0


def test_cache_gc_removes_tmp_orphans_and_stale_fingerprints(tmp_path):
    old = runner_for(tmp_path, fingerprint="old-fp")
    old.run([spec_for()])
    new = runner_for(tmp_path, fingerprint="new-fp")
    new.run([spec_for()])
    orphan = new.cache.directory / "ab" / "x.tmp.77"
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("{", encoding="utf-8")
    report = new.cache.gc("new-fp")
    assert report["tmp_removed"] == 1
    assert report["stale_removed"] == 1  # the old-fp entry
    assert report["entries_kept"] == 1
    assert report["bytes_freed"] > 0
    assert len(new.cache) == 1
    # The survivor is the current-fingerprint entry: a warm run hits.
    new.run([spec_for()])
    assert new.last_stats.cache_hits == 1


def test_cache_cli_stats_verify_gc(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cli-cache"
    runner = ExperimentRunner(jobs=1, cache_dir=cache_dir, fingerprint="cli-fp")
    spec = spec_for()
    runner.run([spec, spec_for(ops=13)])

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries:     2" in out

    # verify's exit code is the corrupt count — 0 on a clean cache.
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
    key = cell_key(spec, "cli-fp")
    (cache_dir / key[:2] / f"{key}.json").write_text("{ bad", encoding="utf-8")
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
    out = capsys.readouterr().out
    assert "1 corrupt" in out and f"{key}.json" in out

    assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "cache gc:" in out


def test_runner_stats_strict_lookup(tmp_path):
    runner = runner_for(tmp_path)
    runner.run([spec_for()])
    stats = runner.last_stats
    assert stats.stat("simulated") == 1
    assert stats.stat("cache_hits") == 0
    with pytest.raises(KeyError, match="cache_hit'"):
        stats.stat("cache_hit")  # typos fail loudly, never read as 0
