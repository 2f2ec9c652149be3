"""Wear tracking, B+Tree deletion, extension benchmarks, report module."""

import random

import pytest

from repro.mem import NVMDevice
from repro.sim import Machine, MachineConfig, Scheme
from repro.workloads import (
    PMEMKV_EXTENSIONS,
    PersistentAllocator,
    PersistentBTree,
    make_pmemkv_workload,
    run_workload,
)


class TestWearTracking:
    def test_writes_counted_per_line(self):
        dev = NVMDevice()
        dev.write(0)
        dev.write(0)
        dev.write(64)
        assert dev.wear_of(0) == 2
        assert dev.wear_of(63) == 2  # same line
        assert dev.wear_of(64) == 1
        assert dev.max_wear == 2

    def test_reads_do_not_wear(self):
        dev = NVMDevice()
        dev.read(0)
        assert dev.wear_of(0) == 0

    def test_hotspots_ordered(self):
        dev = NVMDevice()
        for _ in range(5):
            dev.write(128)
        dev.write(0)
        hotspots = dev.wear_hotspots(top=2)
        assert hotspots[0] == (128, 5)
        assert hotspots[1] == (0, 1)

    def test_tracking_can_be_disabled(self):
        dev = NVMDevice(track_wear=False)
        dev.write(0)
        assert dev.wear_of(0) == 0
        assert dev.max_wear == 0

    def test_counter_lines_are_the_wear_hotspot(self):
        """Security metadata concentrates writes — the §VI endurance
        concern, observable: the hottest lines under a write-heavy run
        are counter lines, not data."""
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR))
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        workload = make_pmemkv_workload("Overwrite-S", ops=200)
        workload.setup = lambda m: None  # user already added
        workload.run(machine)
        hottest_addr, hottest_count = machine.device.wear_hotspots(top=1)[0]
        assert hottest_count > 1
        assert hottest_addr >= machine.layout.mecb_base  # metadata region


class TestBTreeDelete:
    def _tree(self):
        machine = Machine(MachineConfig(scheme=Scheme.BASELINE_SECURE))
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        handle = machine.create_file("/pmem/t", uid=1000)
        base = machine.mmap(handle, pages=1024)
        return PersistentBTree(machine, PersistentAllocator(machine, base, 1024 * 4096))

    def test_delete_existing(self):
        tree = self._tree()
        tree.put(5, 64)
        assert tree.delete(5) is True
        assert tree.get(5) is None
        assert tree.size == 0

    def test_delete_missing(self):
        tree = self._tree()
        assert tree.delete(5) is False

    def test_delete_frees_blob_for_reuse(self):
        tree = self._tree()
        tree.put(5, 64)
        live_before = tree.allocator.live_objects
        tree.delete(5)
        assert tree.allocator.live_objects == live_before - 1

    def test_delete_random_subset_preserves_rest(self):
        tree = self._tree()
        keys = list(range(120))
        rng = random.Random(9)
        rng.shuffle(keys)
        for k in keys:
            tree.put(k, 64)
        doomed = set(keys[:60])
        for k in doomed:
            assert tree.delete(k)
        for k in keys:
            expected = None if k in doomed else 64
            assert tree.get(k) == expected
        assert tree.keys_inorder() == sorted(set(keys) - doomed)

    def test_reinsert_after_delete(self):
        tree = self._tree()
        tree.put(5, 64)
        tree.delete(5)
        tree.put(5, 128)
        assert tree.get(5) == 128


class TestExtensionBenchmarks:
    def test_extension_names_resolve(self):
        for name, _cls, _size in PMEMKV_EXTENSIONS:
            assert make_pmemkv_workload(name, ops=10).name == name

    @pytest.mark.parametrize("name", [n for n, _, _ in PMEMKV_EXTENSIONS])
    def test_extensions_run(self, name):
        cfg = MachineConfig(scheme=Scheme.FSENCR)
        result = run_workload(cfg, make_pmemkv_workload(name, ops=60))
        assert result.elapsed_ns > 0

    def test_deleterandom_empties_store(self):
        cfg = MachineConfig(scheme=Scheme.FSENCR)
        # Success of every delete is asserted inside the workload.
        run_workload(cfg, make_pmemkv_workload("Deleterandom-S", ops=80))


class TestReport:
    def test_bar_chart_renders(self):
        from repro.analysis import bar_chart

        text = bar_chart({"YCSB": 4.9, "CTree": 2.8}, title="t", baseline=1.0)
        assert "YCSB" in text and "4.900x" in text and "#" in text

    def test_bar_chart_empty(self):
        from repro.analysis import bar_chart

        assert "(no data)" in bar_chart({}, title="t")

    def test_aggregate_report_without_results(self, tmp_path):
        from repro.analysis import aggregate_report

        text = aggregate_report(tmp_path)
        assert "no results found" in text

    def test_aggregate_report_with_one_figure(self, tmp_path):
        import json

        from repro.analysis import aggregate_report

        (tmp_path / "fig11.json").write_text(json.dumps({
            "title": "Figure 11",
            "rows": [{"workload": "YCSB", "scheme": "fsencr", "slowdown": 1.02,
                      "normalized_writes": 1.1, "normalized_reads": 1.0}],
            "mean_slowdown": 1.02,
        }))
        text = aggregate_report(tmp_path)
        assert "Figure 11" in text and "YCSB" in text

    def test_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path)]) == 0
        assert "aggregate results" in capsys.readouterr().out
