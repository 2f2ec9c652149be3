"""Trace record/replay and the CLI front end."""

import pytest

from repro.sim import Machine, MachineConfig, Scheme, Trace, TraceOp, TraceRecorder, replay


def make_machine(scheme=Scheme.FSENCR):
    machine = Machine(MachineConfig(scheme=scheme))
    machine.add_user(uid=1000, gid=100, passphrase="pw")
    return machine


def drive(machine_like):
    """A tiny workload against the machine-facing API."""
    handle = machine_like.create_file("/pmem/t.dat", uid=1000, encrypted=True)
    base = machine_like.mmap(handle, pages=2)
    machine_like.mark_measurement_start()
    for i in range(32):
        machine_like.store(base + i * 128, 64)
        machine_like.compute(50.0)
    machine_like.persist(base, 256)
    for i in range(32):
        machine_like.load(base + i * 128, 64)
    return machine_like


class TestRecorder:
    def test_records_all_op_kinds(self):
        recorder = TraceRecorder(make_machine(), name="t")
        drive(recorder)
        kinds = {op.op for op in recorder.trace.ops}
        assert kinds == {"create", "mmap", "mark", "store", "compute", "persist", "load"}

    def test_passthrough_results(self):
        recorder = TraceRecorder(make_machine(), name="t")
        drive(recorder)
        assert recorder.result("t").elapsed_ns > 0

    def test_trace_length(self):
        recorder = TraceRecorder(make_machine(), name="t")
        drive(recorder)
        assert len(recorder.trace) == 1 + 1 + 1 + 32 * 2 + 1 + 32


class TestReplay:
    def test_replay_reproduces_timing_exactly(self):
        recorder = TraceRecorder(make_machine(), name="t")
        drive(recorder)
        original = recorder.result("t")

        fresh = make_machine()
        replay(recorder.trace, fresh)
        replayed = fresh.result("t")
        assert replayed.elapsed_ns == pytest.approx(original.elapsed_ns)
        assert replayed.nvm_reads == original.nvm_reads
        assert replayed.nvm_writes == original.nvm_writes

    def test_replay_onto_other_scheme(self):
        recorder = TraceRecorder(make_machine(Scheme.BASELINE_SECURE), name="t")
        drive(recorder)
        baseline = recorder.result("t")

        fsencr = make_machine(Scheme.FSENCR)
        replay(recorder.trace, fsencr)
        result = fsencr.result("t")
        assert result.elapsed_ns >= baseline.elapsed_ns  # FsEncr adds cost

    def test_replay_requires_handle_before_mmap(self):
        trace = Trace(name="bad", ops=[TraceOp(op="mmap", size=1)])
        with pytest.raises(ValueError):
            replay(trace, make_machine())

    def test_unknown_op_rejected(self):
        trace = Trace(name="bad", ops=[TraceOp(op="teleport")])
        with pytest.raises(ValueError):
            replay(trace, make_machine())


class TestCli:
    def test_table1_command(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "System A" in out and "Yes" in out

    def test_fig12_command_small(self, capsys):
        from repro.cli import main

        assert main(["fig12", "--iters", "300"]) == 0
        out = capsys.readouterr().out
        assert "DAX-2" in out and "average" in out

    def test_json_output(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "fig12.json"
        assert main(["fig12", "--iters", "300", "--json", str(target)]) == 0
        assert target.exists()

    def test_unknown_command_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])
