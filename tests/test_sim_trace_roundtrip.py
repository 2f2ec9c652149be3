"""Trace round-trip fidelity: capture -> replay == direct run.

Every built-in workload family is captured through a
:class:`TraceRecorder` and replayed on a fresh machine under every
registered scheme.  The replayed run must be bit-identical to direct
execution — same clock, same NVM traffic, same stats dict — which pins
the two trace fidelity fixes (fractional compute ns, mmap handle
binding) and gates the batch compiler's input format.
"""

import pytest

from repro.sim import Machine, Trace, TraceRecorder, get_scheme, replay, scheme_names
from repro.sim.config import MachineConfig
from repro.sim.trace import TraceOp
from repro.workloads import make_dax_micro, make_pmemkv_workload, make_whisper_workload
from repro.workloads.base import run_workload

_FACTORIES = {
    "DAX-1": lambda: make_dax_micro("DAX-1", iterations=120, seed=7),
    "Fillseq-S": lambda: make_pmemkv_workload("Fillseq-S", ops=24, seed=1234),
    "Hashmap": lambda: make_whisper_workload("Hashmap", ops=40, seed=99),
}


def _capture(config, workload):
    """Run the workload through a recorder; return (trace, RunResult)."""
    machine = Machine(config)
    recorder = TraceRecorder(machine, name=workload.name)
    workload.setup(recorder)
    workload.run(recorder)
    return recorder.trace, machine.result(workload.name)


@pytest.mark.parametrize("workload_name", sorted(_FACTORIES))
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_roundtrip_bit_identical(workload_name, scheme_name):
    factory = _FACTORIES[workload_name]
    config = get_scheme(scheme_name).configure(MachineConfig())

    direct = run_workload(config, factory())
    trace, captured = _capture(config, factory())
    assert captured.to_dict() == direct.to_dict()  # recording is transparent

    fresh = Machine(config)
    factory().setup(fresh)
    replay(trace, fresh)
    replayed = fresh.result(workload_name)
    assert replayed.to_dict() == direct.to_dict()


class TestComputeFidelity:
    """Regression: compute() used to store int(ns), so fractional
    compute times drifted between capture and replay."""

    def test_fractional_ns_survives_replay(self):
        machine = Machine(MachineConfig())
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        recorder = TraceRecorder(machine, name="t")
        recorder.compute(12.75)
        (op,) = recorder.trace.ops
        assert op.ns == 12.75

        fresh = Machine(MachineConfig())
        fresh.add_user(uid=1000, gid=100, passphrase="pw")
        replay(recorder.trace, fresh)
        assert fresh.result("t").elapsed_ns == machine.result("t").elapsed_ns


class TestMmapBinding:
    """Regression: replay() used to bind every mmap to the most recent
    handle, mis-mapping interleaved create/open + mmap sequences."""

    @staticmethod
    def _machine():
        machine = Machine(MachineConfig())
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        return machine

    @staticmethod
    def _drive(m):
        """Create two files, then mmap the *first* — the sequence the
        last-handle heuristic mis-bound."""
        first = m.create_file("/pmem/a.dat", uid=1000)
        m.create_file("/pmem/b.dat", uid=1000)
        base = m.mmap(first, pages=1)
        m.mark_measurement_start()
        for i in range(8):
            m.store(base + i * 64, 64)

    def test_interleaved_mmap_binds_by_path(self):
        machine = self._machine()
        recorder = TraceRecorder(machine, name="t")
        self._drive(recorder)
        direct = machine.result("t")

        mmap_ops = [op for op in recorder.trace.ops if op.op == "mmap"]
        assert mmap_ops[0].path == "/pmem/a.dat"
        assert mmap_ops[0].uid == 1000

        fresh = self._machine()
        replay(recorder.trace, fresh)
        assert fresh.result("t").to_dict() == direct.to_dict()

    def test_unknown_path_raises(self):
        trace = Trace(
            name="bad", ops=[TraceOp(op="mmap", path="/pmem/ghost.dat", size=1)]
        )
        with pytest.raises(ValueError, match="ghost"):
            replay(trace, self._machine())
