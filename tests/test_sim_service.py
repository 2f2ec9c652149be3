"""The concurrent-traffic service model: streams, queues, load curves.

Two contracts dominate.  *Bit-identity*: a 1-stream service run must
reproduce the seed per-access path exactly — same RunResult, to the
bit, for every registered scheme — because the shared queues charge a
lone stream zero wait everywhere.  *Determinism*: the same (seed,
stream mix, arrival rate) must reproduce identical interleavings,
samples, and queue stats across runs and across worker-process counts.
"""

from __future__ import annotations

import hashlib
import math
import struct
from array import array
from functools import partial

import pytest

from repro.analysis.tails import (
    load_curve,
    p99_monotone,
    percentile_summary,
    render_load_curve,
    strict_percentile,
)
from repro.exec import Cell, ExperimentRunner
from repro.exec.spec import canonical_json
from repro.mem.controller import MemoryControllerQueue, ServiceQueue
from repro.sim.batch import _supports_fast_path, capture_workload, step_workload
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.schemes import get_scheme, scheme_names
from repro.sim.service import ClosedLoop, OpenLoop, ServiceQueues, _hash_turn, run_service
from repro.workloads import ManyFilesWorkload
from repro.workloads.base import (
    StreamSpec,
    parse_stream_mix,
    run_workload,
    stream_factories,
)
from repro.workloads.pmemkv import Fillseq
from repro.workloads.whisper import HashmapWorkload


def _small_mix():
    return [Fillseq(ops=60), Fillseq(ops=60, seed=1335), HashmapWorkload(ops=80)]


# ----------------------------------------------------------------------
# Bit-identity: 1-stream service run == seed per-access path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_single_stream_service_bit_identical(scheme_name):
    config = get_scheme(scheme_name).configure(MachineConfig())
    seed_result = run_workload(config, Fillseq(ops=60))
    service = run_service(config, [Fillseq(ops=60)], ClosedLoop())
    assert service.streams[0].run == seed_result
    # A lone stream must never have waited anywhere.
    assert service.mc_queue["contended"] == 0
    assert service.mc_queue["total_wait_ns"] == 0.0
    assert service.ott_queue["contended"] == 0


def test_single_stream_open_loop_never_self_queues():
    # Open-loop arrivals can trail the clock, but a stream still cannot
    # contend with itself: every busy window it created ended at or
    # before its own clock.
    config = get_scheme("fsencr").configure(MachineConfig())
    service = run_service(
        config, [Fillseq(ops=60)], OpenLoop(interarrival_ns=5.0)
    )
    assert service.mc_queue["contended"] == 0
    assert service.ott_queue["contended"] == 0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def test_service_run_reproduces_exactly():
    config = get_scheme("fsencr").configure(MachineConfig())
    first = run_service(config, _small_mix(), ClosedLoop())
    second = run_service(config, _small_mix(), ClosedLoop())
    assert first.interleave_digest == second.interleave_digest
    assert first.mc_queue == second.mc_queue
    assert first.ott_queue == second.ott_queue
    assert first.samples == second.samples
    assert [s.run for s in first.streams] == [s.run for s in second.streams]


def test_open_loop_arrivals_deterministic_per_seed():
    config = get_scheme("baseline_secure").configure(MachineConfig())
    policy = OpenLoop(interarrival_ns=40.0, seed=0xBEEF)
    first = run_service(config, _small_mix(), policy)
    second = run_service(config, _small_mix(), policy)
    assert first.interleave_digest == second.interleave_digest
    assert first.samples == second.samples
    # At a low offered load the arrival draws actually gate the
    # interleaving, so a different seed must change it.
    slow = OpenLoop(interarrival_ns=20000.0, seed=0xBEEF)
    reseeded = OpenLoop(interarrival_ns=20000.0, seed=0xF00D)
    assert (
        run_service(config, _small_mix(), slow).interleave_digest
        != run_service(config, _small_mix(), reseeded).interleave_digest
    )


def test_loadcurve_cell_identical_under_jobs_2():
    # Two cells, so the pool really runs them.
    config = get_scheme("fsencr").configure(MachineConfig())
    cells = [
        Cell(f"{mix}[loadcurve fsencr]", partial(load_curve, config, mix, (0.5, 1.0), ops=40))
        for mix in ("2xFillseq-S", "3xFillseq-S")
    ]
    serial = ExperimentRunner(1).run(cells)
    parallel = ExperimentRunner(2).run(cells)
    assert canonical_json(serial) == canonical_json(parallel)


# ----------------------------------------------------------------------
# The interleave digest
# ----------------------------------------------------------------------


def test_interleave_digest_layout_of_a_lone_stream():
    # A lone closed-loop stream runs in one turn: its header (sid, op
    # count), every completion as little-endian binary64, then its
    # op-code column.
    config = get_scheme("fsencr").configure(MachineConfig())
    machine = Machine(config)
    workload = Fillseq(ops=60)
    workload.setup(machine)
    _name, codes, steps = step_workload(machine, workload)
    completions = []
    for _ in codes:
        next(steps)
        completions.append(machine.clock_ns)
    blob = (struct.pack("<II", 0, len(codes))
            + struct.pack(f"<{len(codes)}d", *completions) + codes)
    service = run_service(config, [Fillseq(ops=60)], ClosedLoop())
    assert service.interleave_digest == hashlib.sha256(blob).hexdigest()


#: Two streams with equal completions and op codes, two turns each:
#: (sid, completions, op codes fed when the turn ends the stream).
_TURNS = [
    (0, (10.0, 25.5), b""),
    (1, (10.0, 25.5), b""),
    (0, (41.0,), b"\x04\x00\x07"),
    (1, (41.0,), b"\x04\x00\x07"),
]


def _turns_digest(turns):
    digest = hashlib.sha256()
    for sid, completions, codes in turns:
        _hash_turn(digest.update, sid, array("d", completions), codes)
    return digest.hexdigest()


def test_interleave_digest_pins_every_completion_bit():
    moved = list(_TURNS)
    moved[1] = (1, (10.0, math.nextafter(25.5, math.inf)), b"")
    assert _turns_digest(moved) != _turns_digest(_TURNS)


def test_interleave_digest_pins_which_stream_ran_each_turn():
    swapped = [_TURNS[1], _TURNS[0], *_TURNS[2:]]
    assert _turns_digest(swapped) != _turns_digest(_TURNS)


def test_interleave_digest_pins_the_op_codes():
    recoded = list(_TURNS)
    recoded[3] = (1, (41.0,), b"\x04\x01\x07")
    assert _turns_digest(recoded) != _turns_digest(_TURNS)


# ----------------------------------------------------------------------
# Contention is real (and monotone in load)
# ----------------------------------------------------------------------


def test_concurrent_streams_contend():
    config = get_scheme("fsencr").configure(MachineConfig())
    service = run_service(config, _small_mix(), ClosedLoop())
    assert service.mc_queue["requests"] > 0
    assert service.mc_queue["contended"] > 0
    assert service.mc_queue["total_wait_ns"] > 0.0
    # Queue bundles live in the service registry, not any machine's —
    # per-stream RunResults stay scheme-pure.
    assert "mc_queue.requests" in service.service_stats
    for stream in service.streams:
        assert "mc_queue.requests" not in stream.run.stats
    # Pmemkv streams share one file each and never miss their stamped
    # FECB lines, so the OTT port stays idle in this mix.
    assert service.ott_queue["requests"] == 0


def test_ott_port_contends_under_many_files():
    config = get_scheme("fsencr").configure(MachineConfig())
    mix = [ManyFilesWorkload(num_files=96, seed=11 + 101 * index)
           for index in range(3)]
    service = run_service(config, mix, ClosedLoop())
    assert service.ott_queue["requests"] > 0
    assert "ott_queue.requests" in service.service_stats


def test_load_curve_p99_monotone_with_queue_stats():
    config = get_scheme("fsencr").configure(MachineConfig())
    curve = load_curve(
        config, "3xFillseq-S", loads=(0.25, 1.0), ops=60,
        percentiles=(50.0, 99.0),
    )
    assert [point["load"] for point in curve["points"]] == [0.25, 1.0]
    assert p99_monotone(curve["points"])
    for point in curve["points"]:
        assert point["mc_queue"]["requests"] > 0
        assert "ott_queue" in point
    low, high = curve["points"]
    assert high["mc_queue"]["total_wait_ns"] >= low["mc_queue"]["total_wait_ns"]


def test_render_load_curve_mentions_every_point():
    config = get_scheme("baseline_secure").configure(MachineConfig())
    curve = load_curve(
        config, "2xFillseq-S", loads=(0.5,), ops=40, percentiles=(50.0, 99.0, 99.9)
    )
    text = render_load_curve({"baseline_secure": curve})
    assert "baseline_secure" in text
    assert "0.50" in text


# ----------------------------------------------------------------------
# ServiceQueue mechanics
# ----------------------------------------------------------------------


def test_service_queue_fifo_wait_accounting():
    queue = ServiceQueue(name="q")
    assert queue.serve(0.0, 10.0) == 0.0
    assert queue.serve(4.0, 10.0) == 6.0  # busy until 10, arrived at 4
    assert queue.serve(30.0, 5.0) == 0.0  # idle gap
    assert queue.stats.get("requests") == 3
    assert queue.stats.get("contended") == 1
    assert queue.total_wait_ns == 6.0
    assert queue.max_wait_ns == 6.0
    summary = queue.summary()
    assert summary["requests"] == 3
    assert summary["busy_ns"] == 25.0


def test_service_queues_charge_caps_port_time_at_the_access():
    queues = ServiceQueues()
    queues.ott.serve(0.0, 130.0)  # an earlier holder keeps the port until 130
    # Arrives at 100, charged 50, three 20 ns lookups: the MC queue is
    # idle; the first lookup waits 30 for the port, and the third gets
    # only the 10 ns left of the access's 50.
    assert queues.charge(100.0, 50.0, 3, 20.0) == 30.0
    assert queues.mc.busy_until_ns == 150.0
    assert queues.ott.stats.get("requests") == 4
    assert queues.ott.total_service_ns == 130.0 + 20.0 + 20.0 + 10.0
    assert queues.ott.busy_until_ns == 180.0
    # No lookups: only the MC queue is charged.
    assert queues.charge(120.0, 10.0, 0, 20.0) == 30.0
    assert queues.ott.stats.get("requests") == 4


def test_service_queue_rejects_negative_inputs():
    queue = MemoryControllerQueue()
    with pytest.raises(ValueError):
        queue.serve(-1.0, 5.0)
    with pytest.raises(ValueError):
        queue.serve(0.0, float("nan"))


def test_service_queue_bundles_are_registered(orphan_bundles):
    # Every StatCounters that ServiceQueues builds is its registry's
    # bundle of that name, so queue counters reach the run's service_stats.
    queues = ServiceQueues()
    assert sorted(queues.registry.names) == ["mc_queue", "ott_queue"]
    assert orphan_bundles(queues) == []


# ----------------------------------------------------------------------
# Fast-path gate and machine plumbing
# ----------------------------------------------------------------------


def test_service_machine_inside_batch_fast_path():
    config = get_scheme("fsencr").configure(MachineConfig())
    machine = Machine(config)
    assert _supports_fast_path(machine)
    machine.attach_service_queues(ServiceQueues())
    assert _supports_fast_path(machine)


def test_uncapturable_stream_raises():
    class Surgeon(Fillseq):
        def run(self, machine):
            machine.chmod("/pmem/x", uid=1000, mode=0o600)  # not traceable

    config = get_scheme("fsencr").configure(MachineConfig())
    with pytest.raises(ValueError, match="not capturable"):
        run_service(config, [Surgeon(ops=10)], ClosedLoop())


# ----------------------------------------------------------------------
# Strict percentiles
# ----------------------------------------------------------------------


def test_strict_percentile_exact_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert strict_percentile(samples, 50.0) == 50
    assert strict_percentile(samples, 99.0) == 99
    assert strict_percentile(samples, 100.0) == 100


def test_strict_percentile_raises_on_empty():
    with pytest.raises(ValueError, match="empty"):
        strict_percentile([], 50.0)


def test_strict_percentile_raises_under_resolution():
    with pytest.raises(ValueError, match="at least 100 samples"):
        strict_percentile(list(range(99)), 99.0)
    with pytest.raises(ValueError, match="at least 1000 samples"):
        strict_percentile(list(range(999)), 99.9)
    # Exactly at the resolution bound is allowed — including p99.9 at
    # 1000 samples, where naive float division would demand 1001.
    assert strict_percentile(list(range(100)), 99.0) == 98
    assert strict_percentile(list(range(1000)), 99.9) == 999


def test_strict_percentile_rejects_bad_p():
    with pytest.raises(ValueError):
        strict_percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        strict_percentile([1.0], 101.0)


def test_percentile_summary_keys():
    summary = percentile_summary([float(v) for v in range(1000)], ps=(50.0, 99.0))
    assert set(summary) == {"p50_ns", "p99_ns", "mean_ns", "max_ns"}


# ----------------------------------------------------------------------
# Stream mixes
# ----------------------------------------------------------------------


def test_parse_stream_mix():
    specs = parse_stream_mix("3xFillseq-S+2xHashmap+DAX-1")
    assert specs == (
        StreamSpec(workload="Fillseq-S", count=3),
        StreamSpec(workload="Hashmap", count=2),
        StreamSpec(workload="DAX-1", count=1),
    )
    with pytest.raises(ValueError):
        parse_stream_mix("Fillseq-S++Hashmap")
    with pytest.raises(ValueError):
        StreamSpec(workload="Fillseq-S", count=0)


def test_stream_factories_decorrelate_seeds():
    factories = stream_factories("3xFillseq-S")
    workloads = [factory() for factory in factories]
    assert len(workloads) == 3
    # Stream 0 keeps the factory default seed exactly; later streams
    # are deterministically offset.
    assert workloads[0].seed == Fillseq().seed
    assert len({w.seed for w in workloads}) == 3
    again = [factory() for factory in stream_factories("3xFillseq-S")]
    assert [w.seed for w in again] == [w.seed for w in workloads]


def test_stream_factories_resolve_many_files():
    workload = stream_factories("2xManyFiles@25")[0]()
    assert isinstance(workload, ManyFilesWorkload)
    assert workload.churn == 0.25


# ----------------------------------------------------------------------
# ManyFiles churn knob
# ----------------------------------------------------------------------


def test_many_files_default_trace_has_no_churn():
    config = get_scheme("fsencr").configure(MachineConfig())
    machine = Machine(config)
    workload = ManyFilesWorkload(num_files=8, rounds=3)
    workload.setup(machine)
    trace = capture_workload(machine, workload)
    assert trace is not None
    assert all(op.op != "open" for op in trace.ops)


def test_many_files_churn_reopens_deterministically():
    schedule = ManyFilesWorkload(num_files=8, rounds=3, churn=0.5).churn_schedule()
    assert schedule == ManyFilesWorkload(num_files=8, rounds=3, churn=0.5).churn_schedule()
    assert len(schedule) == 3
    assert all(len(round_picks) == 4 for round_picks in schedule)

    config = get_scheme("fsencr").configure(MachineConfig())
    machine = Machine(config)
    workload = ManyFilesWorkload(num_files=8, rounds=3, churn=0.5)
    workload.setup(machine)
    trace = capture_workload(machine, workload)
    opens = [op for op in trace.ops if op.op == "open"]
    assert len(opens) == 12  # 4 files x 3 rounds
    # Churn must cost something: the reopened mappings fault again.
    plain = run_workload(config, ManyFilesWorkload(num_files=8, rounds=3))
    churned = run_workload(config, ManyFilesWorkload(num_files=8, rounds=3, churn=0.5))
    assert churned.elapsed_ns > plain.elapsed_ns


def test_many_files_churn_validation():
    with pytest.raises(ValueError):
        ManyFilesWorkload(churn=1.5)
    with pytest.raises(ValueError):
        ManyFilesWorkload(churn=-0.1)


# ----------------------------------------------------------------------
# Load-curve cell validation
# ----------------------------------------------------------------------


def test_loadcurve_cell_validation():
    config = MachineConfig()
    with pytest.raises(ValueError, match="at least one load"):
        load_curve(config, "Fillseq-S", ())
    with pytest.raises(ValueError, match="positive"):
        load_curve(config, "Fillseq-S", (0.0,))


def test_execute_loadcurve_cell_payload_shape():
    config = get_scheme("fsencr").configure(MachineConfig())
    curve = load_curve(config, "2xFillseq-S", (0.5,), ops=40)
    point = curve["points"][0]
    assert point["load"] == 0.5
    assert point["mc_queue"]["requests"] > 0
    assert "p99_ns" in point and "p99.9_ns" in point
    assert curve["streams"] == 2


# ----------------------------------------------------------------------
# Arrival-policy validation
# ----------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        ClosedLoop(window=0)
    with pytest.raises(ValueError):
        OpenLoop(interarrival_ns=0.0)
    with pytest.raises(ValueError):
        OpenLoop(interarrival_ns=10.0, distribution="uniform")
    assert "open" in OpenLoop(interarrival_ns=10.0).describe()
    assert "closed" in ClosedLoop().describe()
