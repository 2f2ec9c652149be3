"""The vectorized batch executor: capture -> compile -> sweep.

The contract under test is absolute: ``repro.sim.batch`` is an
execution strategy, never a model change.  Every cell it produces —
fast-path interpreted, or run directly outside the envelope — must be
bit-identical to per-access dispatch, across every registered scheme.
"""

import math
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.exec.spec import resolve_workload
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.secmem.metadata_cache import MetadataCacheConfig
from repro.sim import (
    BatchRunner,
    Machine,
    Trace,
    TraceRecorder,
    compile_trace,
    execute_compiled,
    get_scheme,
    replay,
    scheme_names,
)
from repro.sim.batch import _supports_fast_path
from repro.sim.config import MachineConfig, Scheme
from repro.sim.service import ClosedLoop, run_service
from repro.sim.trace import TraceOp
from repro.workloads import (
    ManyFilesWorkload,
    make_dax_micro,
    make_pmemkv_workload,
    make_whisper_workload,
)
from repro.workloads.base import Workload, compare_schemes, run_workload

_FACTORIES = {
    "DAX-1": lambda: make_dax_micro("DAX-1", iterations=120, seed=7),
    "Fillseq-S": lambda: make_pmemkv_workload("Fillseq-S", ops=24, seed=1234),
    "Hashmap": lambda: make_whisper_workload("Hashmap", ops=40, seed=99),
    # Word stores that sit in L1 until their persist: the one workload
    # here whose lines leave L1 dirty under a tiny hierarchy.
    "DAX-4": lambda: make_dax_micro("DAX-4", iterations=120, seed=7),
}


class _RedoTransfers(Workload):
    """Redo-logged transfers over two mmapped files: per transfer, append
    two log records (persist), persist the commit marker, apply both
    records to the data file, persist the invalidate marker — the
    densest persist-per-byte pattern here.  In functional mode the apply
    writes real bytes through ``store_bytes``, which the capture stub
    does not model."""

    name = "RedoTx"

    def __init__(self, accounts: int = 16, transfers: int = 20, seed: int = 3):
        super().__init__(seed=seed)
        self.accounts = accounts
        self.transfers = transfers

    def run(self, machine):
        encrypted = machine.config.scheme.has_file_encryption
        log_file = machine.create_file("/pmem/tx.log", uid=self.uid,
                                       encrypted=encrypted)
        data_file = machine.create_file("/pmem/tx.data", uid=self.uid,
                                        encrypted=encrypted)
        log = machine.mmap(log_file, pages=1)
        data = machine.mmap(data_file, pages=1)
        functional = machine.config.functional
        machine.mark_measurement_start()
        rng = self.rng()
        for _ in range(self.transfers):
            src = rng.randrange(self.accounts)
            dst = (src + rng.randrange(1, self.accounts)) % self.accounts
            machine.load(data + src * 8, 8)
            machine.load(data + dst * 8, 8)
            for slot in range(2):
                machine.persist(log + 16 + slot * 24, 24)  # append record
            machine.persist(log, 16)  # commit marker
            for account in (src, dst):
                if functional:
                    machine.store_bytes(data + account * 8,
                                        account.to_bytes(8, "big"))
                else:
                    machine.persist(data + account * 8, 8)
            machine.persist(log, 16)  # invalidate marker
            machine.compute(200.0)


class _Fenced(Workload):
    """Stores then an explicit ``fence()``: API the capture stub does
    not model in any mode, so every config falls back to a direct run."""

    name = "Fenced"

    def run(self, machine):
        handle = machine.create_file("/pmem/fenced", uid=self.uid)
        base = machine.mmap(handle, pages=1)
        machine.mark_measurement_start()
        for line in range(4):
            machine.store(base + line * 64, 8)
        machine.fence()


class _Compute(Workload):
    """One compute op of a given delay."""

    name = "Compute"

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay

    def run(self, machine):
        machine.compute(self.delay)


# Direct-mapped two-line L1 and L2: an L2 fill can then evict a line an
# earlier L1 victim left dirty there.
_TINY_HIERARCHY = HierarchyConfig(
    l1=CacheConfig(name="l1", size_bytes=128, ways=1, hit_latency=2.0),
    l2=CacheConfig(name="l2", size_bytes=128, ways=1, hit_latency=20.0),
    l3=CacheConfig(name="l3", size_bytes=512, ways=2, hit_latency=32.0),
)

#: Caches a few lines deep, so a short run crosses every arm the batch
#: interpreter hands to a reference method: dirty L1/L2 victims, MECB
#: and FECB misses with their Merkle walks, Merkle first-node misses,
#: and dirty metadata evictions — for the shared and partitioned
#: metadata cache alike.
_GEOMETRIES = {
    "default": MachineConfig(),
    "tiny": MachineConfig(
        hierarchy=_TINY_HIERARCHY,
        metadata_cache=MetadataCacheConfig(size_bytes=2048, ways=2),
    ),
    "tiny-partitioned": MachineConfig(
        hierarchy=_TINY_HIERARCHY,
        metadata_cache=MetadataCacheConfig(size_bytes=2048, ways=2, partitioned=True),
    ),
}


def _equivalence_cases():
    for scheme_name in scheme_names():
        for workload_name in ("DAX-1", "Fillseq-S", "Hashmap"):
            yield pytest.param(
                scheme_name, workload_name, "default",
                id=f"{scheme_name}-{workload_name}",
            )
        for geometry in ("tiny", "tiny-partitioned"):
            yield pytest.param(
                scheme_name, "DAX-4", geometry,
                id=f"{scheme_name}-DAX-4-{geometry}",
            )


@pytest.mark.parametrize("scheme_name,workload_name,geometry", _equivalence_cases())
def test_batched_equals_per_access(scheme_name, workload_name, geometry):
    """Every (workload, scheme) cell: batch == per-access, to the bit.

    This spans the whole execution envelope — DAX schemes run the
    inline interpreter, overlay schemes (conventional, software
    encryption) run it with the page-cache overlay, and anubis-wired
    variants are gated out to replay; all must agree with direct runs.
    The tiny geometries must provably reach the delegated miss arms.
    """
    factory = _FACTORIES[workload_name]
    config = get_scheme(scheme_name).configure(_GEOMETRIES[geometry])
    direct = run_workload(config, factory())
    batched = BatchRunner().run(config, factory())
    assert batched.to_dict() == direct.to_dict()
    if geometry != "default":
        stats = direct.stats
        assert stats.get("l1.dirty_evictions", 0) > 0
        assert stats.get("l2.dirty_evictions", 0) > 0
        if config.scheme in (Scheme.BASELINE_SECURE, Scheme.FSENCR):
            assert stats.get("metadata_cache.dirty_evictions", 0) > 0
            assert stats.get("metadata_cache.merkle_misses", 0) > 0


def test_transactional_workload_batches_bit_identically():
    """The persist-dense redo-log pattern exercises the flush/fence
    micro-ops harder than the KV suites."""
    config = get_scheme("fsencr").configure(MachineConfig())
    direct = run_workload(config, _RedoTransfers())
    batched = BatchRunner().run(
        get_scheme("fsencr").configure(MachineConfig()), _RedoTransfers()
    )
    assert batched.to_dict() == direct.to_dict()


def test_capture_fallback_for_untraceable_workload():
    """In functional mode the redo-log workload drives the byte-level
    API (store_bytes), which the capture stub deliberately does not
    model; batch execution must fall back to a plain direct run with
    identical results."""
    config = replace(
        get_scheme("fsencr").configure(MachineConfig()), functional=True
    )
    direct = run_workload(config, _RedoTransfers())
    batched = BatchRunner().run(config, _RedoTransfers())
    assert batched.to_dict() == direct.to_dict()


class TestBatchRunner:
    def test_trace_shared_across_schemes_in_one_encryption_class(self):
        runner = BatchRunner()
        for scheme_name in ("fsencr", "fsencr+wpq", "fsencr+partitioned"):
            config = get_scheme(scheme_name).configure(MachineConfig())
            result = runner.run(config, _FACTORIES["Hashmap"]())
            direct = run_workload(
                get_scheme(scheme_name).configure(MachineConfig()),
                _FACTORIES["Hashmap"](),
            )
            assert result.to_dict() == direct.to_dict()
        # One encryption class -> one captured/compiled trace.
        assert len(runner._compiled) == 1

    def test_encryption_classes_do_not_share_traces(self):
        """The recorded op stream depends on has_file_encryption (the
        ``encrypted`` flag on create); classes must compile separately."""
        runner = BatchRunner()
        runner.run(get_scheme("ext4dax_plain").configure(MachineConfig()),
                   _FACTORIES["DAX-1"]())
        runner.run(get_scheme("fsencr").configure(MachineConfig()),
                   _FACTORIES["DAX-1"]())
        assert len(runner._compiled) == 2

    def test_workloads_differing_in_any_field_do_not_share_a_trace(self):
        """Two ManyFiles sizes on one runner: same type, name, ops and
        seed, different ``num_files``.  Each cell must equal its direct
        run, so each size needs its own trace."""
        runner = BatchRunner()
        config = get_scheme("fsencr").configure(MachineConfig())
        for num_files in (4, 8):
            batched = runner.run(config, ManyFilesWorkload(num_files=num_files))
            direct = run_workload(config, ManyFilesWorkload(num_files=num_files))
            assert batched.to_dict() == direct.to_dict()
        assert len(runner._compiled) == 2

    def test_uncapturable_workload_memoised_as_none(self):
        config = get_scheme("fsencr").configure(MachineConfig())
        runner = BatchRunner()
        for _ in range(2):
            result = runner.run(config, _Fenced())
        assert list(runner._compiled.values()) == [None]
        assert result.to_dict() == run_workload(config, _Fenced()).to_dict()

    def test_cached_trace_is_compact_and_keeps_no_source(self):
        runner = BatchRunner()
        runner.run(get_scheme("fsencr").configure(MachineConfig()),
                   _FACTORIES["Hashmap"]())
        (compiled,) = runner._compiled.values()
        assert not hasattr(compiled, "trace")
        assert not hasattr(compiled, "_raw")
        assert type(compiled.kinds) is bytes
        assert type(compiled.addrs) is array and compiled.addrs.typecode == "q"
        assert len(compiled.addrs) == len(compiled.kinds)
        assert type(compiled.delays) is tuple and compiled.delays
        assert len(set(compiled.delays)) == len(compiled.delays)

    @pytest.mark.parametrize("functional", [False, True], ids=["anubis", "functional"])
    def test_out_of_envelope_config_runs_directly_and_caches_nothing(self, functional):
        scheme = "fsencr" if functional else "fsencr+anubis"
        config = replace(get_scheme(scheme).configure(MachineConfig()),
                         functional=functional)
        assert not _supports_fast_path(Machine(config))
        runner = BatchRunner()
        result = runner.run(config, _FACTORIES["Hashmap"]())
        assert runner._compiled == {}
        assert result.to_dict() == run_workload(config, _FACTORIES["Hashmap"]()).to_dict()


class TestCompile:
    @staticmethod
    def _recorded_trace():
        machine = Machine(MachineConfig())
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        recorder = TraceRecorder(machine, name="t")
        handle = recorder.create_file("/pmem/f", uid=1000)
        base = recorder.mmap(handle, pages=1)
        recorder.mark_measurement_start()
        recorder.store(base, 128)       # two lines
        recorder.persist(base, 8)       # write + flush + fence
        recorder.compute(12.5)
        return recorder.trace

    def test_micro_op_expansion(self):
        trace = self._recorded_trace()
        compiled = compile_trace(trace)
        # store(128B)=2 writes; persist(8B)=1 write + 1 flush + 1 fence;
        # compute=1.  Structural ops split chunks, not micro-ops.
        assert len(compiled) == 6
        assert len(compiled.rares) == 3  # create, mmap, mark
        # The compute row indexes the trace's delay table.
        assert compiled.kinds[-1] == 4 and compiled.addrs[-1] == 0
        assert compiled.delays == (12.5,)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
    def test_bad_compute_delay_rejected_by_both_executors(self, delay):
        machine = Machine(MachineConfig())
        with pytest.raises(ValueError, match="compute delay"):
            machine.compute(delay)
        assert machine.clock_ns == 0.0
        with pytest.raises(ValueError, match="compute delay"):
            compile_trace(Trace(name="bad", ops=[TraceOp(op="compute", ns=delay)]))
        config = MachineConfig()
        with pytest.raises(ValueError, match="compute delay"):
            run_workload(config, _Compute(delay))
        with pytest.raises(ValueError, match="compute delay"):
            BatchRunner().run(config, _Compute(delay))

    def test_invalid_size_rejected_eagerly(self):
        trace = Trace(name="bad", ops=[TraceOp(op="load", addr=0, size=0)])
        with pytest.raises(ValueError, match="size"):
            compile_trace(trace)

    def test_unknown_op_rejected(self):
        trace = Trace(name="bad", ops=[TraceOp(op="warp", addr=0, size=8)])
        with pytest.raises(ValueError, match="warp"):
            compile_trace(trace)

    def test_execute_compiled_matches_replay(self):
        trace = self._recorded_trace()
        compiled = compile_trace(trace)

        fresh = Machine(MachineConfig())
        fresh.add_user(uid=1000, gid=100, passphrase="pw")
        execute_compiled(compiled, fresh)

        reference = Machine(MachineConfig())
        reference.add_user(uid=1000, gid=100, passphrase="pw")
        replay(trace, reference)
        assert fresh.result("t").to_dict() == reference.result("t").to_dict()


_PAGES = 2
_DELAYS = (0.0, 12.5, 40.0, 0.1, 7.25)
_ACCESS = st.tuples(
    st.sampled_from(("load", "store", "persist")),
    st.integers(0, 1),                    # file
    st.integers(0, _PAGES * 64 - 3),      # first line
    st.integers(0, 63),                   # byte offset in that line
    st.integers(1, 192),                  # size, clipped to 3 lines
)
#: Persists of one line: past the 7-bit minor field, so the MECB (and,
#: on an FsEncr file page, the FECB) minor overflows and the page is
#: re-encrypted.
_HAMMER_PERSISTS = 130
_HAMMER = st.tuples(st.just("hammer"), st.integers(0, 1), st.integers(0, _PAGES * 64 - 1))
_OP = st.one_of(_ACCESS, st.sampled_from(_DELAYS).map(lambda ns: ("compute", ns)), _HAMMER)


def _generated_trace(config, files, ops) -> Trace:
    """A trace over ``files`` mmapped files: the preamble is recorded on
    a real machine (for the mmap bases), the generated ops appended."""
    machine = Machine(config)
    machine.add_user(uid=1000, gid=100, passphrase="pw")
    recorder = TraceRecorder(machine, name="generated")
    encrypted = config.scheme.has_file_encryption
    bases = [
        recorder.mmap(recorder.create_file(f"/pmem/g{index}", uid=1000,
                                           encrypted=encrypted), pages=_PAGES)
        for index in range(files)
    ]
    recorder.mark_measurement_start()
    trace = recorder.trace
    for op in ops:
        if op[0] == "compute":
            trace.append(TraceOp(op="compute", ns=op[1]))
        elif op[0] == "hammer":
            _, file, line = op
            for _ in range(_HAMMER_PERSISTS):
                trace.append(TraceOp(op="persist", addr=bases[file % files] + line * 64, size=64))
        else:
            name, file, line, offset, size = op
            trace.append(TraceOp(op=name, addr=bases[file % files] + line * 64 + offset,
                                 size=min(size, 192 - offset)))
    return trace


class _Replayed(Workload):
    """A generated trace as a workload: the test's user, then the ops."""

    name = "generated"

    def __init__(self, trace: Trace):
        super().__init__()
        self.trace = trace

    def setup(self, machine):
        machine.add_user(uid=1000, gid=100, passphrase="pw")

    def run(self, machine):
        replay(self.trace, machine)


_TINY_FSENCR = replace(
    get_scheme("fsencr").configure(MachineConfig()).with_metadata_cache(512),
    ott_banks=1, ott_entries_per_bank=1)
#: Data caches one or two lines deep: the reference cache walk's dirty
#: L1/L2 victims and L3 misses (allocations with victims) on every run.
_TINY_CACHES_FSENCR = replace(
    get_scheme("fsencr").configure(MachineConfig()), hierarchy=_TINY_HIERARCHY)


def test_compiled_equals_replay_on_generated_traces():
    """The interpreter and the reference path agree on generated
    traces, not just on the pinned grid: multi-line accesses over one
    or two files, repeated, non-integral compute delays, and hammered
    lines whose MECB and FECB minors overflow (page re-encryption).
    FsEncr with a 512 B metadata cache and a one-slot OTT forces the
    delegated arms: FECB misses, OTT refills and spills must all occur.
    FsEncr with tiny data caches drives dirty L1/L2 victims and L3
    misses through the reference cache walk.  A 1-stream closed-loop
    service run of the same ops equals the classic run."""
    configs = [get_scheme(name).configure(MachineConfig())
               for name in ("ext4dax_plain", "baseline_secure", "fsencr")]
    service_configs = configs[1:]
    configs += [_TINY_FSENCR, _TINY_CACHES_FSENCR]
    tally = {"fecb_misses": 0, "ott_refills": 0, "ott_spills": 0,
             "minor_overflows": 0, "fecb_minor_overflows": 0,
             "l1_dirty_evictions": 0, "l2_dirty_evictions": 0, "l3_misses": 0}

    @seed(20221)
    @settings(max_examples=25, deadline=None)
    @given(files=st.integers(1, 2), ops=st.lists(_OP, min_size=1, max_size=40))
    def check(files, ops):
        for config in configs:
            trace = _generated_trace(config, files, ops)
            machines = []
            for run in (lambda m: execute_compiled(compile_trace(trace), m),
                        lambda m: replay(trace, m)):
                machine = Machine(config)
                machine.add_user(uid=1000, gid=100, passphrase="pw")
                assert _supports_fast_path(machine)
                run(machine)
                machines.append(machine)
            compiled, reference = (m.result("generated").to_dict() for m in machines)
            assert compiled == reference, config.scheme.value
            if config in service_configs:
                service = run_service(config, [_Replayed(trace)], ClosedLoop())
                assert service.streams[0].run.to_dict() == reference, config.scheme.value
            controller = machines[0].controller
            if config.scheme.has_secure_controller:
                tally["minor_overflows"] += controller.stats.counters["minor_overflows"]
            if config.scheme is Scheme.FSENCR:
                tally["fecb_minor_overflows"] += controller.stats.counters["fecb_minor_overflows"]
            if config is _TINY_FSENCR:
                tally["fecb_misses"] += (
                    controller.metadata_cache.stats.counters["fecb_misses"])
                tally["ott_refills"] += controller.stats.counters["ott_refills"]
                tally["ott_spills"] += controller.stats.counters["ott_spills"]
            if config is _TINY_CACHES_FSENCR:
                hierarchy = machines[1].hierarchy  # the reference walk's
                tally["l1_dirty_evictions"] += hierarchy.l1.stats.counters["dirty_evictions"]
                tally["l2_dirty_evictions"] += hierarchy.l2.stats.counters["dirty_evictions"]
                tally["l3_misses"] += hierarchy.l3.stats.counters["misses"]

    check()
    assert all(tally.values()), tally


class TestFastPathGate:
    def test_histogram_forces_fallback(self):
        machine = Machine(get_scheme("fsencr").configure(MachineConfig()))
        assert _supports_fast_path(machine)
        machine.attach_histogram()
        assert not _supports_fast_path(machine)

    def test_functional_mode_forces_fallback(self):
        config = replace(
            get_scheme("fsencr").configure(MachineConfig()), functional=True
        )
        assert not _supports_fast_path(Machine(config))

    @pytest.mark.parametrize("gate", ["histogram", "functional"])
    def test_execute_compiled_rejects_machine_outside_envelope(self, gate):
        """Outside the envelope there is no replay fallback: a compiled
        trace keeps no source to replay."""
        config = get_scheme("fsencr").configure(MachineConfig())
        if gate == "functional":
            config = replace(config, functional=True)
        machine = Machine(config)
        if gate == "histogram":
            machine.attach_histogram()
        trace = TestCompile._recorded_trace()
        with pytest.raises(ValueError, match="envelope"):
            execute_compiled(compile_trace(trace), machine)

    def test_histogram_cell_still_bit_identical(self):
        """Fallback cells are not second-class: a histogram-bearing
        machine replays the trace and must agree with direct."""
        def drive(machine):
            handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
            base = machine.mmap(handle, pages=2)
            machine.mark_measurement_start()
            for i in range(32):
                machine.store(base + i * 64, 64)

        config = get_scheme("fsencr").configure(MachineConfig())
        direct = Machine(config)
        direct.add_user(uid=1000, gid=100, passphrase="pw")
        direct_hist = direct.attach_histogram()
        recorder = TraceRecorder(direct, name="t")
        drive(recorder)

        replayed = Machine(config)
        replayed.add_user(uid=1000, gid=100, passphrase="pw")
        replayed_hist = replayed.attach_histogram()
        replay(recorder.trace, replayed)
        assert replayed.result("t").to_dict() == direct.result("t").to_dict()
        assert replayed_hist.as_dict() == direct_hist.as_dict()


class TestCompareSchemesBatch:
    def test_compare_schemes_identical_to_per_access(self):
        """compare_schemes runs every column through one BatchRunner;
        its results must equal per-access runs of every column."""
        schemes = ("baseline_secure", "fsencr")
        comparison = compare_schemes(resolve_workload("Fillseq-S", ops=24), schemes=schemes)
        for scheme_name in schemes:
            config = get_scheme(scheme_name).configure(MachineConfig())
            direct = run_workload(config, resolve_workload("Fillseq-S", ops=24)())
            assert comparison.runs[scheme_name] == direct
