"""The vectorized batch executor: capture -> compile -> sweep.

The contract under test is absolute: ``repro.sim.batch`` is an
execution strategy, never a model change.  Every cell it produces —
fast-path interpreted, replay-fallback, or capture-fallback — must be
bit-identical to per-access dispatch, across every registered scheme.
"""

from dataclasses import replace

import pytest

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
from repro.sim.trace import TraceOp
from repro.workloads import make_dax_micro, make_pmemkv_workload, make_whisper_workload
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

    def test_uncapturable_workload_memoised_as_none(self):
        config = replace(
            get_scheme("fsencr").configure(MachineConfig()), functional=True
        )
        runner = BatchRunner()
        for _ in range(2):
            runner.run(config, _RedoTransfers(transfers=5))
        key = next(iter(runner._compiled))
        assert runner._compiled[key] is None


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
        compiled = compile_trace(self._recorded_trace())
        # store(128B)=2 writes; persist(8B)=1 write + 1 flush + 1 fence;
        # compute=1.  Structural ops split chunks, not micro-ops.
        assert len(compiled) == 6
        assert len(compiled.rares) == 3  # create, mmap, mark
        assert compiled.trace.ops[0].op == "create"

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

    def test_histogram_cell_still_bit_identical(self):
        """Fallback cells are not second-class: a histogram-bearing
        machine batches through replay and must agree with direct."""
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
        execute_compiled(compile_trace(recorder.trace), replayed)
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
