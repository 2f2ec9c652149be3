"""Batched trace execution: compile once, sweep flat micro-op arrays.

The per-access path (``Machine.load`` -> ``MMU.translate`` ->
``CacheHierarchy.access`` -> ``controller.access`` -> ``NVMDevice``) is
faithful but slow: every simulated line access crosses five Python call
boundaries and allocates request/outcome objects.  This module keeps the
*model* identical while removing the dispatch:

1. **Capture** — the workload runs once against a recording stub
   (:func:`capture_workload`), producing a :class:`~repro.sim.trace.Trace`
   without touching the machine's timing state.  Workloads that reach
   beyond the traceable API (functional byte access, crash lifecycle,
   filesystem management) are detected and fall back to direct
   execution.
2. **Compile** — :func:`compile_trace` expands the trace into three
   parallel lists (op kind, line vaddr, compute ns), split into chunks
   at the rare structural ops (create/open/mmap/mark).
3. **Execute** — :func:`execute_compiled` sweeps the lists in one
   interpreter loop.  Only the measured-hot hit probes are inlined as
   direct ``OrderedDict`` probes: TLB hit, L1/L2/L3 hits,
   MECB/FECB/Merkle-first-node hits, OTT hit, and the NVM row buffer.
   Stats are accumulated in flat pend arrays and flushed per chunk.
   Every miss and rare path calls the *real* component method: TLB
   miss and page fault, L1/L2 dirty victims
   (``CacheHierarchy._push_down``), MECB/FECB misses with their Merkle
   verification (``_fetch_metadata_line``), Merkle first-node misses
   (``_update_merkle_path``), counter overflow, OTT refill, and
   page-cache faults.  Each miss rule therefore exists once, and every
   golden digest is bit-identical to per-access dispatch.  The NVM row
   buffer stays inline on a row miss too: about 30% of NVM accesses
   miss the row, and calling ``NVMDevice`` for them measured slower in
   every run (docs/BATCH.md).  Machines the
   interpreter does not model (functional mode, histograms, service
   queues, crash domains, Anubis) replay the trace through
   :func:`~repro.sim.trace.replay` instead.

Bit-identity is the hard pin: the inline probes replicate the reference
path's exact float-addition order (latencies accumulate into the clock
in the same association), its exact LRU mutations (``move_to_end`` /
``popitem`` sequences), and its exact stat increments on every
*registered* bundle.  Delegated methods add straight to those bundles
while the pend arrays flush into them later; every counter is a sum, so
the interleaving does not change a result.  The only tolerated
divergence is the counters of unregistered structural bundles (the
metadata cache's internal tag store), which are invisible to results
and digests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.fsencr import FsEncrController
from ..mem.controller import MemoryRequest, PlainMemoryController
from ..mem.dfbit import DF_MASK
from ..secmem.counters import MINOR_BITS
from ..secmem.metadata_cache import MetadataKind
from ..secmem.secure_controller import BaselineSecureController
from .machine import Machine
from .trace import (
    COMPUTE,
    CREATE,
    LOAD,
    MARK,
    MMAP,
    OPEN,
    PERSIST,
    STORE,
    Trace,
    TraceCursor,
    TraceOp,
    replay,
)

__all__ = [
    "BatchRunner",
    "CompiledTrace",
    "capture_workload",
    "compile_trace",
    "execute_compiled",
]

# Micro-op kinds (the ``kinds`` column of the compiled trace).
_ACC_READ = 0
_ACC_WRITE = 1
_FLUSH = 2
_FENCE = 3
_COMPUTE = 4

_FENCE_NS = 10.0
_ADR_DRAIN_NS = 60.0
_MINOR_LIMIT = 1 << MINOR_BITS

# Pend-array slots for the per-level cache bundles.
_HITS, _MISSES, _EVICTIONS, _DIRTY_EVICTIONS, _WRITEBACKS = range(5)
_CACHE_KEYS = ("hits", "misses", "evictions", "dirty_evictions", "writebacks")

_NVM_KEYS = (
    "reads",
    "writes",
    "row_hits",
    "row_misses",
    "dirty_row_writebacks",
    "adaptive_closes",
    "persist_writes",
)
(_N_READS, _N_WRITES, _N_ROW_HITS, _N_ROW_MISSES,
 _N_DIRTY_WB, _N_ADAPTIVE, _N_PERSIST) = range(7)

_CTRL_KEYS = (
    "read_requests",
    "write_requests",
    "osiris_counter_persists",
    "osiris_fecb_persists",
    "dax_requests",
)
_C_READ_REQ, _C_WRITE_REQ, _C_OSIRIS_CP, _C_OSIRIS_FP, _C_DAX = range(5)

# Only the hit-path counters: misses are counted by the reference methods.
_META_KEYS = (
    "mecb_hits", "mecb_writes",
    "fecb_hits", "fecb_writes",
    "merkle_hits", "merkle_writes",
)
(_M_MECB_H, _M_MECB_W,
 _M_FECB_H, _M_FECB_W,
 _M_MERKLE_H, _M_MERKLE_W) = range(6)

_OSIRIS_KEYS = ("updates", "forced_persists")
_NOT_MAPPED = object()  # overlay region-memo sentinel


class CompiledTrace:
    """A trace lowered to flat micro-op lists plus its rare-op schedule.

    ``kinds``/``addrs``/``ns`` are parallel lists, one row per
    micro-op: cache-line accesses, line flushes, fences, and compute
    delays.  ``chunks`` lists ``(lo, hi)`` windows between structural
    ops; ``rares[i]`` executes after ``chunks[i]``.
    """

    __slots__ = ("_trace", "_name", "_raw", "kinds", "addrs", "ns",
                 "chunks", "rares")

    def __init__(self, trace: Optional[Trace], kinds, addrs, ns,
                 chunks: List[Tuple[int, int]], rares: List[TraceOp],
                 name: str = "", raw: Optional[list] = None) -> None:
        self._trace = trace
        self._name = name
        self._raw = raw
        self.kinds = kinds
        self.addrs = addrs
        self.ns = ns
        self.chunks = chunks
        self.rares = rares

    @property
    def trace(self) -> Trace:
        """The source trace; captured traces materialize it on demand.

        Capture records plain tuples because TraceOp construction
        dominates capture time; only the replay fallback (and explicit
        save/export) needs real TraceOps, so they are built here.
        """
        if self._trace is None:
            self._trace = Trace(
                name=self._name,
                ops=[TraceOp(*rec) for rec in self._raw],
            )
            self._raw = None
        return self._trace

    def __len__(self) -> int:
        return len(self.kinds)


def _lower(records):
    """Lower raw op records — ``(op, addr, size, path, flag, ns, uid)``
    tuples in TraceOp field order — to the flat micro-op arrays."""
    kinds: List[int] = []
    addrs: List[int] = []
    ns: List[float] = []
    chunks: List[Tuple[int, int]] = []
    rares: List[TraceOp] = []
    lo = 0
    for rec in records:
        mnemonic = rec[0]
        if mnemonic == LOAD or mnemonic == STORE or mnemonic == PERSIST:
            addr = rec[1]
            size = rec[2]
            if size <= 0:
                raise ValueError("size must be positive")
            first = addr & ~63
            last = (addr + size - 1) & ~63
            kind = _ACC_READ if mnemonic == LOAD else _ACC_WRITE
            line = first
            while line <= last:
                kinds.append(kind)
                addrs.append(line)
                ns.append(0.0)
                line += 64
            if mnemonic == PERSIST:
                line = first
                while line <= last:
                    kinds.append(_FLUSH)
                    addrs.append(line)
                    ns.append(0.0)
                    line += 64
                kinds.append(_FENCE)
                addrs.append(0)
                ns.append(0.0)
        elif mnemonic == COMPUTE:
            kinds.append(_COMPUTE)
            addrs.append(0)
            ns.append(rec[5])
        elif mnemonic in (CREATE, OPEN, MMAP, MARK):
            chunks.append((lo, len(kinds)))
            rares.append(TraceOp(*rec))
            lo = len(kinds)
        else:
            raise ValueError(f"unknown trace op {mnemonic!r}")
    chunks.append((lo, len(kinds)))
    return kinds, addrs, ns, chunks, rares


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower a trace to micro-op arrays.

    Loads/stores expand to one access per covered cache line; a persist
    becomes its write accesses, then one flush per line, then a fence —
    exactly the sequence ``Machine.persist`` issues.  Invalid sizes are
    rejected here (the per-access path raises the same ``ValueError``,
    just lazily at the offending op).
    """
    kinds, addrs, ns, chunks, rares = _lower(
        (op.op, op.addr, op.size, op.path, op.flag, op.ns, op.uid)
        for op in trace.ops
    )
    return CompiledTrace(trace, kinds, addrs, ns, chunks, rares)


def _compile_raw(name: str, raw: list) -> CompiledTrace:
    """Compile straight from capture's raw tuples; the Trace object is
    only materialized if the replay fallback (or a save) needs it."""
    kinds, addrs, ns, chunks, rares = _lower(raw)
    return CompiledTrace(None, kinds, addrs, ns, chunks, rares,
                         name=name, raw=raw)


# ----------------------------------------------------------------------
# Capture: run a workload against a recording stub
# ----------------------------------------------------------------------


class _CaptureUnsupported(Exception):
    """The workload used an API the capture stub cannot model."""


class _RecordingHandle:
    """Stand-in for a FileHandle during capture; replay re-creates the
    real handle from (path, uid)."""

    __slots__ = ("path", "uid")

    def __init__(self, path: str, uid: int) -> None:
        self.path = path
        self.uid = uid


class _CaptureMachine:
    """Machine-API stub that records instead of simulating.

    Deliberately *without* a passthrough ``__getattr__``: any machine
    attribute the stub does not model raises ``AttributeError``, which
    :func:`capture_workload` converts into a clean fallback to direct
    execution.  The stub mirrors only the state workloads observe
    through the traced API — the mmap address allocator.
    """

    def __init__(self, machine: Machine, name: str) -> None:
        self.name = name
        # Raw (op, addr, size, path, flag, ns, uid) tuples — TraceOp
        # field order, but ~5x cheaper to create than the dataclass, and
        # capture is a fixed cost the sweep has to amortize.
        self.raw: list = []
        self._rec = self.raw.append
        self._config = machine.config
        # Mirror of Machine._next_vpn so recorded workloads see the
        # same mmap base addresses replay will produce.
        self._next_vpn = machine._next_vpn

    @property
    def config(self):
        return self._config

    def create_file(self, path: str, uid: int, mode: int = 0o644,
                    encrypted: bool = False) -> _RecordingHandle:
        self._rec((CREATE, uid, mode, path, encrypted, 0.0, 0))
        return _RecordingHandle(path, uid)

    def open_file(self, path: str, uid: int, write: bool = False) -> _RecordingHandle:
        self._rec((OPEN, uid, 0, path, write, 0.0, 0))
        return _RecordingHandle(path, uid)

    def mmap(self, handle, pages: int, file_page_start: int = 0) -> int:
        if not isinstance(handle, _RecordingHandle):
            # A real FileHandle from setup-time state the stub never saw.
            raise _CaptureUnsupported("mmap of a handle opened outside capture")
        if pages <= 0:
            # Let direct execution raise the real error in real state.
            raise _CaptureUnsupported("invalid mmap size")
        self._rec((MMAP, file_page_start, pages, handle.path, False,
                   0.0, handle.uid))
        base = self._next_vpn
        self._next_vpn += pages + 8  # Machine.mmap's guard gap
        return base * 4096

    def load(self, vaddr: int, size: int = 8) -> None:
        self._rec((LOAD, vaddr, size, "", False, 0.0, 0))

    def store(self, vaddr: int, size: int = 8) -> None:
        self._rec((STORE, vaddr, size, "", False, 0.0, 0))

    def persist(self, vaddr: int, size: int = 8) -> None:
        self._rec((PERSIST, vaddr, size, "", False, 0.0, 0))

    def compute(self, ns: float) -> None:
        self._rec((COMPUTE, 0, 0, "", False, float(ns), 0))

    def mark_measurement_start(self) -> None:
        self._rec((MARK, 0, 0, "", False, 0.0, 0))


def _capture_raw(machine: Machine, workload) -> Optional[_CaptureMachine]:
    """Record the workload's operation stream without running the model.

    Returns None when the workload steps outside the traceable API
    (functional byte access, fs management calls, crash lifecycle...);
    the caller then runs it directly.
    """
    stub = _CaptureMachine(machine, getattr(workload, "name", "trace"))
    try:
        workload.run(stub)
    except (AttributeError, _CaptureUnsupported):
        return None
    return stub


def capture_workload(machine: Machine, workload) -> Optional[Trace]:
    """Record a workload into a :class:`Trace` (None if uncapturable)."""
    stub = _capture_raw(machine, workload)
    if stub is None:
        return None
    return Trace(name=stub.name, ops=[TraceOp(*rec) for rec in stub.raw])


# ----------------------------------------------------------------------
# Execute
# ----------------------------------------------------------------------


def _supports_fast_path(machine: Machine) -> bool:
    """Whether the inline interpreter models this machine exactly."""
    if machine.config.functional or machine._crashed:
        return False
    if machine.latency_histogram is not None:
        return False
    if machine.service_queues is not None:
        # Service-model streams charge queueing delay per controller
        # access; the inline interpreter knows nothing about it, so a
        # stream machine always takes the reference path.
        return False
    controller = machine.controller
    kind = type(controller)
    if kind is PlainMemoryController:
        return True
    if kind is BaselineSecureController or kind is FsEncrController:
        return (
            controller.anubis_shadow is None
            and controller.crash_domain is None
            and machine.overlay is None
        )
    return False


def execute_compiled(compiled: CompiledTrace, machine: Machine) -> None:
    """Run a compiled trace on a machine, bit-identically.

    Machines outside the interpreter's envelope (functional mode,
    histograms attached, service queues, crash/Anubis wiring, custom
    controllers) replay the original trace through the reference path.
    """
    if _supports_fast_path(machine):
        _interpret(compiled, machine)
    else:
        replay(compiled.trace, machine)


def _workload_trace_key(config, workload) -> tuple:
    """Cache key under which a compiled trace may be reused.

    A workload's op stream is a pure function of its own parameters plus
    the single config bit it reads on the traced path — whether the
    scheme encrypts files (it decides the ``encrypted`` flag on
    create).  Everything else about the scheme changes how ops *cost*,
    not which ops occur, so one compiled trace serves every scheme in
    the same encryption class.
    """
    return (
        type(workload).__name__,
        getattr(workload, "name", ""),
        getattr(workload, "ops", None),
        getattr(workload, "iterations", None),
        getattr(workload, "seed", None),
        bool(config.scheme.has_file_encryption),
    )


class BatchRunner:
    """Grid executor that compiles each workload once and sweeps the
    arrays across schemes.

    This is where batching earns its keep: in an N-scheme comparison the
    workload's own Python (RNG, key mixing, op generation) runs once per
    encryption class instead of once per cell, and every cell is the
    flat-array sweep.  Cells remain bit-identical to per-access runs —
    the cache key only spans configs that provably record the same
    trace.
    """

    def __init__(self) -> None:
        self._compiled: Dict[tuple, Optional[CompiledTrace]] = {}

    def run(self, config, workload):
        machine = Machine(config)
        workload.setup(machine)
        key = _workload_trace_key(config, workload)
        if key in self._compiled:
            compiled = self._compiled[key]
        else:
            stub = _capture_raw(machine, workload)
            compiled = (_compile_raw(stub.name, stub.raw)
                        if stub is not None else None)
            self._compiled[key] = compiled
        if compiled is None:
            workload.run(machine)
        else:
            execute_compiled(compiled, machine)
        return machine.result(workload.name)


def _interpret(compiled: CompiledTrace, machine: Machine) -> None:
    """The inline interpreter.  One big function on purpose: every
    measured-hot hit path is flattened into locals and closures so a
    line access costs dict probes, not call stacks.  Each inline probe
    mirrors a specific reference method (named in the comments); every
    miss, dirty victim and overflow calls that method instead of a
    copy.  A behavioural change to a mirrored hit path must be mirrored
    here — the golden-digest and batch-equivalence suites enforce it.
    """
    config = machine.config
    controller = machine.controller
    ctrl_kind = type(controller)
    is_plain = ctrl_kind is PlainMemoryController
    is_fsencr = ctrl_kind is FsEncrController

    device = machine.device
    overlay = machine.overlay
    wpq = machine.wpq
    wpq_accept = wpq.accept if wpq is not None else None
    wcf = config.write_contention_factor

    # -- deferred stat buffers (flushed at chunk boundaries) -----------
    pend_nvm = [0] * len(_NVM_KEYS)
    pend_ctrl = [0] * len(_CTRL_KEYS)
    pend_tlb = [0]
    pend_mmu = [0]
    pend_l1 = [0] * len(_CACHE_KEYS)
    pend_l2 = [0] * len(_CACHE_KEYS)
    pend_l3 = [0] * len(_CACHE_KEYS)
    pend_meta = [0] * len(_META_KEYS)
    pend_osiris = [0, 0]
    pend_ott = [0]
    pend_pc = [0]

    mmu_obj = machine.mmu
    tlb = mmu_obj.tlb
    hierarchy = machine.hierarchy
    l1, l2, l3 = hierarchy.l1, hierarchy.l2, hierarchy.l3

    flush_specs = [
        (pend_tlb, ("hits",), tlb.stats.counters),
        (pend_mmu, ("translations",), mmu_obj.stats.counters),
        (pend_l1, _CACHE_KEYS, l1.stats.counters),
        (pend_l2, _CACHE_KEYS, l2.stats.counters),
        (pend_l3, _CACHE_KEYS, l3.stats.counters),
        (pend_nvm, _NVM_KEYS, device.stats.counters),
        (pend_ctrl, _CTRL_KEYS, controller.stats.counters),
    ]
    if not is_plain:
        flush_specs.append(
            (pend_meta, _META_KEYS, controller.metadata_cache.stats.counters)
        )
        flush_specs.append((pend_osiris, _OSIRIS_KEYS, controller.osiris.stats.counters))
    if is_fsencr:
        flush_specs.append((pend_ott, ("hits",), controller.ott.stats.counters))
    if overlay is not None:
        flush_specs.append((pend_pc, ("hits",), overlay.page_cache.stats.counters))

    def flush_stats() -> None:
        for pend, keys, counters in flush_specs:
            for index, value in enumerate(pend):
                if value:
                    counters[keys[index]] += value
                    pend[index] = 0

    # -- NVMDevice.read/write/_access, inlined -------------------------
    # Row misses stay here rather than delegating: they are not cold.
    timing = device.timing
    ROW_HIT = timing.row_hit_ns
    ROW_MISS = timing.row_miss_read_ns
    DIRTY_EVICT = timing.dirty_evict_ns
    ADAPT = device.ADAPT_THRESHOLD
    locate = device._locate
    track_wear = device._track_wear
    wear = device._wear
    bank_memo: Dict[int, tuple] = {}

    def dev_bank(addr: int) -> tuple:
        """NVMDevice._locate, memoized per address."""
        entry = bank_memo.get(addr)
        if entry is None:
            entry = bank_memo[addr] = locate(addr)
        return entry

    def dev_read_miss(bank, row: int) -> float:
        """NVMDevice._access read-path row miss (adaptive row policy)."""
        misses = bank.consecutive_misses + 1
        pend_nvm[_N_ROW_MISSES] += 1
        latency = ROW_MISS
        if bank.open_row is not None and bank.dirty:
            latency += DIRTY_EVICT
            pend_nvm[_N_DIRTY_WB] += 1
        bank.dirty = False
        if misses >= ADAPT:
            bank.open_row = None
            bank.consecutive_misses = 0
            pend_nvm[_N_ADAPTIVE] += 1
        else:
            bank.open_row = row
            bank.consecutive_misses = misses
        return latency

    def dev_write_miss(bank, row: int) -> float:
        """NVMDevice._access write-path row miss."""
        misses = bank.consecutive_misses + 1
        pend_nvm[_N_ROW_MISSES] += 1
        latency = ROW_MISS
        if bank.open_row is not None and bank.dirty:
            latency += DIRTY_EVICT
            pend_nvm[_N_DIRTY_WB] += 1
        if misses >= ADAPT:
            bank.open_row = None
            bank.consecutive_misses = 0
            bank.dirty = False
            pend_nvm[_N_ADAPTIVE] += 1
        else:
            bank.open_row = row
            bank.consecutive_misses = misses
            bank.dirty = True
        return latency

    def dev_read(addr: int) -> float:
        pend_nvm[_N_READS] += 1
        bank, row = dev_bank(addr)
        if bank.open_row == row:
            bank.consecutive_misses = 0
            pend_nvm[_N_ROW_HITS] += 1
            return ROW_HIT
        return dev_read_miss(bank, row)

    def dev_write(addr: int, persist: bool = False) -> float:
        pend_nvm[_N_WRITES] += 1
        if track_wear:
            line = addr & ~63
            wear[line] = wear.get(line, 0) + 1
        bank, row = dev_bank(addr)
        if bank.open_row == row:
            bank.consecutive_misses = 0
            pend_nvm[_N_ROW_HITS] += 1
            latency = ROW_HIT
            bank.dirty = True
        else:
            latency = dev_write_miss(bank, row)
        if persist:
            latency += DIRTY_EVICT
            bank.dirty = False
            pend_nvm[_N_PERSIST] += 1
        return latency

    # -- CacheHierarchy hit probes over line numbers ------------------
    s1, n1, w1 = l1._sets, l1._num_sets, l1._ways
    s2, n2, w2 = l2._sets, l2._num_sets, l2._ways
    s3, n3, w3 = l3._sets, l3._num_sets, l3._ways
    flush_levels = ((s1, n1, pend_l1), (s2, n2, pend_l2), (s3, n3, pend_l3))
    LAT1 = l1.config.hit_latency
    LAT12 = LAT1 + l2.config.hit_latency
    LAT123 = LAT12 + l3.config.hit_latency
    push_down = hierarchy._push_down  # dirty L1/L2 victims

    # -- controller closures -------------------------------------------
    if is_plain:
        def ctrl_read(addr: int) -> float:
            """PlainMemoryController.access, read."""
            pend_ctrl[_C_READ_REQ] += 1
            return dev_read(addr)

        def ctrl_write(addr: int, persist: bool) -> float:
            """PlainMemoryController.access, write."""
            pend_ctrl[_C_WRITE_REQ] += 1
            return dev_write(addr, persist)
    else:
        META_HIT = controller.metadata_cache.hit_latency
        # Misses (with their Merkle verification) and first-node misses
        # run the reference methods; only the hit probes are inline.
        fetch_line = controller._fetch_metadata_line
        update_merkle = controller._update_merkle_path
        MECB = MetadataKind.MECB
        FECB = MetadataKind.FECB
        layout = controller.layout
        num_pages = layout.num_pages
        mecb_base = layout.mecb_base
        fecb_base = layout.fecb_base
        meta_caches = controller.metadata_cache._caches
        mecb_sets = meta_caches[MECB]._sets
        mecb_nsets = meta_caches[MECB]._num_sets
        fecb_sets = meta_caches[FECB]._sets
        fecb_nsets = meta_caches[FECB]._num_sets
        mk_sets = meta_caches[MetadataKind.MERKLE]._sets
        mk_nsets = meta_caches[MetadataKind.MERKLE]._num_sets
        AES = controller.config.aes_latency_ns
        XOR = controller.config.xor_latency_ns
        AES_XOR = AES + XOR
        path_to_root = controller.merkle.path_to_root
        first_node_memo: Dict[int, int] = {}
        osiris_distance = controller.osiris._distance
        stop_loss = controller.osiris.stop_loss
        mecb_block = controller.mecb.block
        real_bump = controller._bump_counter
        persisted_mecb = controller._persisted_mecb

        def merkle_touch(addr: int) -> None:
            """_update_merkle_path: first-node hit inline, miss delegates."""
            line = first_node_memo.get(addr)
            if line is None:
                line = first_node_memo[addr] = path_to_root(addr)[0] >> 6
            entries = mk_sets[line % mk_nsets]
            if line in entries:
                entries.move_to_end(line)
                entries[line] = True
                pend_meta[_M_MERKLE_H] += 1
                pend_meta[_M_MERKLE_W] += 1
            else:
                update_merkle(addr)

        mecb_blocks = controller.mecb.blocks
        has_dax = is_fsencr
        if is_fsencr:
            ott = controller.ott
            ott_entries = ott._entries
            ott_get = ott_entries.get
            ott_move = ott_entries.move_to_end
            OTT_LAT = ott.lookup_latency_ns
            real_lookup_key = controller._lookup_key
            fecb_block = controller.fecb.block
            fecb_blocks = controller.fecb._blocks
            real_extra = controller._extra_write_path
            persisted_fecb = controller._persisted_fecb

        def ctrl_read(addr: int) -> float:
            """BaselineSecureController._read / FsEncr read: data read,
            then pad fetch (MECB, and FECB+OTT on DAX lines), max-combine."""
            pend_ctrl[_C_READ_REQ] += 1
            raw = addr & ~DF_MASK
            # NVMDevice.read, row-hit inline
            pend_nvm[_N_READS] += 1
            entry = bank_memo.get(raw)
            if entry is None:
                entry = dev_bank(raw)
            bank, row = entry
            if bank.open_row == row:
                bank.consecutive_misses = 0
                pend_nvm[_N_ROW_HITS] += 1
                data_latency = ROW_HIT
            else:
                data_latency = dev_read_miss(bank, row)
            page = raw >> 12
            if page >= num_pages:
                layout.mecb_addr(page)  # raises the reference ValueError
            # MECB pad fetch, hit inline
            counter_addr = mecb_base + (page << 6)
            mline = counter_addr >> 6
            mentries = mecb_sets[mline % mecb_nsets]
            if mline in mentries:
                mentries.move_to_end(mline)
                pend_meta[_M_MECB_H] += 1
                pad = META_HIT
            else:
                pad = fetch_line(counter_addr, MECB, False)
            if has_dax and addr & DF_MASK:
                # FsEncr._pad_fetch_latency DAX arm: FECB + OTT
                pend_ctrl[_C_DAX] += 1
                fecb_addr = fecb_base + (page << 6)
                fline = fecb_addr >> 6
                fentries = fecb_sets[fline % fecb_nsets]
                if fline in fentries:
                    fentries.move_to_end(fline)  # lookup_only probe
                    fentries.move_to_end(fline)  # fetch hit
                    pend_meta[_M_FECB_H] += 1
                    fpad = META_HIT
                    was_cached = True
                else:
                    was_cached = False
                    fpad = fetch_line(fecb_addr, FECB, False)
                fblock = fecb_blocks.get(page)
                if fblock is None:
                    fblock = fecb_block(page)
                if (fblock.file_id or fblock.group_id) and not was_cached:
                    ident = (fblock.group_id, fblock.file_id)
                    if ott_get(ident) is not None:
                        ott_move(ident)
                        pend_ott[0] += 1
                        fpad += OTT_LAT
                    else:
                        _, key_latency = real_lookup_key(
                            fblock.group_id, fblock.file_id)
                        fpad += key_latency
                if fpad > pad:
                    pad = fpad
            pad += AES
            total = data_latency if data_latency >= pad else pad
            return total + XOR

        def ctrl_write(addr: int, persist: bool) -> float:
            """BaselineSecureController._write / FsEncr write, with every
            common-case probe (metadata hit, counter bump, merkle first
            node hit, row hit) inlined; overflow/miss arms delegate."""
            pend_ctrl[_C_WRITE_REQ] += 1
            raw = addr & ~DF_MASK
            page = raw >> 12
            if page >= num_pages:
                layout.mecb_addr(page)
            counter_addr = mecb_base + (page << 6)
            line_index = (raw & 4095) >> 6
            # MECB pad fetch (write), hit inline
            mline = counter_addr >> 6
            mentries = mecb_sets[mline % mecb_nsets]
            if mline in mentries:
                mentries.move_to_end(mline)
                mentries[mline] = True
                pend_meta[_M_MECB_W] += 1
                pend_meta[_M_MECB_H] += 1
                latency = META_HIT
            else:
                latency = fetch_line(counter_addr, MECB, True)
            is_df = has_dax and addr & DF_MASK
            if is_df:
                # FsEncr._pad_fetch_latency DAX arm
                pend_ctrl[_C_DAX] += 1
                fecb_addr = fecb_base + (page << 6)
                fline = fecb_addr >> 6
                fentries = fecb_sets[fline % fecb_nsets]
                if fline in fentries:
                    fentries.move_to_end(fline)  # lookup_only probe
                    fentries.move_to_end(fline)  # fetch hit
                    fentries[fline] = True
                    pend_meta[_M_FECB_W] += 1
                    pend_meta[_M_FECB_H] += 1
                    fpad = META_HIT
                    was_cached = True
                else:
                    was_cached = False
                    fpad = fetch_line(fecb_addr, FECB, True)
                fblock = fecb_blocks.get(page)
                if fblock is None:
                    fblock = fecb_block(page)
                if (fblock.file_id or fblock.group_id) and not was_cached:
                    ident = (fblock.group_id, fblock.file_id)
                    if ott_get(ident) is not None:
                        ott_move(ident)
                        pend_ott[0] += 1
                        fpad += OTT_LAT
                    else:
                        _, key_latency = real_lookup_key(
                            fblock.group_id, fblock.file_id)
                        fpad += key_latency
                if fpad > latency:
                    latency = fpad
            # _bump_counter, non-overflow inline (overflow delegates
            # before any mutation)
            block = mecb_blocks.get(page)
            if block is None:
                block = mecb_block(page)
            minors = block.minors
            new_minor = minors[line_index] + 1
            if new_minor >= _MINOR_LIMIT:
                bumped = real_bump(page, line_index, counter_addr)
                if bumped:
                    latency += bumped
            else:
                minors[line_index] = new_minor
                # OsirisTracker.note_update + the persist branch
                distance = osiris_distance.get(counter_addr, 0) + 1
                pend_osiris[0] += 1
                if distance >= stop_loss:
                    osiris_distance[counter_addr] = 0
                    pend_osiris[1] += 1
                    dev_write(counter_addr)  # posted write-through
                    pend_ctrl[_C_OSIRIS_CP] += 1
                    if mentries.get(mline):
                        mentries[mline] = False
                    persisted_mecb[page] = (block.major, tuple(minors))
                else:
                    osiris_distance[counter_addr] = distance
            # FsEncr._extra_write_path, non-overflow inline
            if is_df and (fblock.file_id or fblock.group_id):
                fcounters = fblock.counters
                fminors = fcounters.minors
                fnew = fminors[line_index] + 1
                if fnew >= _MINOR_LIMIT:
                    extra = real_extra(
                        MemoryRequest(addr=addr, is_write=True), raw)
                    if extra:
                        latency += extra
                else:
                    fminors[line_index] = fnew
                    fdist = osiris_distance.get(fecb_addr, 0) + 1
                    pend_osiris[0] += 1
                    if fdist >= stop_loss:
                        osiris_distance[fecb_addr] = 0
                        pend_osiris[1] += 1
                        dev_write(fecb_addr)  # posted write-through
                        pend_ctrl[_C_OSIRIS_FP] += 1
                        if fentries.get(fline):
                            fentries[fline] = False
                        persisted_fecb[page] = (
                            fblock.group_id, fblock.file_id,
                            fcounters.major, tuple(fminors),
                        )
                    else:
                        osiris_distance[fecb_addr] = fdist
                    merkle_touch(fecb_addr)  # merkle update over the FECB line
            merkle_touch(counter_addr)  # merkle update over the counter line
            latency += AES_XOR
            # NVMDevice.write, row-hit inline
            pend_nvm[_N_WRITES] += 1
            if track_wear:
                wline = raw & ~63
                wear[wline] = wear.get(wline, 0) + 1
            entry = bank_memo.get(raw)
            if entry is None:
                entry = dev_bank(raw)
            bank, row = entry
            if bank.open_row == row:
                bank.consecutive_misses = 0
                pend_nvm[_N_ROW_HITS] += 1
                wlat = ROW_HIT
                bank.dirty = True
            else:
                wlat = dev_write_miss(bank, row)
            if persist:
                wlat += DIRTY_EVICT
                bank.dirty = False
                pend_nvm[_N_PERSIST] += 1
            return latency + wlat

    # -- MMU / TLB ------------------------------------------------------
    tlb_entries = tlb._entries
    tlb_move = tlb_entries.move_to_end
    translate = mmu_obj.translate

    # -- page-cache overlay (conventional / software_encryption) --------
    if overlay is not None:
        pc_pages = overlay.page_cache._pages
        pc_move = pc_pages.move_to_end
        access_page = overlay.access_page
        region_for = machine._region_for
        region_memo: Dict[int, object] = {}

    kinds = compiled.kinds
    addrs = compiled.addrs
    ns_col = compiled.ns
    chunks = compiled.chunks
    rares = compiled.rares

    cursor = TraceCursor(machine)
    tlb_get = tlb_entries.get
    clock = machine.clock_ns
    try:
        for chunk_index, (lo, hi) in enumerate(chunks):
            for kind, addr, delay in zip(kinds[lo:hi], addrs[lo:hi],
                                         ns_col[lo:hi]):
                if kind <= _ACC_WRITE:
                    # ---- Machine._access_line --------------------------
                    is_write = kind == _ACC_WRITE
                    vpn = addr >> 12
                    pte = tlb_get(vpn)
                    if pte is not None and (not is_write or pte.writable):
                        # MMU.translate, TLB-hit path (latency 0).
                        tlb_move(vpn)
                        pend_tlb[0] += 1
                        pte.accessed = True
                        if is_write:
                            pte.dirty = True
                        pend_mmu[0] += 1
                        paddr = (pte.pfn << 12) | (addr & 4095)
                        if pte.df:
                            paddr |= DF_MASK
                    else:
                        # Miss / fault / protection check: real walk.
                        machine.clock_ns = clock
                        translation = translate(addr, is_write)
                        clock = machine.clock_ns + translation.latency_ns
                        paddr = translation.paddr

                    if overlay is not None:
                        mapped = region_memo.get(vpn, _NOT_MAPPED)
                        if mapped is _NOT_MAPPED:
                            mapped = None
                            region = region_for(vpn)
                            if region is not None:
                                inode = region.handle.inode
                                file_page = region.file_page(vpn)
                                dev_pfn = inode.extents.get(file_page)
                                if dev_pfn is not None:
                                    mapped = (inode.i_ino, file_page,
                                              dev_pfn * 4096)
                            region_memo[vpn] = mapped
                        if mapped is not None:
                            key = (mapped[0], mapped[1])
                            page_obj = pc_pages.get(key)
                            if page_obj is not None:
                                # PageCache.lookup hit (+ mark_dirty).
                                pc_move(key)
                                pend_pc[0] += 1
                                if is_write:
                                    page_obj.dirty = True
                            else:
                                # Fault the page in through the real path.
                                clock += access_page(
                                    mapped[0], mapped[1], mapped[2], is_write)

                    # ---- CacheHierarchy.access -------------------------
                    line = paddr >> 6
                    wb_line = -1
                    miss = False
                    entries = s1[line % n1]
                    if line in entries:
                        pend_l1[_HITS] += 1
                        entries.move_to_end(line)
                        if is_write:
                            entries[line] = True
                        clock += LAT1
                    else:
                        # The fills below skip fill()'s presence check:
                        # the level just missed on this line and the only
                        # interleaved inserts (push_down victims) are for
                        # other lines, so the line is still absent.
                        pend_l1[_MISSES] += 1
                        entries2 = s2[line % n2]
                        if line in entries2:
                            pend_l2[_HITS] += 1
                            entries2.move_to_end(line)
                            if is_write:
                                entries2[line] = True
                            clock += LAT12
                            if len(entries) >= w1:  # fill L1
                                victim_line, victim_dirty = entries.popitem(
                                    last=False)
                                pend_l1[_EVICTIONS] += 1
                                if victim_dirty:
                                    pend_l1[_DIRTY_EVICTIONS] += 1
                                    push_down(l1, victim_line << 6)
                            entries[line] = False
                        else:
                            pend_l2[_MISSES] += 1
                            entries3 = s3[line % n3]
                            if line in entries3:
                                pend_l3[_HITS] += 1
                                entries3.move_to_end(line)
                                if is_write:
                                    entries3[line] = True
                                clock += LAT123
                            else:
                                pend_l3[_MISSES] += 1
                                clock += LAT123
                                miss = True
                            if len(entries) >= w1:  # fill L1
                                victim_line, victim_dirty = entries.popitem(
                                    last=False)
                                pend_l1[_EVICTIONS] += 1
                                if victim_dirty:
                                    pend_l1[_DIRTY_EVICTIONS] += 1
                                    push_down(l1, victim_line << 6)
                            entries[line] = is_write if miss else False
                            if len(entries2) >= w2:  # fill L2
                                victim_line, victim_dirty = entries2.popitem(
                                    last=False)
                                pend_l2[_EVICTIONS] += 1
                                if victim_dirty:
                                    pend_l2[_DIRTY_EVICTIONS] += 1
                                    push_down(l2, victim_line << 6)
                            entries2[line] = False
                            if miss:  # fill L3; dirty victim is written back
                                if len(entries3) >= w3:
                                    victim_line, victim_dirty = (
                                        entries3.popitem(last=False))
                                    pend_l3[_EVICTIONS] += 1
                                    if victim_dirty:
                                        pend_l3[_DIRTY_EVICTIONS] += 1
                                        wb_line = victim_line
                                entries3[line] = False
                    if miss:
                        clock += ctrl_read(paddr)
                        if wb_line >= 0:
                            clock += ctrl_write(wb_line << 6, False) * wcf

                elif kind == _FLUSH:
                    # ---- Machine._flush_line ---------------------------
                    vpn = addr >> 12
                    pte = tlb_get(vpn)
                    if pte is not None:
                        tlb_move(vpn)
                        pend_tlb[0] += 1
                        pte.accessed = True
                        pend_mmu[0] += 1
                        paddr = (pte.pfn << 12) | (addr & 4095)
                        if pte.df:
                            paddr |= DF_MASK
                    else:
                        machine.clock_ns = clock
                        translation = translate(addr, False)
                        clock = machine.clock_ns + translation.latency_ns
                        paddr = translation.paddr
                    line = paddr >> 6
                    dirty = False
                    for sets, nsets, pend in flush_levels:
                        entries = sets[line % nsets]
                        if entries.get(line):  # writeback_line
                            entries[line] = False
                            pend[_WRITEBACKS] += 1
                            dirty = True
                    if dirty:
                        if wpq_accept is not None:
                            clock += wpq_accept(clock)
                        else:
                            clock += _ADR_DRAIN_NS
                        clock += ctrl_write(paddr, True) * wcf

                elif kind == _FENCE:
                    clock += _FENCE_NS
                else:  # _COMPUTE
                    clock += delay

            # ---- rare structural op between chunks ---------------------
            flush_stats()
            machine.clock_ns = clock
            if chunk_index < len(rares):
                cursor.apply(rares[chunk_index])
                clock = machine.clock_ns
                if overlay is not None:
                    region_memo.clear()
    finally:
        flush_stats()
        machine.clock_ns = clock
