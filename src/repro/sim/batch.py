"""Batched trace execution: compile once, sweep flat micro-op arrays.

The per-access path (``Machine.load`` -> ``MMU.translate`` ->
``CacheHierarchy.access`` -> ``controller.access`` -> ``NVMDevice``) is
faithful but slow: every simulated line access crosses five Python call
boundaries and allocates request/outcome objects.  This module keeps the
*model* identical while removing the dispatch:

1. **Capture** — the workload runs once against a recording stub that
   logs its op stream as plain tuples (:func:`capture_workload` wraps
   them in a Trace) without touching the machine's timing state.
   Workloads that reach beyond the traceable API (functional byte
   access, crash lifecycle, filesystem management) are detected and
   fall back to direct execution.
2. **Compile** — the op stream lowers to two parallel columns, 9 B a
   micro-op: ``kinds`` (bytes) and ``addrs`` (int64: the line vaddr,
   or an index into the trace's table of distinct compute delays),
   plus a per-op index: where each trace op's micro-ops end, its op
   code, and the rare structural ops (create/open/mmap/mark) by op
   index.  A compiled trace keeps no source.
3. **Execute** — :func:`execute_compiled` sweeps the columns in one
   interpreter loop.  Only the measured-hot hit probes are inlined as
   direct ``OrderedDict`` probes: TLB hit, L1/L2/L3 hits,
   MECB/FECB/Merkle-first-node hits, and the NVM row buffer.
   Stats are accumulated in flat pend arrays and flushed per chunk.
   Every miss and rare path calls the *real* component method: TLB
   miss and page fault, L1/L2 dirty victims (``CacheHierarchy._fill``,
   which returns any line they push out of L3 for write-back),
   MECB/FECB misses with their Merkle verification
   (``_fetch_metadata_line``) and OTT key lookup
   (``_lookup_key``), Merkle first-node misses
   (``_update_merkle_path``), counter overflow, and page-cache faults.
   Each miss rule therefore exists once, and every golden digest is
   bit-identical to per-access dispatch.  The NVM row buffer stays
   inline on a row miss too: about 30% of NVM accesses miss the row,
   and calling ``NVMDevice`` for them measured slower in every run
   (docs/BATCH.md).  Machines the interpreter does not model
   (functional mode, histograms, crash domains, Anubis) run the
   workload directly under :class:`BatchRunner`;
   :func:`execute_compiled` rejects them.
4. **Step** — :func:`step_workload` runs the same loop one trace op per
   ``next()`` for the service scheduler (:mod:`repro.sim.service`);
   shared service queues are charged at the interpreter's controller
   sites through ``ServiceQueues.charge``, the reference path's rule.

Bit-identity is the hard pin: the inline probes replicate the reference
path's exact float-addition order (latencies accumulate into the clock
in the same association), its exact LRU mutations (``move_to_end`` /
``popitem`` sequences), and its exact stat increments on every bundle
(every bundle is registered; the tag stores count nothing).  Delegated
methods add straight to those bundles while the pend arrays flush into
them later; every counter is a sum, so the interleaving does not change
a result.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.fsencr import FsEncrController
from ..mem.controller import PlainMemoryController
from ..mem.dfbit import DF_MASK
from ..secmem.counters import MINOR_BITS
from ..secmem.metadata_cache import MetadataKind
from ..secmem.secure_controller import BaselineSecureController
from .machine import _ADR_DRAIN_NS, _FENCE_NS, Machine, _check_delay
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
)

__all__ = [
    "OP_NAMES",
    "BatchRunner",
    "CompiledTrace",
    "capture_workload",
    "compile_trace",
    "execute_compiled",
    "step_workload",
]

# Micro-op kinds (the ``kinds`` column of the compiled trace).
_ACC_READ = 0
_ACC_WRITE = 1
_FLUSH = 2
_FENCE = 3
_COMPUTE = 4

#: Trace-op codes (the ``codes`` column), measured ops first: a code
#: ``<= _PERSIST_OP`` is a load, store or persist.
OP_NAMES = (LOAD, STORE, PERSIST, COMPUTE, CREATE, OPEN, MMAP, MARK)
_OP_CODES = {name: code for code, name in enumerate(OP_NAMES)}
_LOAD_OP, _PERSIST_OP, _COMPUTE_OP = (
    _OP_CODES[LOAD], _OP_CODES[PERSIST], _OP_CODES[COMPUTE])

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


@dataclass(eq=False)
class CompiledTrace:
    """A trace lowered to flat micro-op columns plus a per-op index.

    ``kinds`` (``bytes``) and ``addrs`` (``array('q')``) are parallel
    columns, one row per micro-op: cache-line accesses and line flushes
    (``addrs`` holds the line vaddr), fences (0), and compute delays
    (``addrs`` indexes the delay in ``delays``, the trace's distinct
    delay floats), 9 B a row.  Per trace op ``i``, ``ends[i]`` is where
    its micro-ops end and ``codes[i]`` indexes its mnemonic in
    :data:`OP_NAMES`.  The structural ops (create/open/mmap/mark) lower
    to no micro-ops; ``rares`` maps each one's op index to its
    :class:`TraceOp`.  It keeps no source trace.
    """

    kinds: bytes
    addrs: array
    delays: Tuple[float, ...]
    ends: array
    codes: bytes
    rares: Dict[int, TraceOp]

    def __len__(self) -> int:
        return len(self.kinds)


def _lower(records) -> tuple:
    """Lower raw op records — ``(op, addr, size, path, flag, ns, uid)``
    tuples in TraceOp field order — to the micro-op columns, the
    delay table and the per-op ``ends``/``codes``/``rares`` index."""
    kinds = bytearray()
    addrs: List[int] = []
    ends: List[int] = []
    codes = bytearray()
    delays: Dict[float, int] = {}
    rares: Dict[int, TraceOp] = {}
    add_kind, add_addr = kinds.append, addrs.append
    add_end, add_code = ends.append, codes.append
    code_of, delay_index = _OP_CODES.get, delays.setdefault
    for rec in records:
        code = code_of(rec[0])
        if code is None:
            raise ValueError(f"unknown trace op {rec[0]!r}")
        if code <= _PERSIST_OP:
            addr = rec[1]
            size = rec[2]
            if size <= 0:
                raise ValueError("size must be positive")
            first = addr & ~63
            last = (addr + size - 1) & ~63
            kind = _ACC_READ if code == _LOAD_OP else _ACC_WRITE
            line = first
            while line <= last:
                add_kind(kind)
                add_addr(line)
                line += 64
            if code == _PERSIST_OP:
                line = first
                while line <= last:
                    add_kind(_FLUSH)
                    add_addr(line)
                    line += 64
                add_kind(_FENCE)
                add_addr(0)
        elif code == _COMPUTE_OP:
            add_kind(_COMPUTE)
            add_addr(delay_index(rec[5], len(delays)))
        else:
            rares[len(codes)] = TraceOp(*rec)
        add_end(len(kinds))
        add_code(code)
    for ns in delays:
        _check_delay(ns)
    return (bytes(kinds), array("q", addrs), tuple(delays),
            array("I", ends), bytes(codes), rares)


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower a trace to micro-op columns.

    Loads/stores expand to one access per covered cache line; a persist
    becomes its write accesses, then one flush per line, then a fence —
    exactly the sequence ``Machine.persist`` issues.  Invalid sizes and
    compute delays are rejected here (the per-access path raises the
    same ``ValueError``, just lazily at the offending op).
    """
    return CompiledTrace(*_lower(
        (op.op, op.addr, op.size, op.path, op.flag, op.ns, op.uid)
        for op in trace.ops
    ))


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
        ns = float(ns)
        _check_delay(ns)
        self._rec((COMPUTE, 0, 0, "", False, ns, 0))

    def mark_measurement_start(self) -> None:
        self._rec((MARK, 0, 0, "", False, 0.0, 0))

    def trace(self) -> Trace:
        """The recording as a :class:`Trace` of real TraceOps."""
        return Trace(name=self.name, ops=[TraceOp(*rec) for rec in self.raw])


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
    return None if stub is None else stub.trace()


# ----------------------------------------------------------------------
# Execute
# ----------------------------------------------------------------------


def _supports_fast_path(machine: Machine) -> bool:
    """Whether the inline interpreter models this machine exactly.

    Service queues are inside the envelope: the interpreter charges
    them at its three controller sites through the same
    ``ServiceQueues.charge`` rule as ``Machine._controller_access``.
    """
    if machine.config.functional or machine._crashed:
        return False
    if machine.latency_histogram is not None:
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

    Only machines inside the interpreter's envelope run compiled
    traces.  The rest (functional mode, histograms attached, crash or
    Anubis wiring, custom controllers) raise ``ValueError``: run the
    workload directly, or :func:`~repro.sim.trace.replay` the trace.
    """
    if not _supports_fast_path(machine):
        raise ValueError(
            "this machine is outside the compiled interpreter's envelope: "
            "run the workload directly or replay the trace")
    for _ in _interpret(compiled, machine):
        pass


def _replay_steps(trace: Trace, machine: Machine) -> Iterator[None]:
    """Reference-path stepping: one ``TraceCursor.apply`` per ``next()``."""
    cursor = TraceCursor(machine)
    for op in trace.ops:
        cursor.apply(op)
        yield


def step_workload(machine: Machine, workload) -> Optional[Tuple[str, bytes, Iterator[None]]]:
    """Capture a workload for one-op-at-a-time execution on ``machine``.

    Returns ``(name, codes, steps)``: ``codes[i]`` indexes trace op
    ``i``'s mnemonic in :data:`OP_NAMES`, and each ``next(steps)`` runs
    the next op to completion on the machine's clock (which the caller
    may advance between steps).  Machines inside the envelope step the
    compiled interpreter; the rest step ``TraceCursor`` over a
    :class:`Trace` built from the capture.  Close ``steps`` after the
    last op: that flushes the interpreter's pending stats.  None when
    the workload is not capturable.
    """
    stub = _capture_raw(machine, workload)
    if stub is None:
        return None
    compiled = CompiledTrace(*_lower(stub.raw))
    if _supports_fast_path(machine):
        steps = _interpret(compiled, machine, stepping=True)
    else:
        steps = _replay_steps(stub.trace(), machine)
    return stub.name, compiled.codes, steps


def _workload_trace_key(config, workload) -> tuple:
    """Cache key under which a compiled trace may be reused.

    A workload's op stream is a pure function of its own parameters plus
    the single config bit it reads on the traced path — whether the
    scheme encrypts files (it decides the ``encrypted`` flag on
    create).  Everything else about the scheme changes how ops *cost*,
    not which ops occur, so one compiled trace serves every scheme in
    the same encryption class.  The parameters are the instance's whole
    field set (a flat dict of hashables: ``seed``, ``ops``,
    ``num_files``, ``workers``, ``mix``, ...), so two instances share a
    trace only when every field agrees.
    """
    return (
        type(workload).__name__,
        tuple(sorted(vars(workload).items())),
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
        compiled = None
        # Outside the envelope the workload runs directly: no capture.
        if _supports_fast_path(machine):
            key = _workload_trace_key(config, workload)
            if key in self._compiled:
                compiled = self._compiled[key]
            else:
                stub = _capture_raw(machine, workload)
                if stub is not None:
                    compiled = CompiledTrace(*_lower(stub.raw))
                self._compiled[key] = compiled
        if compiled is None:
            workload.run(machine)
        else:
            execute_compiled(compiled, machine)
        return machine.result(workload.name)


def _interpret(compiled: CompiledTrace, machine: Machine,
               stepping: bool = False) -> Iterator[None]:
    """The inline interpreter.  One big function on purpose: every
    measured-hot hit path is flattened into locals and closures so a
    line access costs dict probes, not call stacks.  Each rule it
    mirrors appears once: ``dev_miss`` is ``NVMDevice._access``'s row
    miss under ``dev_read``/``dev_write``'s inline row hit;
    ``pad_fetch`` is ``_pad_fetch_latency`` (MECB, and FsEncr's DAX
    arm), for reads and writes alike; ``osiris_update`` is
    ``OsirisTracker.note_update`` with its persist branch, for MECB and
    FECB lines; ``merkle_touch`` is ``_update_merkle_path``'s first
    node; the TLB-hit probe of ``MMU.translate`` serves accesses and
    flushes; and the cache walk fills each level once, as
    ``CacheHierarchy.access`` does.  Every miss, dirty victim, overflow
    and OTT lookup calls the reference method instead of a copy.  A
    behavioural change to a mirrored hit path must be mirrored here —
    the golden-digest and batch-equivalence suites enforce it.

    A generator: batch mode runs chunk by chunk (the micro-ops between
    structural ops) and never yields.  With ``stepping`` every trace op
    is its own chunk and the loop yields after it, with the clock
    stored on the machine; it reloads the clock on resume, so a
    scheduler may advance it in between.
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
    pend_pc = [0]

    mmu_obj = machine.mmu
    tlb = mmu_obj.tlb
    hierarchy = machine.hierarchy
    l1, l2, l3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    bundle = machine.registry.bundle

    flush_specs = [
        (pend_tlb, ("hits",), tlb.stats.counters),
        (pend_mmu, ("translations",), mmu_obj.stats.counters),
        (pend_l1, _CACHE_KEYS, bundle("l1").counters),
        (pend_l2, _CACHE_KEYS, bundle("l2").counters),
        (pend_l3, _CACHE_KEYS, bundle("l3").counters),
        (pend_nvm, _NVM_KEYS, device.stats.counters),
        (pend_ctrl, _CTRL_KEYS, controller.stats.counters),
    ]
    if not is_plain:
        flush_specs.append(
            (pend_meta, _META_KEYS, controller.metadata_cache.stats.counters)
        )
        flush_specs.append((pend_osiris, _OSIRIS_KEYS, controller.osiris.stats.counters))
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
    bank_memo: Dict[int, tuple] = {}

    def dev_bank(addr: int) -> tuple:
        """NVMDevice._locate on an address's first touch, memoized."""
        entry = bank_memo[addr] = locate(addr)
        return entry

    def dev_miss(bank, row: int, is_write: bool) -> float:
        """NVMDevice._access, row-miss arm (adaptive row policy)."""
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
            bank.dirty = is_write
        return latency

    def dev_read(addr: int) -> float:
        """NVMDevice.read, row hit inline."""
        pend_nvm[_N_READS] += 1
        bank, row = bank_memo.get(addr) or dev_bank(addr)
        if bank.open_row == row:
            bank.consecutive_misses = 0
            pend_nvm[_N_ROW_HITS] += 1
            return ROW_HIT
        return dev_miss(bank, row, False)

    def dev_write(addr: int, persist: bool = False) -> float:
        """NVMDevice.write, row hit inline."""
        pend_nvm[_N_WRITES] += 1
        bank, row = bank_memo.get(addr) or dev_bank(addr)
        if bank.open_row == row:
            bank.consecutive_misses = 0
            pend_nvm[_N_ROW_HITS] += 1
            latency = ROW_HIT
            bank.dirty = True
        else:
            latency = dev_miss(bank, row, True)
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
    fill_down = hierarchy._fill  # dirty L1/L2 victims

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
        mecb_blocks = controller.mecb.blocks
        mecb_block = controller.mecb.block
        bump_line = controller._bump_line
        if is_fsencr:
            lookup_key = controller._lookup_key
            fecb_block = controller.fecb.block
            fecb_blocks = controller.fecb._blocks

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

        def pad_fetch(addr: int, page: int, is_write: bool) -> float:
            """_pad_fetch_latency: the MECB fetch, and on FsEncr's DAX
            lines the FECB fetch plus OTT key lookup; the slower arm
            bounds the pad.  Metadata hits inline, misses delegate."""
            if page >= num_pages:
                layout.mecb_addr(page)  # raises the reference ValueError
            counter_addr = mecb_base + (page << 6)
            line = counter_addr >> 6
            entries = mecb_sets[line % mecb_nsets]
            if line in entries:
                entries.move_to_end(line)
                pend_meta[_M_MECB_H] += 1
                if is_write:
                    entries[line] = True
                    pend_meta[_M_MECB_W] += 1
                latency = META_HIT
            else:
                latency = fetch_line(counter_addr, MECB, is_write)
            if not (is_fsencr and addr & DF_MASK):
                return latency
            pend_ctrl[_C_DAX] += 1
            fecb_addr = fecb_base + (page << 6)
            line = fecb_addr >> 6
            entries = fecb_sets[line % fecb_nsets]
            if line in entries:
                # The lookup_only probe and the fetch hit both move the
                # line to the end, and the OTT is not consulted.  A cached
                # FECB line's block already exists: update_fecb and this
                # miss arm create the block before caching the line.
                entries.move_to_end(line)
                pend_meta[_M_FECB_H] += 1
                if is_write:
                    entries[line] = True
                    pend_meta[_M_FECB_W] += 1
                fpad = META_HIT
            else:
                fpad = fetch_line(fecb_addr, FECB, is_write)
                block = fecb_block(page)
                if block.stamped:
                    fpad += lookup_key(block.group_id, block.file_id)[1]
            return latency if latency >= fpad else fpad

        def osiris_update(line_addr: int) -> None:
            """OsirisTracker.note_update on an MECB or FECB line, with
            _bump_line's persist branch: a posted write-through and
            clean_line.  (No machine in the envelope can crash, so none
            keeps the persisted-line journal.)"""
            distance = osiris_distance.get(line_addr, 0) + 1
            pend_osiris[0] += 1
            if distance < stop_loss:
                osiris_distance[line_addr] = distance
                return
            osiris_distance[line_addr] = 0
            pend_osiris[1] += 1
            dev_write(line_addr)
            line = line_addr >> 6
            if line_addr < fecb_base:  # _kind_for
                pend_ctrl[_C_OSIRIS_CP] += 1
                entries = mecb_sets[line % mecb_nsets]
            else:
                pend_ctrl[_C_OSIRIS_FP] += 1
                entries = fecb_sets[line % fecb_nsets]
            if entries.get(line):
                entries[line] = False

        def ctrl_read(addr: int) -> float:
            """BaselineSecureController._read: the data read overlaps the
            pad fetch and AES; the XOR is serial."""
            pend_ctrl[_C_READ_REQ] += 1
            raw = addr & ~DF_MASK
            data_latency = dev_read(raw)
            pad = pad_fetch(addr, raw >> 12, False) + AES
            total = data_latency if data_latency >= pad else pad
            return total + XOR

        def ctrl_write(addr: int, persist: bool) -> float:
            """BaselineSecureController._write: pad fetch, counter bump,
            FsEncr's FECB bump on DAX lines, Merkle updates, data write.
            The non-overflow bumps are inline; overflows delegate before
            any mutation."""
            pend_ctrl[_C_WRITE_REQ] += 1
            raw = addr & ~DF_MASK
            page = raw >> 12
            line_index = (raw & 4095) >> 6
            latency = pad_fetch(addr, page, True)
            counter_addr = mecb_base + (page << 6)
            block = mecb_blocks.get(page)
            if block is None:
                block = mecb_block(page)
            minors = block.minors
            new_minor = minors[line_index] + 1
            if new_minor >= _MINOR_LIMIT:
                latency += bump_line(block, page, line_index, counter_addr)
            else:
                minors[line_index] = new_minor
                osiris_update(counter_addr)
            if is_fsencr and addr & DF_MASK:
                # FsEncr._extra_write_path; pad_fetch made the block
                fblock = fecb_blocks[page]
                if fblock.file_id or fblock.group_id:
                    fminors = fblock.counters.minors
                    new_minor = fminors[line_index] + 1
                    fecb_addr = fecb_base + (page << 6)
                    if new_minor >= _MINOR_LIMIT:
                        latency += bump_line(fblock.counters, page, line_index, fecb_addr)
                    else:
                        fminors[line_index] = new_minor
                        osiris_update(fecb_addr)
                    merkle_touch(fecb_addr)
            merkle_touch(counter_addr)
            latency += AES_XOR
            return latency + dev_write(raw, persist)

    # -- service queues (Machine._controller_access) -------------------
    queues = machine.service_queues
    if queues is not None:
        charge = queues.charge
        ott_counts = controller.ott.stats.counters if is_fsencr else {}
        port_ns = controller.ott.lookup_latency_ns if is_fsencr else 0.0

        def queued(arrival: float, addr: int, is_write: bool, persist: bool,
                   factor: float, ctrl_read=ctrl_read,
                   ctrl_write=ctrl_write) -> float:
            """One controller access charged through the shared queues;
            returns the clock after it.  (The controller closures are
            bound as defaults so they stay plain locals of the loop.)"""
            before = ott_counts.get("hits", 0) + ott_counts.get("misses", 0)
            if is_write:
                charged = ctrl_write(addr, persist) * factor
            else:
                charged = ctrl_read(addr) * factor
            lookups = (ott_counts.get("hits", 0) + ott_counts.get("misses", 0)
                       - before)
            return arrival + (
                charge(arrival, charged, lookups, port_ns * factor) + charged)

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
    delays = compiled.delays
    if stepping:
        bounds, rares = compiled.ends, compiled.rares
    else:
        bounds = [compiled.ends[index] for index in compiled.rares]
        bounds.append(len(kinds))
        rares = dict(enumerate(compiled.rares.values()))

    cursor = TraceCursor(machine)
    tlb_get = tlb_entries.get
    clock = machine.clock_ns
    lo = 0
    try:
        for chunk_index, hi in enumerate(bounds):
            for kind, addr in zip(kinds[lo:hi], addrs[lo:hi]):
                if kind <= _FLUSH:
                    # ---- MMU.translate: a flush translates as a read --
                    is_write = kind == _ACC_WRITE
                    vpn = addr >> 12
                    pte = tlb_get(vpn)
                    if pte is not None and (not is_write or pte.writable):
                        # TLB-hit path (latency 0).
                        tlb_move(vpn)
                        pend_tlb[0] += 1
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

                    if kind == _FLUSH:
                        # ---- Machine._flush_line -----------------------
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
                            if queues is None:
                                clock += ctrl_write(paddr, True) * wcf
                            else:
                                clock = queued(clock, paddr, True, True, wcf)
                        continue

                    # ---- Machine._access_line ------------------------
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
                        # interleaved inserts (pushed-down victims) are for
                        # other lines, so the line is still absent.
                        pend_l1[_MISSES] += 1
                        miss = False
                        wbs = ()  # dirty lines out of L3, in write-back order
                        entries2 = s2[line % n2]
                        l2_hit = line in entries2
                        if l2_hit:
                            pend_l2[_HITS] += 1
                            entries2.move_to_end(line)
                            if is_write:
                                entries2[line] = True
                            clock += LAT12
                        else:
                            pend_l2[_MISSES] += 1
                            entries3 = s3[line % n3]
                            if line in entries3:
                                pend_l3[_HITS] += 1
                                entries3.move_to_end(line)
                                if is_write:
                                    entries3[line] = True
                            else:
                                pend_l3[_MISSES] += 1
                                miss = True
                            clock += LAT123
                        # Fill every level above the hit, top down; a
                        # full miss fills L3 too and installs L1 dirty on
                        # a write.
                        if len(entries) >= w1:
                            victim_line, victim_dirty = entries.popitem(
                                last=False)
                            pend_l1[_EVICTIONS] += 1
                            if victim_dirty:
                                pend_l1[_DIRTY_EVICTIONS] += 1
                                wbs = fill_down(1, victim_line << 6, True)
                        entries[line] = miss and is_write
                        if not l2_hit:
                            if len(entries2) >= w2:
                                victim_line, victim_dirty = entries2.popitem(
                                    last=False)
                                pend_l2[_EVICTIONS] += 1
                                if victim_dirty:
                                    pend_l2[_DIRTY_EVICTIONS] += 1
                                    wbs += fill_down(2, victim_line << 6, True)
                            entries2[line] = False
                        if miss:  # L3's dirty victim is written back
                            if len(entries3) >= w3:
                                victim_line, victim_dirty = (
                                    entries3.popitem(last=False))
                                pend_l3[_EVICTIONS] += 1
                                if victim_dirty:
                                    pend_l3[_DIRTY_EVICTIONS] += 1
                                    wbs += (victim_line << 6,)
                            entries3[line] = False
                            if queues is None:
                                clock += ctrl_read(paddr)
                            else:
                                clock = queued(clock, paddr, False, False, 1.0)
                        for wb_addr in wbs:
                            if queues is None:
                                clock += ctrl_write(wb_addr, False) * wcf
                            else:
                                clock = queued(clock, wb_addr, True, False, wcf)

                elif kind == _FENCE:
                    clock += _FENCE_NS
                else:  # _COMPUTE: the address column indexes the delay
                    clock += delays[addr]

            lo = hi
            # ---- rare structural op after the chunk --------------------
            rare = rares.get(chunk_index)
            if rare is not None:
                flush_stats()
                machine.clock_ns = clock
                cursor.apply(rare)
                clock = machine.clock_ns
                if overlay is not None:
                    region_memo.clear()
            if stepping:
                machine.clock_ns = clock
                yield
                clock = machine.clock_ns
    finally:
        flush_stats()
        machine.clock_ns = clock
