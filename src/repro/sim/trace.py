"""Access-trace recording and replay.

A :class:`TraceRecorder` wraps a machine and logs every timing-path
operation a workload issues; the resulting :class:`Trace` replays
verbatim onto any other machine.  Capturing once and replaying under
every scheme removes even the (already deterministic) workload
re-execution between comparisons, and it is the input format of the
batch compiler (:mod:`repro.sim.batch`), the crash sweep
(:mod:`repro.faults.sweep`) and the service model
(:mod:`repro.sim.service`).

Replay requires the target machine to have the same virtual layout the
trace was captured against, so the recorder also logs the file/mmap
preamble and replays it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .machine import Machine

__all__ = [
    "TraceOp",
    "Trace",
    "TraceRecorder",
    "TraceCursor",
    "replay",
]

# Operation mnemonics.
LOAD = "load"
STORE = "store"
PERSIST = "persist"
COMPUTE = "compute"
CREATE = "create"
OPEN = "open"
MMAP = "mmap"
MARK = "mark"


@dataclass(frozen=True)
class TraceOp:
    """One logged event.  Field meaning depends on ``op``:

    load/store/persist: (addr=vaddr, size)
    compute:            (ns)
    create/open:        (path, addr=uid, size=mode/writable, flag=encrypted)
    mmap:               (path, uid, size=pages, addr=file_page_start)
    """

    op: str
    addr: int = 0
    size: int = 0
    path: str = ""
    flag: bool = False
    ns: float = 0.0
    uid: int = 0


@dataclass
class Trace:
    """An ordered list of operations plus the capture's identity."""

    name: str
    ops: List[TraceOp] = field(default_factory=list)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)


class TraceRecorder:
    """A Machine proxy that logs the workload-facing API while passing
    every call through to the wrapped machine."""

    def __init__(self, machine: Machine, name: str = "trace") -> None:
        self._machine = machine
        self.trace = Trace(name=name)
        # Which (path, uid) produced each handle the recorder returned,
        # so mmap ops can name their file instead of relying on
        # "most recent handle" order.
        self._handle_ids: Dict[int, tuple] = {}

    # -- logged operations ---------------------------------------------------

    def create_file(self, path: str, uid: int, mode: int = 0o644, encrypted: bool = False):
        self.trace.append(TraceOp(op=CREATE, path=path, addr=uid, size=mode, flag=encrypted))
        handle = self._machine.create_file(path, uid, mode=mode, encrypted=encrypted)
        self._handle_ids[id(handle)] = (path, uid)
        return handle

    def open_file(self, path: str, uid: int, write: bool = False):
        self.trace.append(TraceOp(op=OPEN, path=path, addr=uid, flag=write))
        handle = self._machine.open_file(path, uid, write=write)
        self._handle_ids[id(handle)] = (path, uid)
        return handle

    def mmap(self, handle, pages: int, file_page_start: int = 0) -> int:
        path, uid = self._handle_ids.get(id(handle), ("", 0))
        self.trace.append(
            TraceOp(op=MMAP, path=path, uid=uid, size=pages, addr=file_page_start)
        )
        return self._machine.mmap(handle, pages, file_page_start)

    def load(self, vaddr: int, size: int = 8) -> None:
        self.trace.append(TraceOp(op=LOAD, addr=vaddr, size=size))
        self._machine.load(vaddr, size)

    def store(self, vaddr: int, size: int = 8) -> None:
        self.trace.append(TraceOp(op=STORE, addr=vaddr, size=size))
        self._machine.store(vaddr, size)

    def persist(self, vaddr: int, size: int = 8) -> None:
        self.trace.append(TraceOp(op=PERSIST, addr=vaddr, size=size))
        self._machine.persist(vaddr, size)

    def compute(self, ns: float) -> None:
        self.trace.append(TraceOp(op=COMPUTE, ns=float(ns)))
        self._machine.compute(ns)

    def mark_measurement_start(self) -> None:
        self.trace.append(TraceOp(op=MARK))
        self._machine.mark_measurement_start()

    # -- passthrough for everything else ------------------------------------

    def __getattr__(self, item):
        return getattr(self._machine, item)


class TraceCursor:
    """Applies trace ops to one machine, carrying the handle state the
    ops reference between calls.

    :func:`replay` drives a cursor straight through a trace; the
    compiled interpreter runs its structural ops through one, and the
    service model (:mod:`repro.sim.service`) steps one per stream, one
    op at a time, for machines outside the interpreter's envelope.
    Sharing the op switch here is what guarantees the paths execute
    identically.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._handles: Dict[str, object] = {}

    def apply(self, op: TraceOp) -> None:
        machine = self.machine
        if op.op == LOAD:
            machine.load(op.addr, op.size)
        elif op.op == STORE:
            machine.store(op.addr, op.size)
        elif op.op == PERSIST:
            machine.persist(op.addr, op.size)
        elif op.op == COMPUTE:
            machine.compute(op.ns)
        elif op.op == CREATE:
            self._handles[op.path] = machine.create_file(
                op.path, uid=op.addr, mode=op.size, encrypted=op.flag
            )
        elif op.op == OPEN:
            self._handles[op.path] = machine.open_file(
                op.path, uid=op.addr, write=op.flag
            )
        elif op.op == MMAP:
            # An mmap binds to the latest handle for the path it names.
            handle = self._handles.get(op.path)
            if handle is None:
                raise ValueError(
                    f"trace mmap references {op.path!r} with no preceding "
                    "create/open for that path"
                )
            machine.mmap(handle, pages=op.size, file_page_start=op.addr)
        elif op.op == MARK:
            machine.mark_measurement_start()
        else:
            raise ValueError(f"unknown trace op {op.op!r}")


def replay(trace: Trace, machine: Machine) -> None:
    """Re-execute a trace on a fresh machine."""
    cursor = TraceCursor(machine)
    for op in trace.ops:
        cursor.apply(op)
