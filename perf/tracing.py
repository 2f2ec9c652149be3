"""Outside-in host-time tracing for the benchmark's traced runs.

The benchmark never edits the simulator: for a traced run it replaces
each layer's public entry points with timing wrappers, runs one pass,
and puts the originals back.  Spans live in memory only; each wrapper
call adds its inclusive time, self time (inclusive minus the time of
the child spans it opened) and one call to the (parent layer -> layer)
edge it ran under.

``secmem.layout`` is different: its properties are called tens of
millions of times per pass, so timing them would stretch the run far
more than it measures.  :class:`CallCounter` only counts those calls,
in a pass of its own, and their time stays in the callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from typing import Dict, List, Optional, Tuple

#: Layer -> the public entry points whose calls are that layer's spans.
#: ``module:Class.attr`` wraps a method on the class that defines it
#: (subclasses that inherit it are covered); ``module:function`` wraps
#: a module-level function where its callers look it up.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.machine": (
        "repro.sim.machine:Machine.load",
        "repro.sim.machine:Machine.store",
        "repro.sim.machine:Machine.persist",
    ),
    "sim.build": ("repro.sim.machine:Machine.__init__",),
    "kernel.mmu": ("repro.kernel.mmu:MMU.translate",),
    "fs.ext4dax": ("repro.fs.ext4dax:DaxFilesystem.fault_in",),
    "mem.hierarchy": (
        "repro.mem.hierarchy:CacheHierarchy.access",
        "repro.mem.hierarchy:CacheHierarchy.flush_line",
    ),
    "mem.controller": ("repro.mem.controller:PlainMemoryController.access",),
    "secmem.secure_controller": (
        "repro.secmem.secure_controller:BaselineSecureController.access",
    ),
    "secmem.metadata_cache": (
        "repro.secmem.metadata_cache:MetadataCache.access",
        "repro.secmem.metadata_cache:MetadataCache.clean_line",
    ),
    "secmem.merkle": (
        "repro.secmem.merkle:BonsaiMerkleTree.path_to_root",
        "repro.secmem.merkle:BonsaiMerkleTree.verify_leaf",
        "repro.secmem.merkle:BonsaiMerkleTree.update_leaf",
    ),
    "secmem.osiris": ("repro.secmem.osiris:OsirisTracker.note_update",),
    "mem.nvm": (
        "repro.mem.nvm:NVMDevice.read",
        "repro.mem.nvm:NVMDevice.write",
    ),
    "mem.wpq": ("repro.mem.wpq:WritePendingQueue.accept",),
    "core.ott": (
        "repro.core.ott:OpenTunnelTable.lookup",
        "repro.core.ott:EncryptedOTTRegion.fetch",
        "repro.core.ott:EncryptedOTTRegion.store",
    ),
    "crypto.otp": ("repro.crypto.otp:OTPEngine.pad_for",),
    "faults.sweep": ("repro.faults.sweep:sweep_workload",),
    "faults.crash": ("repro.sim.machine:Machine.crash",),
    "faults.reboot": ("repro.sim.machine:Machine.reboot",),
    "sim.batch.prepare": ("repro.sim.batch:BatchRunner.run",),
    "sim.batch.interpret": ("repro.sim.batch:execute_compiled",),
    "sim.service.scheduler": ("repro.sim.service:run_service",),
    "sim.service.queue": ("repro.mem.controller:ServiceQueue.serve",),
    "sim.trace": ("repro.sim.trace:TraceCursor.apply",),
}

#: The class whose calls are counted, not timed.
COUNTED_LAYER = ("secmem.layout", "repro.secmem.layout:MetadataLayout")


def _resolve(target: str):
    """``(owner, attr)`` for a target spec.

    A renamed or moved entry point raises, so a stale :data:`LAYERS`
    table fails the traced run instead of reporting the layer as idle.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for name in owner_path:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"traced entry point {target} does not exist")
    return owner, attr


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span wrappers around every layer in :data:`LAYERS`, as a context.

    ``edges[(parent, layer)] = [inclusive_s, self_s, calls]`` where
    ``parent`` is None for a span opened outside any other span;
    ``top_s`` sums those outermost spans, so ``total - top_s`` is the
    traced time no span covers.
    """

    def __init__(self) -> None:
        self.layers = LAYERS
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.top_s = 0.0
        self._stack: List[list] = []
        self._patches = _Patches()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
                edge = edges.get((parent, layer))
                if edge is None:
                    edge = edges[(parent, layer)] = [0.0, 0.0, 0]
                edge[0] += elapsed
                edge[1] += elapsed - frame[1]
                edge[2] += 1

        return span

    def __enter__(self) -> "Tracer":
        try:
            for layer, targets in self.layers.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    self._patches.set(owner, attr, self._wrap(layer, vars(owner)[attr]))
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    def self_seconds(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in self.layers}
        for (_parent, layer), (_incl, self_s, _calls) in self.edges.items():
            out[layer] += self_s
        return out

    def calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in self.layers}
        for (_parent, layer), (_incl, _self_s, calls) in self.edges.items():
            out[layer] += calls
        return out

    def edge_table(self) -> List[dict]:
        """JSON-safe edges, heaviest self time first."""
        rows = [
            {
                "parent": parent,
                "layer": layer,
                "inclusive_s": incl,
                "self_s": self_s,
                "calls": calls,
            }
            for (parent, layer), (incl, self_s, calls) in self.edges.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


class CallCounter:
    """Counts calls to every method and property a class defines.

    Used as a context: ``with CallCounter(MetadataLayout) as counter:``;
    ``counter.count`` is the total afterwards.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.count = 0
        self._patches = _Patches()

    def _counting(self, fn):
        counter = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter.count += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "CallCounter":
        for attr, value in list(vars(self.cls).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, property):
                self._patches.set(self.cls, attr, property(self._counting(value.fget)))
            elif isinstance(value, types.FunctionType):
                self._patches.set(self.cls, attr, self._counting(value))
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()


def counted_class():
    """The class :data:`COUNTED_LAYER` names."""
    module_name, _, cls_name = COUNTED_LAYER[1].partition(":")
    return getattr(importlib.import_module(module_name), cls_name)
