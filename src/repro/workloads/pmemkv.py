"""PMEMKV-style benchmarks (Table II, middle block).

Five access patterns x two value sizes, all over the persistent B+Tree
engine on a DAX-mapped file:

================  ==========================================================
Fillrandom-S/L    load values in random key order
Fillseq-S/L       load values in sequential key order
Overwrite-S/L     replace values of a pre-filled store, random key order
Readrandom-S/L    read values in random key order (store pre-filled)
Readseq-S/L       read values in sequential key order (store pre-filled)
================  ==========================================================

``S`` = 64 B values, ``L`` = 4096 B values — the paper's locality knob:
a metadata-cache counter line covers 4 KB of data, so S packs 64 values
per counter line while every single L value spans a full line's
coverage, driving the -L variants' higher metadata miss rates.

Pre-fill happens before ``mark_measurement_start`` so results cover only
the benchmark's named phase, matching the paper's fast-forward.
"""

from __future__ import annotations

from typing import List

from ..mem.address import PAGE_SIZE
from ..sim.machine import Machine
from .base import Workload
from .btree import PersistentBTree
from .palloc import PersistentAllocator

__all__ = [
    "SMALL_VALUE",
    "LARGE_VALUE",
    "PmemkvWorkload",
    "Fillseq",
    "Fillrandom",
    "Overwrite",
    "Readrandom",
    "Readseq",
    "PMEMKV_BENCHMARKS",
    "make_pmemkv_workload",
]

SMALL_VALUE = 64
LARGE_VALUE = 4096

_DEFAULT_OPS_S = 2000
_DEFAULT_OPS_L = 500


class PmemkvWorkload(Workload):
    """Common scaffolding: file, pool, tree, key sequences."""

    pattern: str = "pmemkv"
    prefill: bool = False

    def __init__(self, value_size: int = SMALL_VALUE, ops: int = 0, seed: int = 1234) -> None:
        super().__init__(seed=seed)
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        self.value_size = value_size
        suffix = "S" if value_size <= 256 else "L"
        self.ops = ops or (_DEFAULT_OPS_S if suffix == "S" else _DEFAULT_OPS_L)
        self.name = f"{self.pattern}-{suffix}"

    # -- scaffolding ---------------------------------------------------------

    def _pool_pages(self) -> int:
        # Values + nodes + headroom, twice over for overwrite churn.
        per_op = self.value_size + 3 * 64 + 384 // 8
        total = self.ops * per_op * 3 + 64 * PAGE_SIZE
        return min(-(-total // PAGE_SIZE), 24 * 1024)

    def _build_store(self, machine: Machine) -> PersistentBTree:
        encrypted = machine.config.scheme.has_file_encryption
        handle = machine.create_file(
            f"/pmem/{self.name}.db", uid=self.uid, encrypted=encrypted
        )
        base = machine.mmap(handle, pages=self._pool_pages())
        allocator = PersistentAllocator(
            machine, base, self._pool_pages() * PAGE_SIZE
        )
        return PersistentBTree(machine, allocator)

    def _keys(self, shuffled: bool) -> List[int]:
        keys = list(range(self.ops))
        if shuffled:
            self.rng().shuffle(keys)
        return keys

    def _fill(self, tree: PersistentBTree) -> None:
        for key in self._keys(shuffled=False):
            tree.put(key, self.value_size)

    # -- template ---------------------------------------------------------------

    def run(self, machine: Machine) -> None:
        tree = self._build_store(machine)
        if self.prefill:
            self._fill(tree)
        machine.mark_measurement_start()
        self.measured_phase(machine, tree)

    def measured_phase(self, machine: Machine, tree: PersistentBTree) -> None:
        raise NotImplementedError


class Fillseq(PmemkvWorkload):
    """fillseq: loads values in sequential key order."""

    pattern = "Fillseq"

    def measured_phase(self, machine: Machine, tree: PersistentBTree) -> None:
        for key in self._keys(shuffled=False):
            tree.put(key, self.value_size)


class Fillrandom(PmemkvWorkload):
    """fillrandom: loads values in random key order."""

    pattern = "Fillrandom"

    def measured_phase(self, machine: Machine, tree: PersistentBTree) -> None:
        for key in self._keys(shuffled=True):
            tree.put(key, self.value_size)


class Overwrite(PmemkvWorkload):
    """overwrite: replaces values of a pre-filled store in random order."""

    pattern = "Overwrite"
    prefill = True

    def measured_phase(self, machine: Machine, tree: PersistentBTree) -> None:
        for key in self._keys(shuffled=True):
            tree.put(key, self.value_size)


class Readrandom(PmemkvWorkload):
    """readrandom: reads values in random key order."""

    pattern = "Readrandom"
    prefill = True

    def measured_phase(self, machine: Machine, tree: PersistentBTree) -> None:
        for key in self._keys(shuffled=True):
            if tree.get(key) is None:
                raise RuntimeError(f"pre-filled key {key} missing")


class Readseq(PmemkvWorkload):
    """readseq: reads values in sequential key order."""

    pattern = "Readseq"
    prefill = True

    def measured_phase(self, machine: Machine, tree: PersistentBTree) -> None:
        for key in tree.keys_inorder():
            if tree.get(key) is None:
                raise RuntimeError(f"in-order key {key} missing")


#: Figure 8-10's x-axis, in paper order.
PMEMKV_BENCHMARKS = [
    ("Fillrandom-S", Fillrandom, SMALL_VALUE),
    ("Fillrandom-L", Fillrandom, LARGE_VALUE),
    ("Fillseq-S", Fillseq, SMALL_VALUE),
    ("Fillseq-L", Fillseq, LARGE_VALUE),
    ("Overwrite-S", Overwrite, SMALL_VALUE),
    ("Overwrite-L", Overwrite, LARGE_VALUE),
    ("Readrandom-S", Readrandom, SMALL_VALUE),
    ("Readrandom-L", Readrandom, LARGE_VALUE),
    ("Readseq-S", Readseq, SMALL_VALUE),
    ("Readseq-L", Readseq, LARGE_VALUE),
]


def make_pmemkv_workload(name: str, ops: int = 0, seed: int = 1234) -> PmemkvWorkload:
    """Factory by paper name ("Fillrandom-L", ...)."""
    for bench_name, cls, value_size in PMEMKV_BENCHMARKS:
        if bench_name == name:
            return cls(value_size=value_size, ops=ops, seed=seed)
    raise KeyError(f"unknown PMEMKV benchmark {name!r}")
