"""A persistent-heap allocator over a mapped DAX file.

The PMDK-style workloads (PMEMKV's B+Tree, Whisper's hashmap and ctree)
allocate their nodes from a persistent pool inside a memory-mapped file.
This allocator models libpmemobj's role: carve the mapped range into
objects, keep the allocation metadata *itself* in persistent memory
(every alloc/free persists a small header, as real pool allocators must),
and hand out virtual addresses the workload then loads/stores through
the machine.

It is a bump allocator with size-class free lists — enough realism to
give allocation the write/persist cost it has in PMDK without modelling
full heap compaction.
"""

from __future__ import annotations

from typing import Dict, List

from ..mem.address import LINE_SIZE
from ..sim.machine import Machine

__all__ = ["PersistentAllocator", "PoolExhausted"]

_HEADER_BYTES = 16  # per-object persistent header (size + state word)


class PoolExhausted(Exception):
    """The mapped pool ran out of space."""


class PersistentAllocator:
    """Object allocator inside a [base, base+size) mapped range."""

    def __init__(self, machine: Machine, base_vaddr: int, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("pool must be non-empty")
        self.machine = machine
        self.base = base_vaddr
        self.size = size_bytes
        # The pool header occupies the first line (root pointer etc.).
        self._cursor = base_vaddr + LINE_SIZE
        self._free: Dict[int, List[int]] = {}
        self._allocated = 0

    @staticmethod
    def _round(n: int) -> int:
        """Size classes are line multiples: persistent objects are padded
        to cache lines so flushes never straddle unrelated objects."""
        payload = n + _HEADER_BYTES
        return ((payload + LINE_SIZE - 1) // LINE_SIZE) * LINE_SIZE

    def alloc(self, nbytes: int) -> int:
        """Allocate; returns the payload virtual address.

        Charges the persistent-metadata update: the object header is
        written and persisted (PMDK's redo-logged alloc).
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        size_class = self._round(nbytes)
        bucket = self._free.get(size_class)
        if bucket:
            addr = bucket.pop()
        else:
            if self._cursor + size_class > self.base + self.size:
                raise PoolExhausted(
                    f"pool of {self.size} bytes exhausted ({self._allocated} live)"
                )
            addr = self._cursor
            self._cursor += size_class
        # Persist the object header (state = allocated).
        self.machine.persist(addr, _HEADER_BYTES)
        self._allocated += 1
        return addr + _HEADER_BYTES

    def free(self, payload_addr: int, nbytes: int) -> None:
        """Return an object to its size-class free list."""
        size_class = self._round(nbytes)
        addr = payload_addr - _HEADER_BYTES
        self.machine.persist(addr, _HEADER_BYTES)  # state = free
        self._free.setdefault(size_class, []).append(addr)
        self._allocated -= 1
