"""A persistent chained hashmap — Whisper's ``hashmap`` data structure.

Fixed bucket array + chained entry nodes, all in the persistent pool.
Every mutation follows the persist discipline: write the new node, clwb
it, fence, then atomically link it by persisting the bucket-head (or
predecessor) pointer — the standard PM-safe publication order.

Entry layout: 8 B key | ``data_size`` B payload | 8 B next pointer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.machine import Machine
from .palloc import PersistentAllocator

__all__ = ["PersistentHashmap"]

_PTR_BYTES = 8
_KEY_BYTES = 8
_HASH_NS = 25.0
_OP_OVERHEAD_NS = 120.0


class PersistentHashmap:
    """Chained hashmap with persistent buckets and nodes."""

    def __init__(
        self,
        machine: Machine,
        allocator: PersistentAllocator,
        buckets: int = 1024,
        data_size: int = 128,
    ) -> None:
        if buckets <= 0 or buckets & (buckets - 1):
            raise ValueError("buckets must be a power of two")
        self.machine = machine
        self.allocator = allocator
        self.num_buckets = buckets
        self.data_size = data_size
        self.entry_size = _KEY_BYTES + data_size + _PTR_BYTES
        # The bucket array itself is a persistent object.
        self.bucket_base = allocator.alloc(buckets * _PTR_BYTES)
        # Shadow: bucket index -> list of (key, node_addr), head first.
        self._chains: Dict[int, List["tuple[int, int]"]] = {}
        self.size = 0

    def _bucket(self, key: int) -> int:
        self.machine.compute(_HASH_NS)
        # Deterministic mix; quality matters less than determinism.
        h = (key * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return (h >> 17) % self.num_buckets

    def _bucket_addr(self, bucket: int) -> int:
        return self.bucket_base + bucket * _PTR_BYTES

    def _walk_chain(self, bucket: int, key: int) -> Optional[int]:
        """Load-walk the chain; returns the node address on match."""
        machine = self.machine
        machine.load(self._bucket_addr(bucket), _PTR_BYTES)
        for chain_key, node_addr in self._chains.get(bucket, []):
            machine.load(node_addr, _KEY_BYTES)  # key compare
            machine.compute(12.0)
            if chain_key == key:
                return node_addr
            machine.load(node_addr + _KEY_BYTES + self.data_size, _PTR_BYTES)
        return None

    def put(self, key: int) -> None:
        """Insert or update; payload content is synthetic (size matters)."""
        self.machine.compute(_OP_OVERHEAD_NS)
        bucket = self._bucket(key)
        node_addr = self._walk_chain(bucket, key)
        if node_addr is not None:
            self.machine.persist(node_addr + _KEY_BYTES, self.data_size)
            return
        addr = self.allocator.alloc(self.entry_size)
        # Write key + payload + next, persist, then publish at the head.
        self.machine.persist(addr, self.entry_size)
        self.machine.persist(self._bucket_addr(bucket), _PTR_BYTES)
        self._chains.setdefault(bucket, []).insert(0, (key, addr))
        self.size += 1

    def get(self, key: int) -> bool:
        """Lookup; reads the payload on a hit."""
        self.machine.compute(_OP_OVERHEAD_NS)
        bucket = self._bucket(key)
        node_addr = self._walk_chain(bucket, key)
        if node_addr is None:
            return False
        self.machine.load(node_addr + _KEY_BYTES, self.data_size)
        return True
