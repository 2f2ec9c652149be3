"""A persistent crit-bit tree — Whisper's ``ctree`` data structure.

A crit-bit (PATRICIA) tree over 64-bit keys: internal nodes store the
index of the highest bit where their subtrees' keys differ; leaves hold
the key and a fixed-size payload.  Lookups walk one node per decided
bit; inserts add exactly one internal node and one leaf — persistent
pointer-chasing with small nodes, the access pattern that distinguishes
ctree from the hashmap in Figure 11.

Internal node layout: 8 B crit-bit | 8 B left | 8 B right.
Leaf layout:          8 B key      | ``data_size`` B payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..sim.machine import Machine
from .palloc import PersistentAllocator

__all__ = ["PersistentCritbitTree"]

_PTR_BYTES = 8
_KEY_BYTES = 8
_INTERNAL_BYTES = 8 + 2 * _PTR_BYTES
_BIT_TEST_NS = 10.0
_OP_OVERHEAD_NS = 120.0


@dataclass
class _Leaf:
    addr: int
    key: int


@dataclass
class _Internal:
    addr: int
    crit_bit: int
    left: "Union[_Leaf, _Internal, None]" = None
    right: "Union[_Leaf, _Internal, None]" = None

    def child_for(self, key: int) -> "Union[_Leaf, _Internal, None]":
        return self.right if (key >> self.crit_bit) & 1 else self.left

    def set_child(self, key: int, node: "Union[_Leaf, _Internal]") -> None:
        if (key >> self.crit_bit) & 1:
            self.right = node
        else:
            self.left = node

    def child_slot_addr(self, key: int) -> int:
        side = (key >> self.crit_bit) & 1
        return self.addr + 8 + side * _PTR_BYTES


class PersistentCritbitTree:
    """Crit-bit tree with persistent nodes; 64-bit keys."""

    def __init__(
        self, machine: Machine, allocator: PersistentAllocator, data_size: int = 128
    ) -> None:
        self.machine = machine
        self.allocator = allocator
        self.data_size = data_size
        self.leaf_size = _KEY_BYTES + data_size
        self.root: Union[_Leaf, _Internal, None] = None
        # The persistent root pointer lives at a fixed pool slot.
        self.root_ptr_addr = allocator.alloc(_PTR_BYTES)
        self.size = 0

    # ------------------------------------------------------------------

    def _descend_to_leaf(self, key: int) -> Optional[_Leaf]:
        """Walk to the closest leaf, charging one node load per step."""
        machine = self.machine
        machine.load(self.root_ptr_addr, _PTR_BYTES)
        node = self.root
        while isinstance(node, _Internal):
            machine.load(node.addr, _INTERNAL_BYTES)
            machine.compute(_BIT_TEST_NS)
            node = node.child_for(key)
        return node

    def _new_leaf(self, key: int) -> _Leaf:
        addr = self.allocator.alloc(self.leaf_size)
        self.machine.persist(addr, self.leaf_size)
        return _Leaf(addr=addr, key=key)

    # ------------------------------------------------------------------

    def put(self, key: int) -> None:
        self.machine.compute(_OP_OVERHEAD_NS)
        if self.root is None:
            leaf = self._new_leaf(key)
            self.machine.persist(self.root_ptr_addr, _PTR_BYTES)
            self.root = leaf
            self.size = 1
            return

        nearest = self._descend_to_leaf(key)
        if nearest is None:
            raise RuntimeError(f"non-empty tree has no leaf for key {key}")
        if nearest.key == key:
            # Update payload in place.
            self.machine.persist(nearest.addr + _KEY_BYTES, self.data_size)
            return

        crit_bit = (key ^ nearest.key).bit_length() - 1
        leaf = self._new_leaf(key)
        internal_addr = self.allocator.alloc(_INTERNAL_BYTES)
        internal = _Internal(addr=internal_addr, crit_bit=crit_bit)

        # Find the insertion point: the first node on the path whose
        # crit bit is below ours (standard crit-bit insert).
        parent: Optional[_Internal] = None
        node = self.root
        while isinstance(node, _Internal) and node.crit_bit > crit_bit:
            self.machine.load(node.addr, _INTERNAL_BYTES)
            self.machine.compute(_BIT_TEST_NS)
            parent = node
            node = node.child_for(key)

        internal.set_child(key, leaf)
        other_side = node
        if (key >> crit_bit) & 1:
            internal.left = other_side
        else:
            internal.right = other_side

        # Persist the new internal node fully, then publish the link.
        self.machine.persist(internal_addr, _INTERNAL_BYTES)
        if parent is None:
            self.machine.persist(self.root_ptr_addr, _PTR_BYTES)
            self.root = internal
        else:
            self.machine.persist(parent.child_slot_addr(key), _PTR_BYTES)
            parent.set_child(key, internal)
        self.size += 1

    def get(self, key: int) -> bool:
        self.machine.compute(_OP_OVERHEAD_NS)
        leaf = self._descend_to_leaf(key)
        if leaf is None or leaf.key != key:
            return False
        self.machine.load(leaf.addr + _KEY_BYTES, self.data_size)
        return True
