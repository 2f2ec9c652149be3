"""A persistent B+Tree key-value engine over a DAX-mapped file.

This is the reproduction's stand-in for PMEMKV's ``btree`` engine
(Table II): nodes and value blobs live in a persistent pool inside a
memory-mapped file, updates follow the PMDK discipline (store + clwb +
sfence on every persistent mutation), and every logical step issues the
machine loads/stores a pointer-walking B+Tree really performs.

The Python objects are *shadow* copies of the persistent nodes — they
carry the addresses and the logical content so the traversal logic stays
readable, while all performance-relevant memory traffic goes through the
:class:`~repro.sim.machine.Machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..sim.machine import Machine
from .palloc import PersistentAllocator

__all__ = ["PersistentBTree"]

_FANOUT = 16  # max keys per node
_KEY_BYTES = 8
_PTR_BYTES = 8
_HEADER_BYTES = 16
_NODE_BYTES = _HEADER_BYTES + _FANOUT * (_KEY_BYTES + _PTR_BYTES)
_COMPARE_NS = 12.0  # one key compare + branch
_OP_OVERHEAD_NS = 150.0  # API entry, hashing, bookkeeping per op


@dataclass
class _Node:
    """Shadow of one persistent node."""

    addr: int
    is_leaf: bool
    keys: List[int] = field(default_factory=list)
    # Leaves: value blob addresses (+ sizes); internal: child nodes.
    children: List["_Node"] = field(default_factory=list)
    values: List[Tuple[int, int]] = field(default_factory=list)  # (addr, size)

    def key_slot_addr(self, index: int) -> int:
        return self.addr + _HEADER_BYTES + index * _KEY_BYTES

    def ptr_slot_addr(self, index: int) -> int:
        return self.addr + _HEADER_BYTES + _FANOUT * _KEY_BYTES + index * _PTR_BYTES


class PersistentBTree:
    """B+Tree with persistent nodes and out-of-line value blobs."""

    def __init__(self, machine: Machine, allocator: PersistentAllocator) -> None:
        self.machine = machine
        self.allocator = allocator
        self.root = self._new_node(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------
    # Node plumbing
    # ------------------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> _Node:
        addr = self.allocator.alloc(_NODE_BYTES)
        node = _Node(addr=addr, is_leaf=is_leaf)
        # Initialise the node header persistently.
        self.machine.persist(addr, _HEADER_BYTES)
        return node

    def _search_node(self, node: _Node, key: int) -> int:
        """Binary search with the machine traffic a real probe costs."""
        machine = self.machine
        machine.load(node.addr, _HEADER_BYTES)  # header: count, leaf flag
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            machine.load(node.key_slot_addr(mid), _KEY_BYTES)
            machine.compute(_COMPARE_NS)
            if node.keys[mid] <= key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def put(self, key: int, value_size: int) -> None:
        """Insert or update ``key`` with a blob of ``value_size`` bytes."""
        self.machine.compute(_OP_OVERHEAD_NS)
        leaf, path = self._descend(key)
        slot = self._leaf_slot(leaf, key)
        if slot is not None:
            # Update in place: rewrite the blob, persist it.
            addr, old_size = leaf.values[slot]
            if old_size != value_size:
                self.allocator.free(addr, old_size)
                addr = self.allocator.alloc(value_size)
                leaf.values[slot] = (addr, value_size)
                self.machine.persist(leaf.ptr_slot_addr(slot), _PTR_BYTES)
            self.machine.persist(addr, value_size)
            return

        blob = self.allocator.alloc(value_size)
        self.machine.persist(blob, value_size)
        insert_at = self._search_node(leaf, key)
        leaf.keys.insert(insert_at, key)
        leaf.values.insert(insert_at, (blob, value_size))
        # Shifting entries right of the insertion point is persistent
        # traffic: key+pointer per shifted slot, then the new entry and
        # the header.
        for index in range(insert_at, len(leaf.keys)):
            self.machine.persist(leaf.key_slot_addr(index), _KEY_BYTES)
            self.machine.persist(leaf.ptr_slot_addr(index), _PTR_BYTES)
        self.machine.persist(leaf.addr, _HEADER_BYTES)
        self.size += 1
        if len(leaf.keys) > _FANOUT:
            self._split(leaf, path)

    def get(self, key: int) -> Optional[int]:
        """Look up ``key``; returns the value size read, or None.

        Reads the whole blob (PMEMKV returns the value bytes)."""
        self.machine.compute(_OP_OVERHEAD_NS)
        leaf, _ = self._descend(key)
        slot = self._leaf_slot(leaf, key)
        if slot is None:
            return None
        addr, size = leaf.values[slot]
        self.machine.load(addr, size)
        return size

    def keys_inorder(self) -> List[int]:
        """All keys, ascending (drives readseq without machine traffic)."""
        out: List[int] = []

        def walk(node: _Node) -> None:
            if node.is_leaf:
                out.extend(node.keys)
                return
            for child in node.children:
                walk(child)

        walk(self.root)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _descend(self, key: int) -> Tuple[_Node, List[_Node]]:
        node = self.root
        path: List[_Node] = []
        while not node.is_leaf:
            slot = self._search_node(node, key)
            self.machine.load(node.ptr_slot_addr(min(slot, len(node.children) - 1)), _PTR_BYTES)
            path.append(node)
            node = node.children[min(slot, len(node.children) - 1)]
        return node, path

    def _leaf_slot(self, leaf: _Node, key: int) -> Optional[int]:
        slot = self._search_node(leaf, key) - 1
        if 0 <= slot < len(leaf.keys) and leaf.keys[slot] == key:
            return slot
        return None

    def _split(self, node: _Node, path: List[_Node]) -> None:
        """Split an overfull node, copying the upper half to a new node."""
        sibling = self._new_node(is_leaf=node.is_leaf)
        mid = len(node.keys) // 2
        if node.is_leaf:
            sibling.keys = node.keys[mid:]
            separator = sibling.keys[0]
            node.keys = node.keys[:mid]
            sibling.values = node.values[mid:]
            node.values = node.values[:mid]
        else:
            # The separator moves up; children split around it so each
            # side keeps the keys+1 == children invariant.
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]

        # Copy traffic: read the moved half, persist it at the sibling.
        moved = len(sibling.keys) + 1
        for index in range(moved):
            self.machine.load(node.key_slot_addr(mid + index), _KEY_BYTES + _PTR_BYTES)
            self.machine.persist(sibling.key_slot_addr(index), _KEY_BYTES + _PTR_BYTES)
        self.machine.persist(sibling.addr, _HEADER_BYTES)
        self.machine.persist(node.addr, _HEADER_BYTES)

        if not path:
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [node, sibling]
            self.machine.persist(new_root.addr, _HEADER_BYTES + _KEY_BYTES + 2 * _PTR_BYTES)
            self.root = new_root
            return

        parent = path[-1]
        slot = self._search_node(parent, separator)
        parent.keys.insert(slot, separator)
        parent.children.insert(slot + 1, sibling)
        self.machine.persist(parent.key_slot_addr(slot), _KEY_BYTES)
        self.machine.persist(parent.ptr_slot_addr(slot + 1), _PTR_BYTES)
        self.machine.persist(parent.addr, _HEADER_BYTES)
        if len(parent.keys) > _FANOUT:
            self._split(parent, path[:-1])
