"""Anubis-style shadow tracking: the paper's other recovery citation.

§III-H offers two crash-consistency strategies for metadata: Osiris
(bounded staleness + ECC trial decryption, implemented in
``osiris.py``) and Anubis [6] — "a shadow table that tracks the most
recently updated counters and Merkle tree for faster recovery".

The trade they make is recovery *time* vs runtime *writes*:

* Osiris pays ~nothing at runtime beyond the stop-loss write-throughs,
  but recovery must trial-decrypt up to ``stop_loss + 1`` candidates per
  *potentially stale* line — and without a record of which lines were
  dirty, that means every line ever written.
* Anubis writes one shadow-table entry per metadata-cache *insertion*
  (a bounded, cache-sized region), and recovery touches exactly the
  lines the shadow names: recovery time proportional to the metadata
  cache size, not the memory size — Anubis's headline property.

:class:`ShadowTable` models the region and its runtime write stream;
reboot replays it by restoring ``sorted(shadow.tracked_lines())``.  The
ablation benchmark races the two schemes' recovery work on identical
crash states.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..mem.address import LINE_SIZE
from ..mem.stats import StatCounters

__all__ = ["ShadowTable"]


class ShadowTable:
    """The in-memory shadow of the metadata cache's current contents.

    One shadow slot per metadata-cache line; ``note_insert`` mirrors a
    cache fill (one extra NVM write to the shadow region), and
    ``note_evict`` clears the slot (the line's home copy is now
    current, or will be via its own write-back).
    """

    def __init__(
        self,
        capacity_lines: int,
        base_addr: int,
        write_hook: Optional[Callable[[int], None]] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if capacity_lines < 1:
            raise ValueError("shadow table needs capacity")
        self.capacity = capacity_lines
        self.base_addr = base_addr
        self.stats = stats or StatCounters("anubis")
        self._write_hook = write_hook
        self._slots: Dict[int, int] = {}  # metadata line addr -> slot
        self._free: List[int] = list(range(capacity_lines - 1, -1, -1))

    def _emit_write(self, slot: int) -> None:
        self.stats.add("shadow_writes")
        if self._write_hook is not None:
            self._write_hook(self.base_addr + slot * LINE_SIZE)

    def note_insert(self, metadata_addr: int) -> None:
        """A metadata line entered the on-chip cache (it may go stale
        in memory from now on): record it in the shadow region."""
        if metadata_addr in self._slots:
            # Re-reference: shadow entry already covers it; Anubis
            # updates the entry in place on each counter write.
            self._emit_write(self._slots[metadata_addr])
            return
        if not self._free:
            raise RuntimeError(
                "shadow table overflow: size it to the metadata cache"
            )
        slot = self._free.pop()
        self._slots[metadata_addr] = slot
        self._emit_write(slot)

    def note_evict(self, metadata_addr: int) -> None:
        """The line left the cache (written back): slot recycles."""
        slot = self._slots.pop(metadata_addr, None)
        if slot is not None:
            self._free.append(slot)
            self._emit_write(slot)  # mark-invalid write

    def slot_addr(self, metadata_addr: int) -> int:
        """NVM address of the shadow slot covering a tracked line
        (recovery reads it back from here)."""
        return self.base_addr + self._slots[metadata_addr] * LINE_SIZE

    def reset(self) -> None:
        """Post-recovery: every tracked line was restored and re-
        journalled, so the shadow region starts empty (no writes — the
        invalid marks are subsumed by recovery's own persists)."""
        self._slots.clear()
        self._free = list(range(self.capacity - 1, -1, -1))

    def tracked_lines(self) -> Set[int]:
        """What a crash would need to recover — exactly the dirty set."""
        return set(self._slots)

    @property
    def occupancy(self) -> int:
        return len(self._slots)
