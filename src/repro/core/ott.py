"""The Open Tunnel Table (OTT) and its encrypted memory spill region.

§III-E: the OTT is the on-chip home of plaintext file keys — eight
fully-associative banks of 128 entries, searched in parallel in 20
cycles (deliberately slower than a TLB to save power).  Each entry is
(Group ID 18 b, File ID 14 b, key 128 b).

When the OTT overflows, least-recently-used entries spill to a dedicated
memory region *encrypted under the on-chip OTT key* and organised as a
set-associative hash table; a lookup that misses the OTT fetches from
there.  The region is covered by the Merkle tree, and — because the OTT
key never leaves the processor — stealing the DIMM or even breaking the
memory encryption key does not expose file keys (§VI "Memory Encryption
Key Revealed").
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..crypto.aes import AES128
from ..crypto.iv import OTT_DOMAIN, CounterIV
from ..crypto.keys import SecretKey
from ..crypto.otp import generate_otp, xor_bytes
from ..mem.address import LINE_SIZE
from ..mem.controller import ServiceQueue
from ..mem.stats import StatCounters

__all__ = [
    "GROUP_ID_BITS",
    "FILE_ID_BITS",
    "OTTEntry",
    "OpenTunnelTable",
    "OTTPortQueue",
    "EncryptedOTTRegion",
    "KeyUnavailableError",
]

GROUP_ID_BITS = 18
FILE_ID_BITS = 14
OTT_BANKS = 8
OTT_ENTRIES_PER_BANK = 128
OTT_LOOKUP_CYCLES = 20  # == ns at the 1 GHz clock


class KeyUnavailableError(Exception):
    """No key for (group, file) in the OTT or the spill region."""


@dataclass(frozen=True)
class OTTEntry:
    """One file-key binding.

    ``key`` is a :class:`~repro.crypto.keys.SecretKey`, which redacts
    itself anyway; it is also kept out of the auto-repr, since entries
    surface in tracebacks and debug dumps (§III-E key hygiene).
    """

    group_id: int
    file_id: int
    key: SecretKey = field(repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.group_id < (1 << GROUP_ID_BITS):
            raise ValueError(f"group_id {self.group_id} exceeds {GROUP_ID_BITS} bits")
        if not 0 <= self.file_id < (1 << FILE_ID_BITS):
            raise ValueError(f"file_id {self.file_id} exceeds {FILE_ID_BITS} bits")
        if not isinstance(self.key, SecretKey):
            raise TypeError("file key must be a SecretKey")

    @property
    def ident(self) -> Tuple[int, int]:
        return (self.group_id, self.file_id)


class OpenTunnelTable:
    """On-chip key store: LRU over ``banks * entries_per_bank`` slots.

    The banked organisation only affects capacity and power in the paper;
    lookups search all banks in parallel, so one LRU pool models it.
    """

    def __init__(
        self,
        banks: int = OTT_BANKS,
        entries_per_bank: int = OTT_ENTRIES_PER_BANK,
        lookup_latency_ns: float = float(OTT_LOOKUP_CYCLES),
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.capacity = banks * entries_per_bank
        self.lookup_latency_ns = lookup_latency_ns
        self.stats = stats or StatCounters("ott")
        self._entries: "OrderedDict[Tuple[int, int], OTTEntry]" = OrderedDict()

    def lookup(self, group_id: int, file_id: int) -> Optional[OTTEntry]:
        entry = self._entries.get((group_id, file_id))
        if entry is not None:
            self._entries.move_to_end((group_id, file_id))
            self.stats.add("hits")
        else:
            self.stats.add("misses")
        return entry

    def insert(self, entry: OTTEntry) -> Optional[OTTEntry]:
        """Install a key; returns the LRU victim if the table was full."""
        victim: Optional[OTTEntry] = None
        if entry.ident in self._entries:
            self._entries.move_to_end(entry.ident)
            self._entries[entry.ident] = entry
            return None
        if len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            self.stats.add("evictions")
        self._entries[entry.ident] = entry
        self.stats.add("inserts")
        return victim

    def remove(self, group_id: int, file_id: int) -> bool:
        if self._entries.pop((group_id, file_id), None) is not None:
            self.stats.add("removals")
            return True
        return False

    def entries(self) -> List[OTTEntry]:
        """Snapshot (crash-flush support: §III-H backup-power drain)."""
        return list(self._entries.values())

    def reset(self) -> None:
        """Power loss: the on-chip table is volatile and comes up empty.

        Capacity and stats survive — they belong to the hardware and its
        observer, not to the lost SRAM contents.
        """
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class OTTPortQueue(ServiceQueue):
    """The OTT's single lookup port as a shared contention point.

    §III-E sizes the table for capacity, not bandwidth: all eight banks
    are searched in parallel but there is *one* 20-cycle lookup port in
    front of them.  The service model counts the OTT lookups each
    controller access performs and holds this queue for their port time
    (capped at the access's own charged latency, so the port is never
    modelled busier than the access that used it).  Under
    :meth:`~repro.sim.service.ServiceQueues.charge` those windows nest
    inside the access's memory-controller window, so the MC queue
    already serialises concurrent streams and this port never adds a
    wait of its own; it records lookups and busy time.  Making the
    port a contention point in its own right needs it modelled outside
    the MC critical section (open work)."""

    def __init__(self, stats: Optional[StatCounters] = None) -> None:
        super().__init__(name="ott_queue", stats=stats)


class EncryptedOTTRegion:
    """The set-associative spill hash table in protected memory.

    Each 64 B line holds one sealed entry.  (group, file) hashes to a
    set of ``ways`` consecutive lines; insertion takes the first free or
    matching way and fails over to eviction-free replacement of a random
    way is *not* modelled — the region is sized so sets do not overflow
    in practice, and an overflow raises loudly instead of silently
    dropping a key.

    Sealing is authenticated: AES-CTR-style pad keyed by the OTT key and
    the slot index, plus a truncated SHA-256 tag binding (slot, payload)
    — a moved or bit-flipped record fails its tag even before the Merkle
    tree (which also covers this region) catches it.
    """

    RECORD_BYTES = 48  # 4 (ids) + 16 (key) + 16 (tag) + padding

    def __init__(
        self,
        slots: int,
        ott_key: SecretKey,
        ways: int = 8,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if slots < ways or slots % ways:
            raise ValueError("slots must be a positive multiple of ways")
        self.slots = slots
        self.ways = ways
        self.stats = stats or StatCounters("ott_region")
        self._cipher = AES128(ott_key)
        self._lines: Dict[int, bytes] = {}  # slot -> sealed record
        self._occupancy: Dict[int, Tuple[int, int]] = {}  # slot -> ident

    # -- sealing ------------------------------------------------------------

    def _pad(self, slot: int) -> bytes:
        iv = CounterIV(domain=OTT_DOMAIN, page_id=slot, page_offset=0, major=0, minor=0)
        return generate_otp(self._cipher, iv, self.RECORD_BYTES)

    def _tag(self, slot: int, payload: bytes) -> bytes:
        material = self._cipher.key.reveal() + slot.to_bytes(8, "big") + payload
        return hashlib.sha256(material).digest()[:16]

    def _seal(self, slot: int, entry: OTTEntry) -> bytes:
        ident = (entry.group_id << FILE_ID_BITS) | entry.file_id
        payload = ident.to_bytes(4, "big") + entry.key.reveal()
        tag = self._tag(slot, payload)
        record = payload + tag + bytes(self.RECORD_BYTES - len(payload) - len(tag))
        return xor_bytes(record, self._pad(slot))

    def _unseal(self, slot: int, sealed: bytes) -> Optional[OTTEntry]:
        record = xor_bytes(sealed, self._pad(slot))
        payload, tag = record[:20], record[20:36]
        if tag != self._tag(slot, payload):
            self.stats.add("tag_failures")
            return None
        ident = int.from_bytes(payload[:4], "big")
        return OTTEntry(
            group_id=ident >> FILE_ID_BITS,
            file_id=ident & ((1 << FILE_ID_BITS) - 1),
            key=SecretKey(payload[4:20]),
        )

    # -- hash-table operations ----------------------------------------------

    def _set_base(self, group_id: int, file_id: int) -> int:
        digest = hashlib.sha256(
            b"ott-set" + group_id.to_bytes(4, "big") + file_id.to_bytes(4, "big")
        ).digest()
        num_sets = self.slots // self.ways
        return (int.from_bytes(digest[:8], "big") % num_sets) * self.ways

    def store(self, entry: OTTEntry) -> int:
        """Write a sealed entry; returns the slot used.

        Raises if the set is full of *other* files' keys — by design a
        loud failure rather than silent key loss.
        """
        base = self._set_base(entry.group_id, entry.file_id)
        free_slot: Optional[int] = None
        for slot in range(base, base + self.ways):
            occupant = self._occupancy.get(slot)
            if occupant == entry.ident:
                free_slot = slot
                break
            if occupant is None and free_slot is None:
                free_slot = slot
        if free_slot is None:
            raise KeyUnavailableError(
                f"OTT spill set full for group={entry.group_id} file={entry.file_id}"
            )
        self._lines[free_slot] = self._seal(free_slot, entry)
        self._occupancy[free_slot] = entry.ident
        self.stats.add("stores")
        return free_slot

    def fetch(self, group_id: int, file_id: int) -> Tuple[Optional[OTTEntry], List[int]]:
        """Probe the set; returns (entry_or_None, slots_probed).

        The probed slot list lets the controller charge real memory
        reads for each probe.
        """
        base = self._set_base(group_id, file_id)
        probed: List[int] = []
        for slot in range(base, base + self.ways):
            probed.append(slot)
            if self._occupancy.get(slot) == (group_id, file_id):
                sealed = self._lines.get(slot)
                entry = self._unseal(slot, sealed) if sealed is not None else None
                self.stats.add("fetch_hits" if entry else "fetch_corrupt")
                return entry, probed
        self.stats.add("fetch_misses")
        return None, probed

    def remove(self, group_id: int, file_id: int) -> Optional[int]:
        """Erase the sealed record (file deletion); returns its slot."""
        base = self._set_base(group_id, file_id)
        for slot in range(base, base + self.ways):
            if self._occupancy.get(slot) == (group_id, file_id):
                del self._lines[slot]
                del self._occupancy[slot]
                self.stats.add("removals")
                return slot
        return None

    def slot_bytes(self, slot: int) -> bytes:
        """Raw sealed line (Merkle leaf content / attacker's view)."""
        sealed = self._lines.get(slot)
        if sealed is None:
            return bytes(LINE_SIZE)
        return sealed + bytes(LINE_SIZE - len(sealed))

    def tamper(self, slot: int, flip_byte: int = 0) -> None:
        """Test hook: corrupt one sealed byte in place."""
        sealed = bytearray(self._lines[slot])
        sealed[flip_byte] ^= 0xFF
        self._lines[slot] = bytes(sealed)

    def flip_bit(self, slot: int, bit: int) -> None:
        """Media fault: flip one bit of a sealed record in place.

        The record's tag then fails on the next unseal — the fault is
        *detected*, the key is reported unavailable, never garbage.
        """
        sealed = bytearray(self._lines[slot])
        if not 0 <= bit < len(sealed) * 8:
            raise ValueError(f"bit index {bit} out of record range")
        sealed[bit // 8] ^= 1 << (bit % 8)
        self._lines[slot] = bytes(sealed)

    def occupied_slots(self) -> "List[int]":
        """Slots currently holding a sealed record (media-fault targets)."""
        return sorted(self._lines)

    def __len__(self) -> int:
        return len(self._lines)
