"""Machine-level crash, reboot, and recovery.

Only a functional machine with a secure memory controller can crash
(``Machine.crash`` checks it): the crash model audits counter-mode
recovery, which the plain and page-cache machines do not have.

``crash_machine`` is the power-fail instant: every volatile structure
(CPU caches, TLBs, the on-chip metadata cache, the OTT SRAM, the
plaintext shadow) loses its contents, and the in-flight
write tail staged in the :class:`~repro.faults.domain.CrashDomain` is
resolved entry by entry according to the :class:`FaultPlan` — drained
into the array, cleanly dropped (the NVM keeps the pre-write line), or
torn (old and new interleaved per 8-byte device word).  Optional media
bit flips land afterwards.

``reboot_machine`` then runs the *real* recovery paths the paper
describes instead of restoring a golden snapshot:

1. the on-chip OTT is rebuilt from the encrypted spill region
   (write-through logging, §III-H option 1);
2. every line carrying plaintext ECC is trial-decrypted from the
   *persisted* counter values upward (Osiris §II-D) by the one search,
   :func:`~repro.secmem.osiris.recover_line` — over the MECB minor for
   plain-memory pages, and over (MECB minor, FECB minor) for
   file-stamped pages, since both layers' counters ride the same
   stop-loss window;
3. the recovered counters are installed and the Bonsai Merkle tree is
   rebuilt over them, so subsequent reads verify the recovered state.

The invariant the sweep (``repro.faults.sweep``) checks is decided
here: a line either recovers to a consistent version or its failure is
*explicit* (ECC exhaustion, tag failure, integrity error) — never a
silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.ott import KeyUnavailableError
from ..crypto.iv import FILE_DOMAIN, MEMORY_DOMAIN, CounterIV
from ..mem.address import LINE_SIZE, LINES_PER_PAGE, page_number, page_offset_lines
from ..secmem.counters import MINOR_BITS
from ..secmem.osiris import recover_line
from .domain import LineWrite
from .plan import TEAR_BYTES, FaultPlan

__all__ = [
    "DISPOSITION_DRAINED",
    "DISPOSITION_DROPPED",
    "DISPOSITION_TORN",
    "LineFate",
    "MetadataFlip",
    "CrashReport",
    "RecoveryReport",
    "crash_machine",
    "reboot_machine",
]

DISPOSITION_DRAINED = "drained"
DISPOSITION_DROPPED = "dropped"
DISPOSITION_TORN = "torn"

_WORDS_PER_LINE = LINE_SIZE // TEAR_BYTES


@dataclass(frozen=True)
class LineFate:
    """What the crash did to one in-flight line write."""

    addr: int
    disposition: str  # drained | dropped | torn
    old_plain: Optional[bytes]
    new_plain: bytes


@dataclass(frozen=True)
class MetadataFlip:
    """One media fault landed in a security-metadata region.

    ``region`` names where it hit — ``mecb``/``fecb`` (one page's
    persisted counter line in the journal), ``ott`` (a sealed
    spill-region record), ``merkle`` (a stored tree node) or ``anubis``
    (a shadow entry).  ``where`` is the page, slot, (level, index) or
    shadowed line address; ``field`` says which value within the target
    the ``bit`` landed in.
    """

    region: str
    where: object
    field: str
    bit: int


@dataclass(frozen=True)
class CrashReport:
    """Everything the crash injected, for the sweep's oracle."""

    plan: FaultPlan
    inflight: int
    drained: int
    dropped: int
    torn: int
    bit_flips: Tuple[Tuple[int, int], ...]  # (addr, bit)
    wpq_entries_lost: int
    line_fates: Dict[int, LineFate]
    #: Number of tear *events*; with ``plan.torn_burst > 1`` one event
    #: can take several contiguous in-flight lines down together.
    torn_bursts: int = 0
    metadata_flips: Tuple[MetadataFlip, ...] = ()


@dataclass(frozen=True)
class RecoveryReport:
    """What reboot-time recovery did and what it cost.  ``trials`` is
    every Osiris trial decryption, plain and file-stamped lines alike."""

    trials: int
    lines_checked: int
    lines_recovered: int
    failed_lines: Tuple[int, ...]
    pages_restored: int
    ott_keys_recovered: int
    merkle_leaves_rebuilt: int
    recovery_ns: float
    #: Stored Merkle nodes whose digest failed the pre-install
    #: integrity scan (media faults in node storage, or a protected
    #: leaf region — e.g. an OTT slot — that no longer matches its node).
    merkle_nodes_poisoned: int = 0
    #: OTT spill records whose tag failed during the recovery scan.
    ott_slots_rejected: int = 0
    #: Counter lines restored from the Anubis shadow region (the
    #: "+anubis" columns): these start trial decryption at zero lag.
    anubis_lines_restored: int = 0


# ======================================================================
# Crash
# ======================================================================


def _tear_line(store, write: LineWrite, rng) -> None:
    """Interleave old/new per 8-byte device word (data + its ECC byte).

    Each 72-bit device word (64 data bits + the plaintext-ECC byte)
    commits atomically, so a torn line is a word-granular mix of two
    versions sealed under *different* counters — no single trial counter
    decrypts every word, which is exactly why ECC flags it.
    """
    old_ecc = write.old_ecc if write.old_ecc is not None else bytes(_WORDS_PER_LINE)
    mixed_cipher = bytearray()
    mixed_ecc = bytearray()
    for word in range(_WORDS_PER_LINE):
        lo, hi = word * TEAR_BYTES, (word + 1) * TEAR_BYTES
        if rng.random() < 0.5:
            mixed_cipher += write.new_cipher[lo:hi]
            mixed_ecc.append(write.new_ecc[word])
        else:
            mixed_cipher += write.old_cipher[lo:hi]
            mixed_ecc.append(old_ecc[word])
    store.write_line(write.addr, bytes(mixed_cipher))
    store.write_ecc(write.addr, bytes(mixed_ecc))


def _is_fsencr(machine) -> bool:
    """The one scheme check: of the two machines that can crash, FsEncr
    is the one whose controller adds the FECB and OTT layers."""
    return machine.config.scheme.has_file_encryption


def _drop_volatile_state(machine) -> None:
    """Power loss: everything DRAM/SRAM-resident vanishes."""
    machine.hierarchy.drain_dirty()  # discard — no write-back after power loss
    machine.mmu.tlb.flush()
    controller = machine.controller
    controller.metadata_cache.flush_all()  # discard the victims: dirty metadata is lost
    controller._plaintext_shadow.clear()
    if _is_fsencr(machine):
        controller.ott.reset()


def _counter_line(layout, addr: int) -> Tuple[str, int]:
    """``("mecb" | "fecb", page)`` of a journalled counter-line address."""
    if addr < layout.fecb_base:
        return "mecb", (addr - layout.mecb_base) // LINE_SIZE
    return "fecb", (addr - layout.fecb_base) // LINE_SIZE


def _metadata_flip_targets(machine) -> List[Tuple[str, object]]:
    """Every metadata location a ``counter_flips`` fault can land in.

    Deterministically ordered: persisted counter lines by address (the
    MECBs, then the FECBs), occupied OTT spill slots (FsEncr only),
    stored Merkle nodes, Anubis shadow entries.
    """
    controller = machine.controller
    targets: List[Tuple[str, object]] = [("line", addr) for addr in sorted(controller._persisted_lines)]
    if _is_fsencr(machine):
        targets += [("ott", slot) for slot in controller.ott_region.occupied_slots()]
    targets += [("merkle", node) for node in controller.merkle.stored_nodes()]
    targets += [("anubis", addr) for addr in sorted(controller._anubis_counters)]
    return targets


# Sealed OTT records are 48 bytes (EncryptedOTTRegion.RECORD_BYTES);
# stored Merkle nodes are 32-byte SHA-256 digests.  Kept as local
# constants so repro.faults stays import-light.
_OTT_RECORD_BITS = 48 * 8
_MERKLE_DIGEST_BITS = 32 * 8


# The leading image fields a journalled line's flip may hit, one eighth
# of the draws each (low byte); the other draws hit a minor.
_HEAD_FIELDS = {"mecb": ("major",), "fecb": ("group_id", "file_id")}


def _flip_minor(image: tuple, rng) -> Tuple[tuple, str, int]:
    """Flip one bit of one minor of a counter-line image."""
    minors = list(image[-1])
    line = rng.randrange(len(minors))
    bit = rng.randrange(MINOR_BITS)
    minors[line] ^= 1 << bit
    return image[:-1] + (tuple(minors),), f"minor[{line}]", bit


def _apply_metadata_flip(controller, region: str, where, rng) -> MetadataFlip:
    """Land one bit flip in the chosen metadata target."""
    if region == "line":
        kind, page = _counter_line(controller.layout, where)
        image = controller._persisted_lines[where]
        heads = _HEAD_FIELDS[kind]
        head = int(rng.random() * 8)  # exact: < 1 iff the draw < 0.125
        if head < len(heads):
            bit = rng.randrange(8)
            image = image[:head] + (image[head] ^ (1 << bit),) + image[head + 1:]
            field = heads[head]
        else:
            image, field, bit = _flip_minor(image, rng)
        controller._persisted_lines[where] = image
        return MetadataFlip(region=kind, where=page, field=field, bit=bit)
    if region == "ott":
        bit = rng.randrange(_OTT_RECORD_BITS)
        controller.ott_region.flip_bit(where, bit)
        return MetadataFlip(region="ott", where=where, field="sealed_record", bit=bit)
    if region == "merkle":
        level, index = where
        bit = rng.randrange(_MERKLE_DIGEST_BITS)
        controller.merkle.flip_node_bit(level, index, bit)
        return MetadataFlip(region="merkle", where=where, field="node_digest", bit=bit)
    if region == "anubis":
        # The shadow region is plain NVM like any counter line; a flip
        # lands in the shadowed image's minors, and recovery must
        # surface it as an explicit ECC failure — never silently trust
        # the shadow.
        image, field, bit = _flip_minor(controller._anubis_counters[where], rng)
        controller._anubis_counters[where] = image
        return MetadataFlip(region="anubis", where=where, field=field, bit=bit)
    raise ValueError(f"unknown metadata flip region {region!r}")


def crash_machine(machine, plan: FaultPlan) -> CrashReport:
    """Apply ``plan`` to ``machine`` at the current instant."""
    rng = plan.rng()
    controller = machine.controller
    store = controller.store
    domain = controller.crash_domain

    fates: Dict[int, LineFate] = {}
    drained = dropped = torn = torn_bursts = 0
    burst_left = 0
    entries = domain.inflight()
    # The queue drains oldest-first; the ADR energy budget decides how
    # deep into the tail the drain gets before the rest is at risk.
    drain_upto = int(len(entries) * plan.drain_fraction)
    for position, write in enumerate(entries):
        if position < drain_upto:
            drained += 1
            disposition = DISPOSITION_DRAINED
        elif burst_left > 0:
            # A tear event in progress takes this line down with it.
            burst_left -= 1
            torn += 1
            disposition = DISPOSITION_TORN
            _tear_line(store, write, rng)
        elif rng.random() < plan.torn_probability:
            # New tear event; with torn_burst > 1 it collapses a
            # contiguous run of the in-flight tail (the supply sags for
            # many cycles, not one device word).
            if plan.torn_burst > 1:
                burst_left = rng.randint(1, plan.torn_burst) - 1
            torn_bursts += 1
            torn += 1
            disposition = DISPOSITION_TORN
            _tear_line(store, write, rng)
        else:
            dropped += 1
            disposition = DISPOSITION_DROPPED
            store.write_line(write.addr, write.old_cipher)
            store.write_ecc(write.addr, write.old_ecc)
        fates[write.addr] = LineFate(
            addr=write.addr,
            disposition=disposition,
            old_plain=write.old_plain,
            new_plain=write.new_plain,
        )
    domain.clear()

    flips: List[Tuple[int, int]] = []
    if plan.bit_flips:
        lines = sorted(store.scan())
        if lines:
            for _ in range(plan.bit_flips):
                addr = lines[rng.randrange(len(lines))]
                bit = rng.randrange(LINE_SIZE * 8)
                store.flip_bit(addr, bit)
                flips.append((addr, bit))

    meta_flips: List[MetadataFlip] = []
    if plan.counter_flips:
        targets = _metadata_flip_targets(machine)
        if targets:
            for _ in range(plan.counter_flips):
                region, where = targets[rng.randrange(len(targets))]
                meta_flips.append(_apply_metadata_flip(controller, region, where, rng))

    wpq_lost = 0
    if machine.wpq is not None:
        _, wpq_lost = machine.wpq.crash_drain(machine.clock_ns, plan.drain_fraction)

    _drop_volatile_state(machine)
    return CrashReport(
        plan=plan,
        inflight=len(entries),
        drained=drained,
        dropped=dropped,
        torn=torn,
        bit_flips=tuple(flips),
        wpq_entries_lost=wpq_lost,
        line_fates=fates,
        torn_bursts=torn_bursts,
        metadata_flips=tuple(meta_flips),
    )


# ======================================================================
# Reboot / recovery
# ======================================================================


def _working(image: tuple) -> list:
    """A counter-line image as recovery's working copy: a list whose
    last element, the minors, is a list too."""
    return [*image[:-1], list(image[-1])]


def _pad(engine, domain: int, page: int, line_index: int, major: int):
    """One counter layer's pad for a candidate minor of one line."""
    return lambda minor: engine.pad_for(CounterIV(
        domain=domain, page_id=page, page_offset=line_index, major=major, minor=minor
    ))


def reboot_machine(machine) -> RecoveryReport:
    """Bring the crashed machine back up through the real recovery paths."""
    controller = machine.controller
    fsencr = _is_fsencr(machine)
    device = controller.device
    layout = controller.layout
    recovery_ns = 0.0
    trials_total = 0
    lines_checked = 0
    lines_recovered = 0
    failed: List[int] = []
    ott_recovered = 0

    # -- 0. integrity scan of the stored Merkle nodes -------------------
    # Must run before any recovered state is installed: leaf content
    # still matches what the stored digests were computed over, so a
    # mismatch here is media damage, never a legitimate recovery delta.
    merkle = controller.merkle
    for level, index in merkle.stored_nodes():
        recovery_ns += device.read(layout.merkle_node_addr(level, index))
    nodes_poisoned = len(merkle.flag_poisoned_nodes())
    if nodes_poisoned:
        controller.stats.add("merkle_poisoned_nodes", nodes_poisoned)

    # -- 1. OTT: scan the encrypted spill region (one sequential run) ---
    if fsencr:
        ott_recovered = controller.recover_ott_after_crash()
        slots = layout.ott_slots
        if slots:
            layout.ott_slot_addr(slots - 1)  # the run stays in the region
            recovery_ns += device.read_run(layout.ott_slot_addr(0), slots)

    # -- 2. counter recovery via ECC trial decryption -------------------
    # One working copy per counter line, keyed by its address: the
    # journalled image as a list, its minors mutable.
    lines: Dict[int, list] = {
        addr: _working(image) for addr, image in controller._persisted_lines.items()
    }
    new_shadow: Dict[int, bytes] = {}

    # -- 2a. Anubis shadow restore (the "+anubis" columns) --------------
    # Before any trial decryption: the shadow region names exactly the
    # counter lines whose home copies were stale at the crash, and its
    # entries carry the live values.  One NVM read per tracked line;
    # restored lines enter the trial loop at zero lag (the ECC check
    # still runs, so a flipped shadow entry fails explicitly).
    anubis_restored = 0
    anubis_table = controller.anubis_shadow
    if anubis_table is not None and anubis_table.occupancy:
        tracked = sorted(anubis_table.tracked_lines())
        for addr in tracked:
            recovery_ns += device.read(anubis_table.slot_addr(addr))
            image = controller._anubis_counters.get(addr)
            if image is not None:
                lines[addr] = _working(image)
        anubis_restored = len(tracked)

    # -- 2b. every line with ECC: one Osiris search over its layers -----
    ecc_map = controller.store.scan_ecc()
    by_page: Dict[int, List[int]] = {}
    for addr in sorted(ecc_map):
        by_page.setdefault(page_number(addr), []).append(addr)
    cconf = controller.config
    trial_cost_ns = cconf.aes_latency_ns + cconf.xor_latency_ns
    for page, addrs in sorted(by_page.items()):
        mem_major, mem_minors = lines.setdefault(layout.mecb_addr(page), [0, [0] * LINES_PER_PAGE])
        fecb_entry = lines.get(layout.fecb_addr(page))
        stamped = fecb_entry is not None and (fecb_entry[0] != 0 or fecb_entry[1] != 0)
        keyed = True
        if stamped:
            try:
                key, _ = controller._lookup_key(fecb_entry[0], fecb_entry[1])
            except KeyUnavailableError:
                keyed = False  # key never logged: every page line is unrecoverable
            else:
                controller._file_engine.rekey(key)
        for addr in addrs:
            lines_checked += 1
            recovery_ns += device.read(addr)
            if not keyed:
                failed.append(addr)
                continue
            line_index = page_offset_lines(addr)
            layers = [(mem_minors[line_index], _pad(
                controller._memory_engine, MEMORY_DOMAIN, page, line_index, mem_major % (1 << 64)
            ))]
            if stamped:
                layers.append((fecb_entry[3][line_index], _pad(
                    controller._file_engine, FILE_DOMAIN, page, line_index, fecb_entry[2]
                )))
            found = recover_line(
                controller.store.read_line(addr), ecc_map[addr], layers, cconf.stop_loss
            )
            trials_total += found.trials
            recovery_ns += found.trials * trial_cost_ns
            if found.minors is None:
                failed.append(addr)
                continue
            mem_minors[line_index] = found.minors[0]
            if stamped:
                fecb_entry[3][line_index] = found.minors[1]
            new_shadow[addr] = found.plaintext
            lines_recovered += 1

    # -- 3. install the recovered state ---------------------------------
    images = {addr: tuple(line[:-1]) + (tuple(line[-1]),) for addr, line in lines.items()}
    by_kind: Dict[str, Dict[int, tuple]] = {"mecb": {}, "fecb": {}}
    for addr, image in images.items():
        kind, page = _counter_line(layout, addr)
        by_kind[kind][page] = image
    controller.mecb.restore(by_kind["mecb"])
    if fsencr:
        controller.fecb.restore(by_kind["fecb"])
    controller._persisted_lines = images
    pages_restored = len(images)
    controller._plaintext_shadow.update(new_shadow)
    controller.osiris.reset()
    if anubis_table is not None:
        # Every tracked value is now installed and re-journalled; the
        # shadow starts the next epoch empty.
        anubis_table.reset()
        controller._anubis_counters.clear()

    # -- 4. rebuild the integrity tree over the recovered metadata ------
    for addr in controller._integrity_leaf_addrs():
        recovery_ns += device.read(addr)
    leaves = controller.rebuild_integrity_tree()

    machine.clock_ns += recovery_ns
    return RecoveryReport(
        trials=trials_total,
        lines_checked=lines_checked,
        lines_recovered=lines_recovered,
        failed_lines=tuple(sorted(failed)),
        pages_restored=pages_restored,
        ott_keys_recovered=ott_recovered,
        merkle_leaves_rebuilt=leaves,
        recovery_ns=recovery_ns,
        merkle_nodes_poisoned=nodes_poisoned,
        ott_slots_rejected=controller.ott_rejected_slots if fsencr else 0,
        anubis_lines_restored=anubis_restored,
    )
