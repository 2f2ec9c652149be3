"""Machine-level crash, reboot, and recovery.

``crash_machine`` is the power-fail instant: every volatile structure
(CPU caches, TLBs, the on-chip metadata cache, the OTT SRAM, the DRAM
page cache, the plaintext shadow) loses its contents, and the in-flight
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
   *persisted* counter values upward (Osiris §II-D) — one-dimensional
   over the MECB minor for plain-memory pages, two-dimensional over
   (MECB minor, FECB minor) for file-stamped pages, since both layers'
   counters ride the same stop-loss window;
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
from ..crypto.keys import SecretKey
from ..mem.address import LINE_SIZE, LINES_PER_PAGE, page_number, page_offset_lines
from ..secmem.counters import MINOR_BITS
from ..secmem.ecc import check_line
from ..secmem.osiris import CounterRecoveryError
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

_MINOR_LIMIT = 1 << MINOR_BITS
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

    ``region`` names where it hit — ``mecb``/``fecb`` (the persisted
    counter journal for one page), ``ott`` (a sealed spill-region
    record), or ``merkle`` (a stored tree node).  ``where`` is the
    page, slot, or (level, index); ``field`` says which value within
    the target the ``bit`` landed in.
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
    """What reboot-time recovery did and what it cost."""

    scheme: str
    functional: bool
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


def _drop_volatile_state(machine) -> None:
    """Power loss: everything DRAM/SRAM-resident vanishes."""
    machine.hierarchy.drain_dirty()  # discard — no write-back after power loss
    machine.mmu.tlb.flush()
    controller = machine.controller
    cache = getattr(controller, "metadata_cache", None)
    if cache is not None:
        cache.flush_all()  # discard the victims: dirty metadata is lost
    shadow = getattr(controller, "_plaintext_shadow", None)
    if shadow is not None:
        shadow.clear()
    ott = getattr(controller, "ott", None)
    if ott is not None:
        ott.reset()
    if machine.overlay is not None:
        machine.overlay.page_cache.drop_all()


def _metadata_flip_targets(controller) -> List[Tuple[str, object]]:
    """Every metadata location a ``counter_flips`` fault can land in.

    Deterministically ordered: persisted MECB pages, persisted FECB
    pages (file schemes only), occupied OTT spill slots, stored Merkle
    nodes.  Schemes without a layer simply expose no targets for it.
    """
    targets: List[Tuple[str, object]] = []
    for page in sorted(getattr(controller, "_persisted_mecb", {})):
        targets.append(("mecb", page))
    for page in sorted(getattr(controller, "_persisted_fecb", {})):
        targets.append(("fecb", page))
    region = getattr(controller, "ott_region", None)
    if region is not None:
        for slot in region.occupied_slots():
            targets.append(("ott", slot))
    merkle = getattr(controller, "merkle", None)
    if merkle is not None:
        for node in merkle.stored_nodes():
            targets.append(("merkle", node))
    for addr in sorted(getattr(controller, "_anubis_counters", {})):
        targets.append(("anubis", addr))
    return targets


# Sealed OTT records are 48 bytes (EncryptedOTTRegion.RECORD_BYTES);
# stored Merkle nodes are 32-byte SHA-256 digests.  Kept as local
# constants so repro.faults stays import-light.
_OTT_RECORD_BITS = 48 * 8
_MERKLE_DIGEST_BITS = 32 * 8


def _apply_metadata_flip(controller, region: str, where, rng) -> MetadataFlip:
    """Land one bit flip in the chosen metadata target."""
    if region == "mecb":
        major, minors = controller._persisted_mecb[where]
        minors = list(minors)
        if rng.random() < 0.125:
            bit = rng.randrange(8)
            major ^= 1 << bit
            field = "major"
        else:
            line = rng.randrange(len(minors))
            bit = rng.randrange(MINOR_BITS)
            minors[line] ^= 1 << bit
            field = f"minor[{line}]"
        controller._persisted_mecb[where] = (major, tuple(minors))
        return MetadataFlip(region="mecb", where=where, field=field, bit=bit)
    if region == "fecb":
        gid, fid, major, minors = controller._persisted_fecb[where]
        minors = list(minors)
        roll = rng.random()
        if roll < 0.125:
            bit = rng.randrange(8)
            gid ^= 1 << bit
            field = "group_id"
        elif roll < 0.25:
            bit = rng.randrange(8)
            fid ^= 1 << bit
            field = "file_id"
        else:
            line = rng.randrange(len(minors))
            bit = rng.randrange(MINOR_BITS)
            minors[line] ^= 1 << bit
            field = f"minor[{line}]"
        controller._persisted_fecb[where] = (gid, fid, major, tuple(minors))
        return MetadataFlip(region="fecb", where=where, field=field, bit=bit)
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
        # lands in the journalled snapshot's minor array (its last
        # element), and recovery must surface it as an explicit ECC
        # failure — never silently trust the shadow.
        snap = list(controller._anubis_counters[where])
        minors = list(snap[-1])
        line = rng.randrange(len(minors))
        bit = rng.randrange(MINOR_BITS)
        minors[line] ^= 1 << bit
        snap[-1] = tuple(minors)
        controller._anubis_counters[where] = tuple(snap)
        return MetadataFlip(
            region="anubis", where=where, field=f"minor[{line}]", bit=bit
        )
    raise ValueError(f"unknown metadata flip region {region!r}")


def crash_machine(machine, plan: FaultPlan) -> CrashReport:
    """Apply ``plan`` to ``machine`` at the current instant."""
    rng = plan.rng()
    controller = machine.controller
    store = getattr(controller, "store", None)
    domain = getattr(controller, "crash_domain", None)

    fates: Dict[int, LineFate] = {}
    drained = dropped = torn = torn_bursts = 0
    burst_left = 0
    entries = domain.inflight() if domain is not None else []
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
    if domain is not None:
        domain.clear()

    flips: List[Tuple[int, int]] = []
    if plan.bit_flips and store is not None:
        lines = sorted(store.scan())
        if lines:
            for _ in range(plan.bit_flips):
                addr = lines[rng.randrange(len(lines))]
                bit = rng.randrange(LINE_SIZE * 8)
                store.flip_bit(addr, bit)
                flips.append((addr, bit))

    meta_flips: List[MetadataFlip] = []
    if plan.counter_flips:
        targets = _metadata_flip_targets(controller)
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


def _line_pad(engine, domain: int, page: int, line_index: int, major: int, minor: int) -> int:
    """One layer's pad for one line, as a little-endian integer."""
    iv = CounterIV(
        domain=domain, page_id=page, page_offset=line_index, major=major, minor=minor
    )
    return int.from_bytes(engine.pad_for(iv), "little")


def _memory_trial(controller, cipher: bytes, page: int, line_index: int, major: int, minor: int) -> bytes:
    pad = _line_pad(
        controller._memory_engine, MEMORY_DOMAIN, page, line_index, major % (1 << 64), minor
    )
    return (int.from_bytes(cipher, "little") ^ pad).to_bytes(LINE_SIZE, "little")


def _recover_stamped_line(
    controller,
    key: SecretKey,
    cipher: bytes,
    ecc: bytes,
    page: int,
    line_index: int,
    mem_major: int,
    mem_minor: int,
    file_major: int,
    file_minor: int,
    stop_loss: int,
) -> Tuple[Optional[Tuple[int, int, bytes]], int]:
    """2-D Osiris search over (MECB minor, FECB minor) lags.

    Candidates are ordered by total lag — both counters bump together on
    the write path, so the true pair is minimally ahead of the persisted
    pair — and each layer's lag is independently bounded by its own
    stop-loss window.

    Each trial checks ``cipher ^ OTP_mem ^ OTP_file`` against the ECC.
    A layer's pad depends only on its own candidate, so the window's at
    most ``stop_loss + 1`` pads per layer are each computed once and
    reused by every pair that shares them.
    """
    memory_engine = controller._memory_engine
    file_engine = controller._file_engine
    file_engine.rekey(key)
    mem_major %= 1 << 64
    cipher_int = int.from_bytes(cipher, "little")
    mem_pads: Dict[int, int] = {}
    file_pads: Dict[int, int] = {}
    trials = 0
    for total in range(2 * stop_loss + 1):
        for mem_off in range(max(0, total - stop_loss), min(stop_loss, total) + 1):
            file_off = total - mem_off
            cand_mem = mem_minor + mem_off
            cand_file = file_minor + file_off
            if cand_mem >= _MINOR_LIMIT or cand_file >= _MINOR_LIMIT:
                continue
            trials += 1
            mem_pad = mem_pads.get(cand_mem)
            if mem_pad is None:
                mem_pad = mem_pads[cand_mem] = _line_pad(
                    memory_engine, MEMORY_DOMAIN, page, line_index, mem_major, cand_mem
                )
            file_pad = file_pads.get(cand_file)
            if file_pad is None:
                file_pad = file_pads[cand_file] = _line_pad(
                    file_engine, FILE_DOMAIN, page, line_index, file_major, cand_file
                )
            plaintext = (cipher_int ^ mem_pad ^ file_pad).to_bytes(LINE_SIZE, "little")
            if check_line(plaintext, ecc):
                return (cand_mem, cand_file, plaintext), trials
    return None, trials


def reboot_machine(machine) -> RecoveryReport:
    """Bring the crashed machine back up through the real recovery paths."""
    controller = machine.controller
    scheme = machine.config.scheme.value
    functional = machine.config.functional
    recovery_ns = 0.0
    trials_total = 0
    lines_checked = 0
    lines_recovered = 0
    failed: List[int] = []
    ott_recovered = 0
    leaves = 0
    pages_restored = 0

    if not hasattr(controller, "mecb"):
        # Conventional-path machine: nothing encrypted to recover; the
        # caches simply come up cold.
        return RecoveryReport(
            scheme=scheme, functional=functional, trials=0, lines_checked=0,
            lines_recovered=0, failed_lines=(), pages_restored=0,
            ott_keys_recovered=0, merkle_leaves_rebuilt=0, recovery_ns=0.0,
        )

    cconf = controller.config
    journal_mecb = dict(getattr(controller, "_persisted_mecb", {}))
    journal_fecb = dict(getattr(controller, "_persisted_fecb", {}))

    # -- 0. integrity scan of the stored Merkle nodes -------------------
    # Must run before any recovered state is installed: leaf content
    # still matches what the stored digests were computed over, so a
    # mismatch here is media damage, never a legitimate recovery delta.
    nodes_poisoned = 0
    merkle = getattr(controller, "merkle", None)
    if merkle is not None:
        for level, index in merkle.stored_nodes():
            recovery_ns += controller.device.read(
                controller.layout.merkle_node_addr(level, index)
            )
        poisoned = merkle.flag_poisoned_nodes()
        nodes_poisoned = len(poisoned)
        if nodes_poisoned:
            controller.stats.add("merkle_poisoned_nodes", nodes_poisoned)

    # -- 1. OTT: scan the encrypted spill region (one sequential run) ---
    if hasattr(controller, "recover_ott_after_crash"):
        ott_recovered = controller.recover_ott_after_crash()
        slots = controller.layout.ott_slots
        if slots:
            controller.layout.ott_slot_addr(slots - 1)  # the run stays in the region
            recovery_ns += controller.device.read_run(controller.layout.ott_slot_addr(0), slots)

    # -- 2. counter recovery via ECC trial decryption -------------------
    final_mecb: Dict[int, Tuple[int, List[int]]] = {
        page: (major, list(minors)) for page, (major, minors) in journal_mecb.items()
    }
    final_fecb: Dict[int, Tuple[int, int, int, List[int]]] = {
        page: (gid, fid, major, list(minors))
        for page, (gid, fid, major, minors) in journal_fecb.items()
    }
    new_shadow: Dict[int, bytes] = {}

    # -- 2a. Anubis shadow restore (the "+anubis" columns) --------------
    # Before any trial decryption: the shadow region names exactly the
    # counter lines whose home copies were stale at the crash, and its
    # entries carry the live values.  One NVM read per tracked line;
    # restored lines enter the trial loop at zero lag (the ECC check
    # still runs, so a flipped shadow entry fails explicitly).
    anubis_restored = 0
    anubis_table = getattr(controller, "anubis_shadow", None)
    if anubis_table is not None and anubis_table.occupancy:
        anubis_snaps = dict(getattr(controller, "_anubis_counters", {}))
        tracked = sorted(anubis_table.tracked_lines())
        for addr in tracked:
            recovery_ns += controller.device.read(anubis_table.slot_addr(addr))
            snap = anubis_snaps.get(addr)
            if snap is None:
                continue
            if snap[0] == "mecb":
                _, page, major, minors = snap
                final_mecb[page] = (major, list(minors))
            else:
                _, page, gid, fid, major, minors = snap
                final_fecb[page] = (gid, fid, major, list(minors))
        anubis_restored = len(tracked)

    if functional:
        osiris_recovery = machine.config.build_osiris_recovery(
            stats=machine.registry.ensure("osiris_recovery")
        )
        ecc_map = controller.store.scan_ecc()
        by_page: Dict[int, List[int]] = {}
        for addr in sorted(ecc_map):
            by_page.setdefault(page_number(addr), []).append(addr)

        trial_cost_ns = cconf.aes_latency_ns + cconf.xor_latency_ns
        for page, addrs in sorted(by_page.items()):
            mem_major, mem_minors = final_mecb.setdefault(page, (0, [0] * LINES_PER_PAGE))
            fecb_entry = final_fecb.get(page)
            stamped = fecb_entry is not None and (fecb_entry[0] != 0 or fecb_entry[1] != 0)
            key: Optional[SecretKey] = None
            if stamped:
                try:
                    key, _ = controller._lookup_key(fecb_entry[0], fecb_entry[1])
                except KeyUnavailableError:
                    key = None  # key never logged: every page line is unrecoverable
            for addr in addrs:
                lines_checked += 1
                recovery_ns += controller.device.read(addr)
                line_index = page_offset_lines(addr)
                cipher = controller.store.read_line(addr)
                ecc = ecc_map[addr]
                if stamped:
                    if key is None:
                        failed.append(addr)
                        continue
                    found, trials = _recover_stamped_line(
                        controller, key, cipher, ecc, page, line_index,
                        mem_major, mem_minors[line_index],
                        fecb_entry[2], fecb_entry[3][line_index],
                        cconf.stop_loss,
                    )
                    trials_total += trials
                    recovery_ns += trials * trial_cost_ns
                    if found is None:
                        failed.append(addr)
                        continue
                    mem_minors[line_index], fecb_entry[3][line_index] = found[0], found[1]
                    new_shadow[addr] = found[2]
                    lines_recovered += 1
                else:
                    plaintexts: Dict[int, bytes] = {}

                    def decrypt(candidate: int) -> bytes:
                        plaintext = plaintexts[candidate] = _memory_trial(
                            controller, cipher, page, line_index, mem_major, candidate
                        )
                        return plaintext

                    try:
                        result = osiris_recovery.recover_counter(
                            mem_minors[line_index],
                            decrypt,
                            lambda pt: check_line(pt, ecc),
                            ceiling=_MINOR_LIMIT - 1,
                        )
                    except CounterRecoveryError:
                        # Only in-range candidates were tried; a flipped
                        # persisted minor near the top of the field leaves
                        # a clipped (possibly empty) window.
                        window = min(
                            cconf.stop_loss + 1,
                            max(0, _MINOR_LIMIT - mem_minors[line_index]),
                        )
                        trials_total += window
                        recovery_ns += window * trial_cost_ns
                        failed.append(addr)
                        continue
                    trials_total += result.trials
                    recovery_ns += result.trials * trial_cost_ns
                    mem_minors[line_index] = result.recovered_value
                    new_shadow[addr] = plaintexts[result.recovered_value]
                    lines_recovered += 1

    # -- 3. install the recovered state ---------------------------------
    controller.mecb.restore(
        {page: (major, tuple(minors)) for page, (major, minors) in final_mecb.items()}
    )
    controller._persisted_mecb = {
        page: (major, tuple(minors)) for page, (major, minors) in final_mecb.items()
    }
    pages_restored = len(final_mecb)
    if hasattr(controller, "fecb"):
        controller.fecb.restore(
            {
                page: (gid, fid, major, tuple(minors))
                for page, (gid, fid, major, minors) in final_fecb.items()
            }
        )
        controller._persisted_fecb = {
            page: (gid, fid, major, tuple(minors))
            for page, (gid, fid, major, minors) in final_fecb.items()
        }
        pages_restored += len(final_fecb)
    controller._plaintext_shadow.update(new_shadow)
    controller.osiris.reset()
    if anubis_table is not None:
        # Every tracked value is now installed and re-journalled; the
        # shadow starts the next epoch empty.
        anubis_table.reset()
        controller._anubis_counters.clear()

    # -- 4. rebuild the integrity tree over the recovered metadata ------
    for addr in controller._integrity_leaf_addrs():
        recovery_ns += controller.device.read(addr)
    leaves = controller.rebuild_integrity_tree()

    machine.clock_ns += recovery_ns
    return RecoveryReport(
        scheme=scheme,
        functional=functional,
        trials=trials_total,
        lines_checked=lines_checked,
        lines_recovered=lines_recovered,
        failed_lines=tuple(sorted(failed)),
        pages_restored=pages_restored,
        ott_keys_recovered=ott_recovered,
        merkle_leaves_rebuilt=leaves,
        recovery_ns=recovery_ns,
        merkle_nodes_poisoned=nodes_poisoned,
        ott_slots_rejected=getattr(controller, "ott_rejected_slots", 0),
        anubis_lines_restored=anubis_restored,
    )
