"""The paper's "Baseline Security" memory controller.

Counter-mode memory encryption with split counters (MECB), an 8-ary
Bonsai Merkle tree over the metadata, a shared on-chip metadata cache,
and Osiris stop-loss counter persistence.  Every scheme in the
evaluation — including FsEncr itself — builds on this controller;
FsEncr overrides the two hook methods that source encryption pads.

Timing model for one request (1 GHz clock, latencies in ns):

* **Read**: the data fetch and the counter fetch proceed in parallel.
  The line is released at
  ``max(data_latency, counter_path + AES) + XOR`` where ``counter_path``
  is the metadata-cache hit latency on a hit, or the NVM counter fetch
  plus the Merkle verification walk on a miss.  With a counter hit the
  40 ns pad generation hides entirely under the 60+ ns PCM read — the
  "only XOR latency is added" property of Figure 2.
* **Write**: the counter must be fetched (if absent) and bumped before
  the pad can encrypt the line; persist-path writes then pay the PCM
  array write.  Merkle path nodes are updated write-back in the metadata
  cache; Osiris forces the counter line to NVM every ``stop_loss``-th
  update.  A minor-counter overflow re-encrypts the whole 4 KB page
  (64 line reads + 64 line writes of traffic).

Functional model (``functional=True``): lines really are encrypted with
AES-CTR pads derived from the live counters, ciphertext really lands in
the :class:`~repro.mem.nvm.NVMStore`, and the Merkle tree really hashes
— so confidentiality/integrity tests observe the honest mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..crypto.iv import MEMORY_DOMAIN, CounterIV
from ..crypto.keys import KeyHierarchy
from ..crypto.otp import OTPEngine, xor_bytes
from ..mem import dfbit
from ..mem.address import LINE_SIZE, LINES_PER_PAGE, page_number, page_offset_lines
from ..mem.controller import MemoryControllerBase, MemoryRequest
from ..mem.nvm import NVMDevice, NVMStore
from ..mem.stats import StatCounters
from .counters import CounterStore
from .ecc import encode_line
from .layout import MetadataLayout
from .merkle import BonsaiMerkleTree
from .metadata_cache import MetadataCache, MetadataCacheConfig, MetadataKind
from .osiris import OsirisTracker

__all__ = ["SecureControllerConfig", "BaselineSecureController"]

# Per-kind stat names of a counter line's write path: (minor overflow,
# overflow persist, Osiris stop-loss persist).
_LINE_STATS = {
    MetadataKind.MECB: ("minor_overflows", "overflow_counter_persists", "osiris_counter_persists"),
    MetadataKind.FECB: ("fecb_minor_overflows", "overflow_fecb_persists", "osiris_fecb_persists"),
}


@dataclass(frozen=True)
class SecureControllerConfig:
    """Knobs shared by the baseline and FsEncr controllers."""

    aes_latency_ns: float = 40.0  # Table III
    xor_latency_ns: float = 1.0
    stop_loss: int = 4
    functional: bool = False
    metadata_cache: MetadataCacheConfig = MetadataCacheConfig()
    # Charge full device traffic for page re-encryption on minor-counter
    # overflow; can be disabled to ablate its contribution.
    model_counter_overflow: bool = True


class BaselineSecureController(MemoryControllerBase):
    """Counter-mode encryption + BMT integrity, no per-file layer."""

    def __init__(
        self,
        layout: Optional[MetadataLayout] = None,
        keys: Optional[KeyHierarchy] = None,
        config: Optional[SecureControllerConfig] = None,
        device: Optional[NVMDevice] = None,
        store: Optional[NVMStore] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        super().__init__(device=device, store=store, stats=stats or StatCounters("secure_controller"))
        self.layout = layout or MetadataLayout()
        self.keys = keys or KeyHierarchy.from_seed(b"default-machine")
        self.config = config or SecureControllerConfig()
        # These bundles are registered post-construction by Machine
        # (registry.register(controller.<x>.stats)).
        self.metadata_cache = MetadataCache(self.config.metadata_cache)
        self.mecb = CounterStore()
        self.merkle = BonsaiMerkleTree(self.layout, leaf_reader=self._merkle_leaf_bytes)
        self.osiris = OsirisTracker(stop_loss=self.config.stop_loss)
        self._memory_engine = (
            OTPEngine(self.keys.memory_key) if self.config.functional else None
        )
        # Plaintext shadow: what the CPU believes each line holds.  Used by
        # functional page re-encryption (old-pad ciphertext would otherwise
        # be orphaned by a major-counter bump).
        self._plaintext_shadow: dict = {}
        # Fault injection: when a CrashDomain is attached (Machine does
        # this in functional mode), every functional line write is staged
        # through it so a crash can tear or drop the in-flight tail.
        self.crash_domain = None
        # Anubis wiring (attached by Machine for "+anubis" scheme
        # columns): the shadow table mirrors counter lines whose latest
        # update has not reached NVM, and _anubis_counters holds the
        # image a recovery reading the shadow region would find (on a
        # machine that can crash).
        self.anubis_shadow = None
        self._anubis_counters: Dict[int, tuple] = {}
        # Persisted-line journal, {counter-line address: image}: what a
        # post-crash reader would find in NVM.  Updated on every
        # counter-line NVM write (stop-loss, eviction, overflow, FECB
        # stamp) of a machine that can crash; recovery starts its
        # trial-decryption window from exactly these values.
        self._persisted_lines: Dict[int, tuple] = {}
        # Counters read by benchmarks/analyses are declared up front:
        # strict stat accessors (RunResult.stat / StatCounters.stat)
        # raise on unknown keys, so a declared-but-zero counter is a
        # legitimate 0 while a renamed key fails loudly.
        for key in (
            "osiris_counter_persists",
            "overflow_counter_persists",
            "minor_overflows",
            "page_reencryptions",
            "metadata_writebacks",
            "merkle_poisoned_nodes",
        ):
            self.stats.add(key, 0)

    # ------------------------------------------------------------------
    # Merkle leaf serialisation (functional integrity)
    # ------------------------------------------------------------------

    def _counter_block(self, addr: int):
        """The counter line stored at metadata address ``addr`` (None:
        not populated, or not a counter line).  FsEncr adds FECBs."""
        if self.layout.mecb_base <= addr < self.layout.fecb_base:
            return self.mecb.peek((addr - self.layout.mecb_base) // LINE_SIZE)
        return None

    def _merkle_leaf_bytes(self, leaf_index: int) -> bytes:
        """Canonical bytes of protected metadata line ``leaf_index``."""
        block = self._counter_block(self.layout.mecb_base + leaf_index * LINE_SIZE)
        return block.serialize() if block is not None else bytes(LINE_SIZE)

    # ------------------------------------------------------------------
    # Metadata path helpers (shared with FsEncr)
    # ------------------------------------------------------------------

    def _handle_metadata_evictions(self, evictions: List) -> None:
        """Dirty metadata pushed out of the on-chip cache -> NVM writes."""
        for eviction in evictions:
            self.device.write(eviction.addr)
            self.stats.add("metadata_writebacks")
            self.osiris.note_persisted(eviction.addr)
            self._journal_counter_persist(eviction.addr)
            self._anubis_forget(eviction.addr)

    def _crash_image(self, addr: int):
        """The image of the counter line at ``addr`` for the journal or
        the Anubis shadow.  Only ``crash()`` and ``reboot()`` read
        either, so a machine without a crash domain records none (None);
        a Merkle-node address holds no counter line (None: node digests
        are recomputed at reboot, not recovered)."""
        if self.crash_domain is None:
            return None
        block = self._counter_block(addr)
        return block.image() if block is not None else None

    def _journal_counter_persist(self, addr: int) -> None:
        """Record what a counter-line NVM write makes durable: the
        journal stands in for reading the line back after a crash."""
        image = self._crash_image(addr)
        if image is not None:
            self._persisted_lines[addr] = image

    def _fetch_metadata_line(self, addr: int, kind: str, is_write: bool) -> float:
        """Bring one metadata line on-chip; returns latency of the fetch.

        On a metadata-cache miss the line is read from NVM and its Merkle
        path verified (each path node itself goes through the metadata
        cache; node misses are more NVM reads).  On a hit the latency is
        just the cache's SRAM access.
        """
        hit, evictions = self.metadata_cache.access(addr, kind, is_write)
        if evictions:
            self._handle_metadata_evictions(evictions)
        if hit:
            return self.metadata_cache.hit_latency
        latency = self.device.read(addr)
        self.stats.add(f"{kind}_fetches")
        latency += self._verify_merkle_path(addr)
        return latency

    def _verify_merkle_path(self, metadata_addr: int) -> float:
        """Walk the BMT path for a just-fetched metadata line.

        Bonsai semantics: the walk stops at the first path node already
        present in the metadata cache (cached nodes are roots of trust);
        only the nodes below it need fetching.
        """
        latency = 0.0
        for node_addr in self.merkle.path_to_root(metadata_addr):
            hit, evictions = self.metadata_cache.access(
                node_addr, MetadataKind.MERKLE, is_write=False
            )
            if evictions:
                self._handle_metadata_evictions(evictions)
            if hit:
                latency += self.metadata_cache.hit_latency
                break
            latency += self.device.read(node_addr)
            self.stats.add("merkle_fetches")
        if self.config.functional:
            self.merkle.verify_leaf(metadata_addr)
        return latency

    def _update_merkle_path(self, metadata_addr: int) -> None:
        """Mark the BMT path dirty after a counter update (write-back).

        Same early-stop rule as verification: once a path node is cached
        (and now dirtied), ancestors are updated lazily on its eviction.
        """
        for node_addr in self.merkle.path_to_root(metadata_addr):
            hit, evictions = self.metadata_cache.access(
                node_addr, MetadataKind.MERKLE, is_write=True
            )
            if evictions:
                self._handle_metadata_evictions(evictions)
            if hit:
                break
            self.device.read(node_addr)
            self.stats.add("merkle_fetches")
        if self.config.functional:
            self.merkle.update_leaf(metadata_addr)

    # ------------------------------------------------------------------
    # Counter management
    # ------------------------------------------------------------------

    def _bump_line(self, counters, page: int, line_index: int, addr: int) -> float:
        """Write-path bump of one counter line — a page's MECB or its
        FECB's counters, stored at ``addr``: minor increment, overflow
        re-encryption, and Osiris persistence."""
        latency = 0.0
        persisted = False
        if counters.bump(line_index):
            kind = self._kind_for(addr)
            overflows, overflow_persists, _ = _LINE_STATS[kind]
            self.stats.add(overflows)
            latency += self._reencrypt_page(page)
            # Osiris persists the counter line together with the
            # re-encrypted page: a crash between the major bump and the
            # next stop-loss write-through must not strand ciphertext
            # sealed under a counter outside the recovery window.
            self.device.write(addr)
            self.stats.add(overflow_persists)
            self.osiris.note_persisted(addr)
            self.metadata_cache.clean_line(addr, kind)
            self._journal_counter_persist(addr)
            persisted = True
        if self.osiris.note_update(addr):
            # Stop-loss write-through of the counter line.  Posted: it
            # consumes device bandwidth (and shows up in the write
            # counts) but does not stall the write that triggered it.
            kind = self._kind_for(addr)
            self.device.write(addr)
            self.stats.add(_LINE_STATS[kind][2])
            self.metadata_cache.clean_line(addr, kind)
            self._journal_counter_persist(addr)
            persisted = True
        self._anubis_note_update(addr, persisted)
        return latency

    # ------------------------------------------------------------------
    # Anubis shadow tracking (wired by Machine for "+anubis" columns)
    # ------------------------------------------------------------------

    def _anubis_note_update(self, counter_addr: int, persisted: bool) -> None:
        """Mirror one counter update into the shadow table.

        A persisted update (overflow or stop-loss write-through) makes
        the NVM home copy current, so the shadow entry retires; an
        unpersisted one (re-)records the line with its live values —
        Anubis updates the shadow entry in place on every counter write,
        which is exactly the runtime-writes-for-recovery-time trade.
        """
        if self.anubis_shadow is None:
            return
        if persisted:
            self._anubis_forget(counter_addr)
            return
        self.anubis_shadow.note_insert(counter_addr)
        image = self._crash_image(counter_addr)
        if image is not None:
            self._anubis_counters[counter_addr] = image

    def _anubis_forget(self, counter_addr: int) -> None:
        """The NVM home copy is current again: drop the shadow entry."""
        if self.anubis_shadow is None:
            return
        self.anubis_shadow.note_evict(counter_addr)
        self._anubis_counters.pop(counter_addr, None)

    def _kind_for(self, counter_addr: int) -> str:
        return (
            MetadataKind.MECB
            if counter_addr < self.layout.fecb_base
            else MetadataKind.FECB
        )

    def _reencrypt_page(self, page: int) -> float:
        """Minor overflow: the whole 4 KB page is re-encrypted.

        64 line reads + 64 line writes of device traffic.  Functional
        mode re-encrypts for real so ciphertext stays decryptable.
        """
        if not self.config.model_counter_overflow:
            return 0.0
        if self.crash_domain is not None:
            # Re-encryption is a long synchronous controller operation;
            # the model treats it as flushing the ADR domain first so the
            # staged old/new line pairs are not invalidated mid-rewrite.
            self.crash_domain.drain_all()
        latency = 0.0
        base = page * 4096
        for line_index in range(LINES_PER_PAGE):
            addr = base + line_index * LINE_SIZE
            if self.config.functional:
                # The bump already reset minors and advanced the major;
                # ciphertext in the store was sealed under the old values.
                # Re-seal from the retained plaintext.
                plaintext = self._plaintext_shadow.get(addr)
                if plaintext is not None:
                    self.store.write_line(addr, self._seal(addr, plaintext))
            latency += self.device.read(addr)
            latency += self.device.write(addr)
        self.stats.add("page_reencryptions")
        return latency

    # ------------------------------------------------------------------
    # Pad generation hooks (FsEncr overrides these two)
    # ------------------------------------------------------------------

    def _pad_fetch_latency(self, request: MemoryRequest, raw_addr: int, is_write: bool) -> float:
        """Latency until the counter material for the pad is available."""
        page = page_number(raw_addr)
        counter_addr = self.layout.mecb_addr(page)
        return self._fetch_metadata_line(counter_addr, MetadataKind.MECB, is_write)

    def _extra_write_path(self, request: MemoryRequest, raw_addr: int) -> float:
        """Hook: scheme-specific write-path work (FsEncr bumps the FECB)."""
        return 0.0

    def _functional_pad(self, raw_addr: int) -> bytes:
        """The actual pad bytes for a line (functional mode only)."""
        page = page_number(raw_addr)
        line_index = page_offset_lines(raw_addr)
        major, minor = self.mecb.block(page).value_for(line_index)
        iv = CounterIV(
            domain=MEMORY_DOMAIN,
            page_id=page,
            page_offset=line_index,
            major=major % (1 << 64),
            minor=minor,
        )
        if self._memory_engine is None:
            raise RuntimeError("memory pads exist only in functional mode")
        return self._memory_engine.pad_for(iv)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def access(self, request: MemoryRequest) -> float:
        raw_addr = dfbit.strip(request.addr)
        if request.is_write:
            return self._write(request, raw_addr)
        return self._read(request, raw_addr)

    def _read(self, request: MemoryRequest, raw_addr: int) -> float:
        self.stats.counters["read_requests"] += 1
        data_latency = self.device.read(raw_addr)
        pad_latency = self._pad_fetch_latency(request, raw_addr, is_write=False)
        # Pad generation overlaps the data fetch (Figure 2); only the XOR
        # is unconditionally serial.
        total = max(data_latency, pad_latency + self.config.aes_latency_ns)
        return total + self.config.xor_latency_ns

    def _write(self, request: MemoryRequest, raw_addr: int) -> float:
        self.stats.counters["write_requests"] += 1
        page = page_number(raw_addr)
        line_index = page_offset_lines(raw_addr)
        counter_addr = self.layout.mecb_addr(page)
        latency = self._pad_fetch_latency(request, raw_addr, is_write=True)
        latency += self._bump_line(self.mecb.block(page), page, line_index, counter_addr)
        latency += self._extra_write_path(request, raw_addr)
        if self.config.functional:
            # Seal with the *post-bump* counter, the value a later read
            # will reconstruct — this ordering is what keeps counter-mode
            # functionally consistent.
            plaintext = (
                request.data
                if request.data is not None
                else self._plaintext_shadow.get(raw_addr, bytes(LINE_SIZE))
            )
            sealed = self._seal(request.addr, plaintext)
            ecc = encode_line(bytes(plaintext))
            if self.crash_domain is not None:
                # Stage before mutating: a crash may need the pre-write
                # line back (dropped persist) or a mix (torn write).
                self.crash_domain.record(
                    raw_addr,
                    old_cipher=self.store.read_line(raw_addr),
                    old_ecc=self.store.read_ecc(raw_addr),
                    old_plain=self._plaintext_shadow.get(raw_addr),
                    new_cipher=sealed,
                    new_ecc=ecc,
                    new_plain=bytes(plaintext),
                )
            self._plaintext_shadow[raw_addr] = bytes(plaintext)
            self.store.write_line(raw_addr, sealed)
            self.store.write_ecc(raw_addr, ecc)
        self._update_merkle_path(counter_addr)
        latency += self.config.aes_latency_ns + self.config.xor_latency_ns
        latency += self.device.write(raw_addr, persist=request.persist)
        return latency

    # ------------------------------------------------------------------
    # Functional data movement
    # ------------------------------------------------------------------

    def _seal(self, addr: int, plaintext_line: bytes) -> bytes:
        """Encrypt one line with the current pad for its address.

        ``addr`` keeps its DF-bit here: the FsEncr subclass derives the
        pad composition from it.  The baseline pad ignores the bit.
        """
        if len(plaintext_line) != LINE_SIZE:
            raise ValueError(f"line must be {LINE_SIZE} bytes")
        return xor_bytes(plaintext_line, self._functional_pad(dfbit.strip(addr)))

    def write_data(self, addr: int, plaintext_line: bytes) -> None:
        """Functional write: full write path (counters bump, pads rotate)."""
        self.access(MemoryRequest(addr=addr, is_write=True, data=plaintext_line))

    def read_data(self, addr: int) -> bytes:
        """Functionally load-and-decrypt one line (NVM -> CPU)."""
        if not self.config.functional:
            raise RuntimeError("read_data requires functional=True")
        raw_addr = dfbit.strip(addr)
        page = page_number(raw_addr)
        self.merkle.verify_leaf(self.layout.mecb_addr(page))
        ciphertext = self.store.read_line(raw_addr)
        return xor_bytes(ciphertext, self._functional_pad(raw_addr))

    # ------------------------------------------------------------------
    # Crash / shutdown support
    # ------------------------------------------------------------------

    def _integrity_leaf_addrs(self):
        """Metadata addresses whose leaves carry state worth rehashing
        after a crash (FsEncr extends with FECBs and OTT slots)."""
        for page in sorted(self.mecb.blocks):
            yield self.layout.mecb_addr(page)

    def rebuild_integrity_tree(self) -> int:
        """Reboot: recompute the BMT from recovered metadata.

        The on-chip tree state is volatile; after recovery installs the
        surviving counters, a fresh tree over every populated leaf is
        rebuilt bottom-up in one pass (each node hashed once) so
        subsequent reads verify against the *recovered* state.  Returns
        the number of leaves rebuilt.
        """
        leaf_index = self.layout.merkle_leaf_index
        touched = [leaf_index(addr) for addr in self._integrity_leaf_addrs()]
        self.merkle = BonsaiMerkleTree(
            self.layout,
            leaf_reader=self._merkle_leaf_bytes,
            stats=self.merkle.stats,
            touched=touched,
        )
        self.merkle.rebuild_root()
        self.stats.add("merkle_rebuild_leaves", len(touched))
        return len(touched)
