"""The FsEncr memory controller — the paper's contribution.

Extends the baseline secure controller (counter-mode memory encryption +
BMT) with the per-file layer:

* **Recognition** — the DF-bit in the physical address routes the
  request through the file path (Figure 5).
* **Key mapping** — the page's FECB names (Group ID, File ID); the OTT
  maps that to the 128-bit file key, spilling to / refilling from the
  encrypted OTT region in memory.
* **Dual OTP** — OTP_file (file key + FECB counters) XOR OTP_mem
  (memory key + MECB counters) is the final pad for DAX lines
  (Figure 7); non-DAX lines use OTP_mem alone, unchanged.
* **Integrity** — FECBs and the OTT region are additional Merkle leaves.
* **Management** — MMIO verbs from the kernel (install/revoke/stamp/
  admin-login), secure deletion, and OTT crash logging (§III-H option 1:
  every OTT update is logged through to the encrypted region
  immediately, so the on-chip table is recoverable).

Timing: for a DAX read the two pads are generated in parallel, so the
added cost over the baseline is the *file-metadata path* — FECB fetch
(concurrent with the MECB fetch) plus the serial OTT lookup — which is
invisible when the metadata cache hits and is exactly the Figure 12-15
sensitivity when it does not.
"""

from __future__ import annotations

from typing import Optional

from ..crypto.iv import FILE_DOMAIN, CounterIV
from ..crypto.keys import KeyHierarchy, SecretKey
from ..crypto.otp import OTPEngine, xor_bytes
from ..mem import dfbit
from ..mem.address import LINE_SIZE, page_number, page_offset_lines
from ..mem.controller import MemoryRequest
from ..mem.nvm import NVMDevice, NVMStore
from ..mem.stats import StatCounters
from ..secmem.layout import MetadataLayout
from ..secmem.metadata_cache import MetadataKind
from ..secmem.secure_controller import BaselineSecureController, SecureControllerConfig
from .fecb import FECBStore
from .ott import EncryptedOTTRegion, KeyUnavailableError, OpenTunnelTable, OTTEntry

__all__ = ["FsEncrController"]


class FsEncrController(BaselineSecureController):
    """Baseline security + hardware-assisted filesystem encryption."""

    def __init__(
        self,
        layout: Optional[MetadataLayout] = None,
        keys: Optional[KeyHierarchy] = None,
        config: Optional[SecureControllerConfig] = None,
        device: Optional[NVMDevice] = None,
        store: Optional[NVMStore] = None,
        stats: Optional[StatCounters] = None,
        ott: Optional[OpenTunnelTable] = None,
    ) -> None:
        super().__init__(
            layout=layout,
            keys=keys,
            config=config,
            device=device,
            store=store,
            stats=stats or StatCounters("fsencr_controller"),
        )
        # `ott or ...` would discard an injected *empty* table (it has
        # __len__); compare against None explicitly.  Machine injects a
        # registered table; the region's bundle is registered
        # post-construction.
        self.ott = ott if ott is not None else OpenTunnelTable()
        self.ott_region = EncryptedOTTRegion(
            slots=self.layout.ott_slots, ott_key=self.keys.ott_key
        )
        self.fecb = FECBStore()
        # One pooled file engine: re-keyed per request in functional mode.
        # Hardware would pipeline one AES datapath the same way.
        self._file_engine = OTPEngine(SecretKey(bytes(16))) if self.config.functional else None
        self._locked = False  # admin_login failure locks file decryption
        # Slots whose sealed record failed its tag during the last OTT
        # recovery scan — media faults detected, keys *not* trusted.
        self.ott_rejected_slots = 0
        for key in (
            "osiris_fecb_persists",
            "overflow_fecb_persists",
            "ott_refills",
            "ott_spills",
            "fecb_stamps",
            "keys_installed",
            "ott_recovery_rejects",
        ):
            self.stats.add(key, 0)

    # ==================================================================
    # MMIOTarget — the kernel-facing management verbs (§III-F-1)
    # ==================================================================

    def install_file_key(self, group_id: int, file_id: int, key: SecretKey) -> None:
        """File created/opened: key into the OTT, logged to the region.

        Write-through logging is the paper's first crash-consistency
        option for the OTT; it also means an OTT *eviction* needs no
        extra memory write (the region copy is already current).
        """
        entry = OTTEntry(group_id=group_id, file_id=file_id, key=key)
        victim = self.ott.insert(entry)
        slot = self.ott_region.store(entry)
        self._ott_slot_written(slot)
        if victim is not None:
            # The victim was already logged at install time; nothing to
            # write back.  Count it for the ablation study.
            self.stats.add("ott_spills")
        self.stats.add("keys_installed")

    def revoke_file_key(self, group_id: int, file_id: int) -> None:
        """File deleted: drop both copies and shred the file's counters.

        Invalidating every stamped FECB is the Silent-Shredder-style
        secure delete (§VI): even a process that kept the old key cannot
        decrypt recycled pages, because the pads' counters are gone.
        """
        self.ott.remove(group_id, file_id)
        slot = self.ott_region.remove(group_id, file_id)
        if slot is not None:
            self._ott_slot_written(slot)
        for page in self.fecb.stamped_pages(group_id, file_id):
            self.fecb.block(page).invalidate()
            if self.config.functional:
                self.merkle.update_leaf(self.layout.fecb_addr(page))
            # Secure delete is only secure if it survives a crash: the
            # shredded FECB is durable immediately.
            self._journal_counter_persist(self.layout.fecb_addr(page))
        self.stats.add("keys_revoked")

    def update_fecb(self, page: int, group_id: int, file_id: int) -> None:
        """DAX fault: stamp the page's FECB (§III-C / Figure 5).

        If the FECB line is cached it is updated in place and dirtied;
        the in-memory truth is the FECBStore either way.
        """
        block = self.fecb.block(page)
        reset = block.stamp(group_id, file_id)
        fecb_addr = self.layout.fecb_addr(page)
        _, evictions = self.metadata_cache.access(
            fecb_addr, MetadataKind.FECB, is_write=True
        )
        if evictions:
            self._handle_metadata_evictions(evictions)
        if self.config.functional:
            self.merkle.update_leaf(fecb_addr)
        # The stamp rides the kernel's synchronous DAX-fault path, so the
        # identity binding (and a recycle's counter reset — the Silent-
        # Shredder property) is durable at fault return; only subsequent
        # counter bumps ride the Osiris stop-loss window.
        self._journal_counter_persist(fecb_addr)
        self.stats.add("fecb_stamps")
        if reset:
            self.stats.add("fecb_recycles")

    def admin_login(self, credential_digest: bytes) -> bool:
        """Boot-time admin check (§VI "Protecting Files from Internal
        Attacks").  A wrong credential locks the file-decryption engine:
        memory encryption keeps working, file contents stay sealed."""
        expected = getattr(self, "_admin_digest", None)
        if expected is None:
            # First boot enrolls the credential.
            self._admin_digest = bytes(credential_digest)
            self._locked = False
            return True
        self._locked = not self._constant_time_eq(expected, credential_digest)
        if self._locked:
            self.stats.add("failed_admin_logins")
        return not self._locked

    @staticmethod
    def _constant_time_eq(a: bytes, b: bytes) -> bool:
        if len(a) != len(b):
            return False
        diff = 0
        for x, y in zip(a, b):
            diff |= x ^ y
        return diff == 0

    @property
    def locked(self) -> bool:
        return self._locked

    # ==================================================================
    # OTT region <-> Merkle plumbing
    # ==================================================================

    def _ott_slot_written(self, slot: int) -> None:
        addr = self.layout.ott_slot_addr(slot)
        self.device.write(addr)
        self.stats.add("ott_region_writes")
        if self.config.functional:
            self.merkle.update_leaf(addr)

    def _integrity_leaf_addrs(self):
        """Adds the file layer's leaves: FECBs and occupied OTT slots."""
        yield from super()._integrity_leaf_addrs()
        for page in sorted(self.fecb.snapshot()):
            yield self.layout.fecb_addr(page)
        for slot in self.ott_region.occupied_slots():
            if self.ott_region.slot_bytes(slot) != bytes(LINE_SIZE):
                yield self.layout.ott_slot_addr(slot)

    def _counter_block(self, addr: int):
        """Adds the file layer's counter lines, the FECBs."""
        if self.layout.fecb_base <= addr < self.layout.ott_base:
            return self.fecb.peek((addr - self.layout.fecb_base) // LINE_SIZE)
        return super()._counter_block(addr)

    def _merkle_leaf_bytes(self, leaf_index: int) -> bytes:
        """Adds the OTT-region slots to the counter-line leaves."""
        addr = self.layout.mecb_base + leaf_index * LINE_SIZE
        if addr >= self.layout.ott_base:
            return self.ott_region.slot_bytes((addr - self.layout.ott_base) // LINE_SIZE)
        block = self._counter_block(addr)
        return block.serialize() if block is not None else bytes(LINE_SIZE)

    # ==================================================================
    # Key lookup on the access path
    # ==================================================================

    def _lookup_key(self, group_id: int, file_id: int) -> "tuple[SecretKey, float]":
        """OTT lookup with region fallback; returns (key, latency)."""
        latency = self.ott.lookup_latency_ns
        entry = self.ott.lookup(group_id, file_id)
        if entry is not None:
            return entry.key, latency
        # Miss: probe the encrypted region (each probe = one memory read).
        found, probed = self.ott_region.fetch(group_id, file_id)
        for slot in probed:
            latency += self.device.read(self.layout.ott_slot_addr(slot))
        self.stats.add("ott_refills")
        if found is None:
            raise KeyUnavailableError(
                f"no key for group={group_id} file={file_id} (file never opened?)"
            )
        victim = self.ott.insert(found)
        if victim is not None:
            self.stats.add("ott_spills")
        return found.key, latency

    # ==================================================================
    # The dual-OTP pad path (overrides of the baseline hooks)
    # ==================================================================

    def _pad_fetch_latency(self, request: MemoryRequest, raw_addr: int, is_write: bool) -> float:
        """Counter-material latency; for DAX lines, both engines' inputs.

        MECB and FECB fetches proceed in parallel (independent metadata
        lines); the OTT lookup serialises *after* the FECB because the
        IDs come out of the FECB.  The slower branch bounds the pad path.
        """
        page = page_number(raw_addr)
        mecb_latency = self._fetch_metadata_line(
            self.layout.mecb_addr(page), MetadataKind.MECB, is_write
        )
        # ``access`` already range-checked the address (``dfbit.strip``).
        if not request.addr & dfbit.DF_MASK:
            return mecb_latency
        self.stats.counters["dax_requests"] += 1
        fecb_addr = self.layout.fecb_addr(page)
        fecb_was_cached = self.metadata_cache.lookup_only(fecb_addr, MetadataKind.FECB)
        fecb_latency = self._fetch_metadata_line(fecb_addr, MetadataKind.FECB, is_write)
        block = self.fecb.block(page)
        if block.stamped and not fecb_was_cached:
            # The OTT is only consulted when the FECB line arrives on
            # chip; once resolved, the cached line carries a pointer to
            # its OTT entry, so hits pay no key-lookup latency.
            _, key_latency = self._lookup_key(block.group_id, block.file_id)
            fecb_latency += key_latency
        return max(mecb_latency, fecb_latency)

    def _extra_write_path(self, request: MemoryRequest, raw_addr: int) -> float:
        """DAX write: bump the FECB minor counter and dirty its BMT path."""
        if not request.addr & dfbit.DF_MASK:
            return 0.0
        page = page_number(raw_addr)
        block = self.fecb.block(page)
        if not block.stamped:
            # Page written through a non-file mapping of file memory —
            # treat as plain memory (kernel guarantees DF only on file
            # PTEs, so this is belt-and-braces).
            return 0.0
        fecb_addr = self.layout.fecb_addr(page)
        latency = self._bump_line(block.counters, page, page_offset_lines(raw_addr), fecb_addr)
        self._update_merkle_path(fecb_addr)
        return latency

    def _functional_pad(self, raw_addr: int) -> bytes:
        """OTP_mem, XORed with OTP_file when the page belongs to a file.

        Pad composition keys off the FECB stamp — the same information
        the hardware uses — so a stamped page's data is always sealed
        under both layers regardless of which mapping wrote it.
        """
        memory_pad = super()._functional_pad(raw_addr)
        page = page_number(raw_addr)
        block = self.fecb.peek(page)
        if block is None or not block.stamped:
            return memory_pad
        if self._locked:
            # Locked engine: the file pad is unavailable; decryption with
            # only the memory pad yields sealed bytes — the §VI attacker
            # view.  (Writes are refused outright.)
            return memory_pad
        key, _ = self._lookup_key(block.group_id, block.file_id)
        line_index = page_offset_lines(raw_addr)
        major, minor = block.counters.value_for(line_index)
        iv = CounterIV(
            domain=FILE_DOMAIN,
            page_id=page,
            page_offset=line_index,
            major=major,
            minor=minor,
        )
        if self._file_engine is None:
            raise RuntimeError("file pads exist only in functional mode")
        self._file_engine.rekey(key)
        file_pad = self._file_engine.pad_for(iv)
        return xor_bytes(memory_pad, file_pad)

    def read_data(self, addr: int) -> bytes:
        """Functional read: both integrity trees legs verified for DAX."""
        raw_addr = dfbit.strip(addr)
        page = page_number(raw_addr)
        block = self.fecb.peek(page)
        if self.config.functional and block is not None and block.stamped:
            self.merkle.verify_leaf(self.layout.fecb_addr(page))
        return super().read_data(addr)

    # ==================================================================
    # Crash consistency for the OTT (§III-H)
    # ==================================================================

    def crash_flush_ott(self) -> int:
        """Backup-power drain (§III-H option 2): flush the whole OTT.

        With write-through logging this is a no-op for correctness, but
        it is modelled so the logging ablation (log-on-update vs
        flush-on-crash) can measure both designs.  Returns lines written.
        """
        written = 0
        for entry in self.ott.entries():
            slot = self.ott_region.store(entry)
            self._ott_slot_written(slot)
            written += 1
        self.stats.add("crash_flush_lines", written)
        return written

    def recover_ott_after_crash(self) -> int:
        """Rebuild the on-chip OTT from the encrypted region.

        Returns the number of keys recovered.  Tag-failing records
        (a flipped bit anywhere in the sealed record trips the tag) are
        skipped and counted in ``ott_rejected_slots`` rather than
        trusted — a poisoned slot means the key is *unavailable*, which
        downstream turns every dependent line into an explicit failure.
        """
        recovered = 0
        self.ott_rejected_slots = 0
        # The table object survives (its geometry and stats are hardware
        # properties); only the volatile SRAM contents are rebuilt.
        self.ott.reset()
        # Unoccupied slots read as zeros and hold nothing to unseal; the
        # modelled scan still reads every slot (``reboot_machine``).
        for slot in self.ott_region.occupied_slots():
            raw = self.ott_region.slot_bytes(slot)
            if raw == bytes(LINE_SIZE):
                continue
            entry = self.ott_region._unseal(slot, raw[: EncryptedOTTRegion.RECORD_BYTES])
            if entry is not None:
                self.ott.insert(entry)
                recovered += 1
            else:
                self.ott_rejected_slots += 1
                self.stats.add("ott_recovery_rejects")
        self.stats.add("ott_recoveries")
        return recovered
