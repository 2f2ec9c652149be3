"""The full-system machine model: CPU accesses -> MMU -> caches -> NVM.

A :class:`Machine` is the simulation's equivalent of the paper's Gem5
full-system setup: one object owning the MMU/TLB, the three-level cache
hierarchy, the scheme-appropriate memory controller, the mounted DAX
filesystem, the keyring, and (for FsEncr) the MMIO channel between
kernel and controller.  Workloads drive it through a small API:

* file management — ``create_file`` / ``open_file`` / ``unlink`` /
  ``chmod`` / ``mmap``
* timing accesses — ``load`` / ``store`` / ``persist`` / ``compute``
  (line-granularity trace driving; this is what benchmarks use)
* functional accesses — ``store_bytes`` / ``load_bytes`` (real data
  through real crypto; write-through, used by tests and examples)

Timing accounting (1 GHz: cycles == ns):

* loads serialise: translation + cache walk + (on miss) the controller's
  read latency all join the critical path;
* plain stores retire into the hierarchy: a miss costs the
  read-for-ownership fetch, but the eventual write-back only charges
  ``write_contention_factor`` of its device time (it contends for
  bandwidth, it does not stall the pipeline);
* ``persist`` models the PMDK idiom (store + clwb + sfence): the dirty
  line's write is synchronous and charged in full — this is why the
  paper's write-intensive persistent workloads hurt most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.fsencr import FsEncrController
from ..core.ott import OpenTunnelTable
from ..faults.domain import CrashDomain
from ..fs.ecryptfs import SoftwareEncryptionOverlay
from ..fs.ext4dax import DaxFilesystem, FileHandle
from ..fs.permissions import UserDatabase
from ..kernel.costs import SoftwareCosts
from ..kernel.keyring import Keyring
from ..kernel.mmio import MMIORegisters
from ..kernel.mmu import MMU
from ..kernel.page_cache import PageCache, PageCacheConfig
from ..kernel.tlb import TLB
from ..mem.address import LINE_SIZE, PAGE_SIZE, line_address
from ..mem.controller import MemoryControllerBase, MemoryRequest, PlainMemoryController
from ..mem.hierarchy import CacheHierarchy
from ..mem.nvm import NVMDevice
from ..mem.stats import StatsRegistry
from ..mem.wpq import WritePendingQueue
from ..secmem.layout import MetadataLayout
from ..secmem.secure_controller import BaselineSecureController
from .config import MachineConfig, Scheme
from .histograms import LatencyHistogram
from .results import RunResult

__all__ = ["Machine", "MappedRegion"]

_FENCE_NS = 10.0  # sfence drain
_ADR_DRAIN_NS = 60.0  # clwb completion into the ADR persistence domain


def _check_delay(ns: float) -> None:
    """Reject a compute delay the clock cannot take: NaN, infinite or
    negative."""
    if not 0.0 <= ns < math.inf:
        raise ValueError(f"compute delay must be finite and >= 0, got {ns!r}")


@dataclass
class MappedRegion:
    """One mmap'd range of a file in the machine's address space."""

    vpn_start: int
    pages: int
    handle: FileHandle
    file_page_start: int = 0

    def contains(self, vpn: int) -> bool:
        return self.vpn_start <= vpn < self.vpn_start + self.pages

    def file_page(self, vpn: int) -> int:
        return self.file_page_start + (vpn - self.vpn_start)


class Machine:
    """One simulated system under one scheme."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        # Stats bundles register in creation order — nvm, [ott,]
        # controller + metadata bundles, hierarchy, tlb/mmu, [mmio,] fs,
        # [page_cache, sw_overlay,] [wpq,] [anubis] — which the golden
        # digests pin, so the parts below are built in exactly that order.
        self.config = config = config if config is not None else MachineConfig()
        scheme = config.scheme
        registry = self.registry = StatsRegistry()
        self.clock_ns = 0.0

        self.layout = MetadataLayout(data_bytes=config.total_memory_bytes)
        device = NVMDevice(timing=config.nvm_timing, stats=registry.create("nvm"))
        self.controller = self._build_controller(device)
        self.hierarchy = CacheHierarchy(config.hierarchy, registry=registry)
        # One address space per machine: its MMU (page table + TLB) and
        # mapped regions.
        self.mmu = MMU(
            tlb=TLB(stats=registry.create("tlb")),
            stats=registry.create("mmu"),
        )
        self.mmu.set_fault_handler(self._handle_fault)
        self._regions: List[MappedRegion] = []
        self._next_vpn = 0x1000

        self.users = UserDatabase()
        self.keyring = Keyring()
        # FsEncr exposes the kernel-facing MMIO management channel.
        self.mmio = (
            MMIORegisters(target=self.controller, stats=registry.create("mmio"))
            if scheme is Scheme.FSENCR
            else None
        )
        self.fs = DaxFilesystem(
            pmem_base=config.pmem_base,
            pmem_bytes=config.pmem_bytes,
            users=self.users,
            keyring=self.keyring,
            mmio=self.mmio,
            costs=config.software_costs,
            stats=registry.create("fs"),
        )
        self.overlay: Optional[SoftwareEncryptionOverlay] = None
        if scheme.uses_page_cache:
            self.overlay = SoftwareEncryptionOverlay(
                device=device,
                costs=config.software_costs,
                page_cache=PageCache(
                    PageCacheConfig(config.page_cache_pages),
                    stats=registry.create("page_cache"),
                ),
                stats=registry.create("sw_overlay"),
                encrypted=scheme.has_file_encryption,
            )

        # Measurement window: the paper fast-forwards workloads to the
        # post-file-creation point; mark_measurement_start() is that
        # fast-forward boundary.
        self._mark_ns = 0.0
        self._mark_reads = 0
        self._mark_writes = 0

        # Optional per-access latency histogram (attach_histogram()).
        self.latency_histogram: Optional[LatencyHistogram] = None

        # Concurrent-traffic service model (repro.sim.service): when a
        # scheduler attaches shared contention queues, every controller-
        # side access charges queueing delay through them.  None (the
        # default) is the exact seed single-stream path.
        self.service_queues = None
        self.stream_id = 0

        # Persist-path model: fixed ADR constant or an explicit WPQ.
        self.wpq = (
            WritePendingQueue(config.wpq, stats=registry.create("wpq"))
            if config.model_wpq
            else None
        )

        # Page-cache shadow copies live in non-PMEM physical pages
        # below the PMEM region.
        self._next_shadow_pfn = 0x100
        self._shadow_limit_pfn = config.pmem_base // PAGE_SIZE
        self._shadow_pfns: Dict[Tuple[int, int], int] = {}

        # Crash lifecycle: in functional mode the secure controller
        # stages every line write through a CrashDomain sized like the
        # WPQ, so crash() can tear or drop exactly the at-risk tail.
        self._crashed = False
        self.last_crash_report = None
        self.last_recovery_report = None
        controller = self.controller
        if config.functional and config.scheme.has_secure_controller:
            controller.crash_domain = CrashDomain(depth=config.wpq.entries)
        if config.anubis_recovery:
            # The Anubis shadow table mirrors the metadata cache's dirty
            # counter lines into its NVM region.  Its writes are posted
            # like Osiris write-throughs: they consume device bandwidth
            # but never stall the triggering store.
            controller.anubis_shadow = config.build_anubis_shadow(
                write_hook=device.write, stats=registry.create("anubis")
            )

    def _build_controller(self, device: NVMDevice) -> MemoryControllerBase:
        """The scheme's memory controller, with the secure controllers'
        sub-component counters surfaced in the registry (metadata cache
        hit rates etc. feed the analyses)."""
        config = self.config
        registry = self.registry
        if config.scheme is Scheme.FSENCR:
            # OTT geometry is a config knob (§III-E ablation axis).
            ott = OpenTunnelTable(
                banks=config.ott_banks,
                entries_per_bank=config.ott_entries_per_bank,
                stats=registry.create("ott"),
            )
            controller = FsEncrController(
                layout=self.layout,
                config=config.controller_config(),
                device=device,
                stats=registry.create("controller"),
                ott=ott,
            )
        elif config.scheme is Scheme.BASELINE_SECURE:
            controller = BaselineSecureController(
                layout=self.layout,
                config=config.controller_config(),
                device=device,
                stats=registry.create("controller"),
            )
        else:
            return PlainMemoryController(device=device, stats=registry.create("controller"))
        registry.register(controller.metadata_cache.stats)
        registry.register(controller.merkle.stats)
        registry.register(controller.osiris.stats)
        if isinstance(controller, FsEncrController):
            registry.register(controller.ott_region.stats)
        return controller

    @property
    def device(self) -> NVMDevice:
        return self.controller.device

    @property
    def costs(self) -> SoftwareCosts:
        return self.config.software_costs

    # ------------------------------------------------------------------
    # Users and files
    # ------------------------------------------------------------------

    def add_user(self, uid: int, gid: int, passphrase: str, groups=frozenset()):
        """Create a user and log them in (derive their FEKEK)."""
        user = self.users.add_user(uid, gid, groups)
        self.keyring.login(uid, passphrase)
        return user

    def create_file(self, path: str, uid: int, mode: int = 0o644, encrypted: bool = False) -> FileHandle:
        handle, latency = self.fs.create(path, uid, mode=mode, encrypted=encrypted)
        self.clock_ns += latency
        return handle

    def open_file(self, path: str, uid: int, write: bool = False) -> FileHandle:
        handle, latency = self.fs.open(path, uid, write=write)
        self.clock_ns += latency
        return handle

    def unlink(self, path: str, uid: int) -> None:
        self.clock_ns += self.fs.unlink(path, uid)

    def chmod(self, path: str, uid: int, mode: int) -> None:
        self.fs.chmod(path, uid, mode)
        self.clock_ns += self.costs.syscall_ns

    def mmap(self, handle: FileHandle, pages: int, file_page_start: int = 0) -> int:
        """Map ``pages`` of an open file; returns the base virtual address."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        region = MappedRegion(
            vpn_start=self._next_vpn,
            pages=pages,
            handle=handle,
            file_page_start=file_page_start,
        )
        self._regions.append(region)
        self._next_vpn += pages + 8  # guard gap
        self.clock_ns += self.costs.syscall_ns
        return region.vpn_start * PAGE_SIZE

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def _region_for(self, vpn: int) -> Optional[MappedRegion]:
        for region in self._regions:
            if region.contains(vpn):
                return region
        return None

    def _handle_fault(self, vpn: int, is_write: bool) -> float:
        region = self._region_for(vpn)
        if region is None:
            from ..kernel.page_table import PageFault

            raise PageFault(vpn, is_write)

        file_page = region.file_page(vpn)
        if self.overlay is not None:
            # Non-DAX: the mapping points at the page-cache shadow copy;
            # residency (and its cost) is charged per access.
            key = (region.handle.inode.i_ino, file_page)
            pfn = self._shadow_pfns.get(key)
            if pfn is None:
                pfn = self._next_shadow_pfn
                if pfn >= self._shadow_limit_pfn:
                    raise MemoryError("page-cache shadow memory exhausted")
                self._next_shadow_pfn += 1
                self._shadow_pfns[key] = pfn
            # Make sure the file page exists on the device too.
            if region.handle.inode.extents.get(file_page) is None:
                dev_pfn, _, _ = self.fs.fault_in(region.handle, file_page)
            self.mmu.page_table.map(vpn, pfn, df=False)
            return self.costs.minor_fault_ns

        pfn, df, latency = self.fs.fault_in(region.handle, file_page)
        self.mmu.page_table.map(vpn, pfn, df=df)
        return latency

    # ------------------------------------------------------------------
    # Timing access path
    # ------------------------------------------------------------------

    def compute(self, ns: float) -> None:
        """Model CPU work between memory operations."""
        _check_delay(ns)
        self.clock_ns += ns

    def fence(self) -> None:
        self.clock_ns += _FENCE_NS

    def _check_alive(self) -> None:
        """A crashed machine has no power: every access until
        ``reboot()`` is a modelling error, not a zero-latency no-op."""
        if self._crashed:
            raise RuntimeError(
                "machine is crashed; reboot() before issuing accesses"
            )

    def load(self, vaddr: int, size: int = 8) -> None:
        self._check_alive()
        self._access_range(vaddr, size, is_write=False)

    def store(self, vaddr: int, size: int = 8) -> None:
        self._check_alive()
        self._access_range(vaddr, size, is_write=True)

    def persist(self, vaddr: int, size: int = 8) -> None:
        """store + clwb + sfence over the byte range (the PMDK idiom)."""
        self._check_alive()
        self._access_range(vaddr, size, is_write=True)
        for line in self._lines_of(vaddr, size):
            self._flush_line(line)
        self.fence()

    def _lines_of(self, vaddr: int, size: int) -> range:
        if size <= 0:
            raise ValueError("size must be positive")
        first = line_address(vaddr)
        last = line_address(vaddr + size - 1)
        return range(first, last + LINE_SIZE, LINE_SIZE)

    def _access_range(self, vaddr: int, size: int, is_write: bool) -> None:
        # Fast path: the overwhelmingly common case is a small access
        # that stays inside one cache line — skip the range machinery.
        first = line_address(vaddr)
        if size <= 1 or line_address(vaddr + size - 1) == first:
            if size <= 0:
                raise ValueError("size must be positive")
            self._access_line(first, is_write)
            return
        for line_vaddr in self._lines_of(vaddr, size):
            self._access_line(line_vaddr, is_write)

    def attach_histogram(self, name: str = "access_latency") -> LatencyHistogram:
        """Start recording one latency sample per line access."""
        self.latency_histogram = LatencyHistogram(name=name)
        return self.latency_histogram

    def attach_service_queues(self, queues, stream_id: int = 0) -> None:
        """Join this machine to a shared-contention service model.

        ``queues`` carries the memory-controller queue and the OTT-port
        queue every stream of one service run shares
        (:class:`repro.sim.service.ServiceQueues`).  Once attached, the
        machine charges queueing delay for controller-side accesses; a
        lone attached stream charges exactly zero extra (see
        :class:`~repro.mem.controller.ServiceQueue`), so single-stream
        service runs remain bit-identical to the seed path.
        """
        self.service_queues = queues
        self.stream_id = stream_id

    def _ott_lookup_count(self) -> int:
        """Cumulative OTT lookups (hits + misses) the controller made."""
        ott = getattr(self.controller, "ott", None)
        if ott is None:
            return 0
        return ott.stats.get("hits") + ott.stats.get("misses")

    def _controller_access(self, request: MemoryRequest, factor: float = 1.0) -> None:
        """One controller-side access, charged to the clock.

        Without service queues this is exactly ``clock += access() *
        factor`` — the seed path.  With queues attached, the access
        additionally waits for the shared queues by the one rule in
        :meth:`~repro.sim.service.ServiceQueues.charge`, given the
        charged latency and the OTT lookups the access made.
        """
        queues = self.service_queues
        if queues is None:
            self.clock_ns += self.controller.access(request) * factor
            return
        arrival = self.clock_ns
        lookups_before = self._ott_lookup_count()
        charged = self.controller.access(request) * factor
        lookups = self._ott_lookup_count() - lookups_before
        lookup_ns = self.controller.ott.lookup_latency_ns * factor if lookups else 0.0
        self.clock_ns += queues.charge(arrival, charged, lookups, lookup_ns) + charged

    def _access_line(self, line_vaddr: int, is_write: bool) -> None:
        access_start_ns = self.clock_ns
        translation = self.mmu.translate(line_vaddr, is_write)
        self.clock_ns += translation.latency_ns

        if self.overlay is not None:
            region = self._region_for(line_vaddr // PAGE_SIZE)
            if region is not None:
                inode = region.handle.inode
                file_page = region.file_page(line_vaddr // PAGE_SIZE)
                dev_pfn = inode.extents.get(file_page)
                if dev_pfn is not None:
                    self.clock_ns += self.overlay.access_page(
                        inode.i_ino, file_page, dev_pfn * PAGE_SIZE, is_write
                    )

        outcome = self.hierarchy.access(translation.paddr, is_write)
        self.clock_ns += outcome.latency_ns
        if outcome.miss_addr is not None:
            # Fill (read or read-for-ownership) from memory.
            self._controller_access(
                MemoryRequest(addr=outcome.miss_addr, is_write=False)
            )
        for wb_addr in outcome.writeback_addrs:
            self._controller_access(
                MemoryRequest(addr=wb_addr, is_write=True),
                factor=self.config.write_contention_factor,
            )
        if self.latency_histogram is not None:
            self.latency_histogram.record(self.clock_ns - access_start_ns)

    def _flush_line(self, line_vaddr: int) -> None:
        """clwb one line.

        ADR semantics: the flush completes once the line reaches the
        memory controller's persistence domain (write-pending queue), not
        the PCM array — so the pipeline pays a fixed drain latency while
        the array write (data + its security-metadata work) is charged at
        the bandwidth-contention factor like any posted write.
        """
        translation = self.mmu.translate(line_vaddr, is_write=False)
        self.clock_ns += translation.latency_ns
        if self.hierarchy.flush_line(translation.paddr, invalidate=False):
            if self.wpq is not None:
                self.clock_ns += self.wpq.accept(self.clock_ns)
            else:
                self.clock_ns += _ADR_DRAIN_NS
            self._controller_access(
                MemoryRequest(addr=translation.paddr, is_write=True, persist=True),
                factor=self.config.write_contention_factor,
            )

    # ------------------------------------------------------------------
    # Functional access path (write-through; requires functional=True)
    # ------------------------------------------------------------------

    def store_bytes(self, vaddr: int, data: bytes) -> None:
        """Write real bytes through the controller's crypto.

        Line-granularity read-modify-write; bypasses the cache hierarchy
        (functional mode is about data correctness, not timing fidelity).
        """
        self._check_alive()
        offset = 0
        while offset < len(data):
            line_vaddr = line_address(vaddr + offset)
            within = (vaddr + offset) - line_vaddr
            chunk = data[offset : offset + (LINE_SIZE - within)]
            translation = self.mmu.translate(line_vaddr, is_write=True)
            self.clock_ns += translation.latency_ns
            current = bytearray(self.controller.read_data(translation.paddr))
            current[within : within + len(chunk)] = chunk
            latency = self.controller.access(
                MemoryRequest(addr=translation.paddr, is_write=True, data=bytes(current))
            )
            self.clock_ns += latency
            offset += len(chunk)

    def load_bytes(self, vaddr: int, size: int) -> bytes:
        self._check_alive()
        result = bytearray()
        offset = 0
        while offset < size:
            line_vaddr = line_address(vaddr + offset)
            within = (vaddr + offset) - line_vaddr
            take = min(LINE_SIZE - within, size - offset)
            translation = self.mmu.translate(line_vaddr, is_write=False)
            self.clock_ns += translation.latency_ns
            line = self.controller.read_data(translation.paddr)
            result.extend(line[within : within + take])
            offset += take
        return bytes(result)

    def copy_file(self, src_path: str, dst_path: str, uid: int) -> int:
        """Kernel file copy (§VI "Copying or Moving Files Within Same
        Device"): read each allocated page through the source mapping,
        write it through a fresh mapping of the destination file.

        The destination pages get their own FECBs at fault time, so the
        copy is re-sealed under the new location's counters — spatial
        uniqueness holds and no pad is ever replayed.  Returns the number
        of bytes copied.  Functional mode only.
        """
        if not self.config.functional:
            raise RuntimeError("copy_file requires functional=True")
        src = self.open_file(src_path, uid=uid)
        encrypted = src.inode.encrypted
        if not self.fs.exists(dst_path):
            self.create_file(dst_path, uid=uid, mode=src.inode.mode, encrypted=encrypted)
        dst = self.open_file(dst_path, uid=uid, write=True)
        copied = 0
        for file_page in sorted(src.inode.extents):
            src_base = self.mmap(src, pages=1, file_page_start=file_page)
            dst_base = self.mmap(dst, pages=1, file_page_start=file_page)
            data = self.load_bytes(src_base, PAGE_SIZE)
            self.store_bytes(dst_base, data)
            copied += PAGE_SIZE
        return copied

    # ------------------------------------------------------------------
    # Crash / reboot lifecycle
    # ------------------------------------------------------------------

    def crash(self, plan=None):
        """Power-fail now: volatile state is lost, the in-flight write
        tail is resolved per ``plan`` (drained / dropped / torn), media
        bit flips land.  Returns a
        :class:`~repro.faults.lifecycle.CrashReport`.

        Only a functional machine with a secure memory controller can
        crash: the crash model audits counter-mode recovery against real
        ciphertext, which no other machine has.  Any other raises
        ``ValueError`` and stays up."""
        from ..faults.lifecycle import crash_machine
        from ..faults.plan import FaultPlan

        config = self.config
        if not (config.functional and config.scheme.has_secure_controller):
            raise ValueError(
                f"crash() needs a functional machine with a secure memory "
                f"controller, not a {'functional' if config.functional else 'timing-mode'} "
                f"{config.scheme.value!r} machine"
            )
        if self._crashed:
            raise RuntimeError("machine already crashed; reboot() first")
        report = crash_machine(self, plan or FaultPlan())
        self._crashed = True
        self.last_crash_report = report
        return report

    def reboot(self):
        """Come back up through the real recovery paths (OTT region
        scan, Osiris trial decryption, Merkle rebuild).  Returns a
        :class:`~repro.faults.lifecycle.RecoveryReport`; recovery
        latency is charged to the machine clock."""
        from ..faults.lifecycle import reboot_machine

        if not self._crashed:
            raise RuntimeError("reboot() without a preceding crash()")
        report = reboot_machine(self)
        self._crashed = False
        self.last_recovery_report = report
        return report

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def elapsed_ns(self) -> float:
        return self.clock_ns

    def mark_measurement_start(self) -> None:
        """Begin the measured window (post-setup fast-forward point).

        ``result`` then reports elapsed time and NVM traffic relative to
        this mark, mirroring the paper's "fast forward all applications
        to the post-file-creation point" methodology (§V).
        """
        self._mark_ns = self.clock_ns
        self._mark_reads = self.device.read_count
        self._mark_writes = self.device.write_count

    def result(self, workload: str) -> RunResult:
        return RunResult(
            workload=workload,
            scheme=self.config.scheme.value,
            elapsed_ns=self.clock_ns - self._mark_ns,
            nvm_reads=self.device.read_count - self._mark_reads,
            nvm_writes=self.device.write_count - self._mark_writes,
            stats=dict(self.registry.snapshot()),
        )
