"""Machine configuration — the programmatic mirror of Table III.

A :class:`MachineConfig` fully determines a simulated system: the
scheme under test (the paper's comparison axes), cache geometry, NVM
timing, metadata-cache size (the Figure 15 sweep knob), and the
software-cost model.  Benchmarks construct configs, never components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..core.ott import OTT_BANKS, OTT_ENTRIES_PER_BANK
from ..kernel.costs import SoftwareCosts
from ..mem.cache import CacheConfig
from ..mem.hierarchy import HierarchyConfig
from ..mem.nvm import NVMTiming
from ..mem.wpq import WPQConfig
from ..secmem.anubis import ShadowTable
from ..secmem.metadata_cache import MetadataCacheConfig
from ..secmem.secure_controller import SecureControllerConfig

__all__ = ["Scheme", "MachineConfig", "scaled_hierarchy", "SCALE_FACTOR"]

#: Python-scale runs shrink workload footprints ~16x versus the paper's
#: Gem5 runs; caches shrink by the same factor so that the working-set /
#: cache-capacity *ratios* — which drive every figure's shape — match.
#: The unscaled Table III geometry is the defaults of ``HierarchyConfig``
#: and ``MetadataCacheConfig``.
SCALE_FACTOR = 16

#: Base address of the dedicated NVM region the Anubis shadow writes
#: land in.
ANUBIS_SHADOW_BASE = 0x1000_0000


def scaled_hierarchy() -> HierarchyConfig:
    """Table III's hierarchy divided by :data:`SCALE_FACTOR`."""
    return HierarchyConfig(
        l1=CacheConfig(name="l1", size_bytes=32 * 1024 // SCALE_FACTOR, ways=8, hit_latency=2.0),
        l2=CacheConfig(name="l2", size_bytes=512 * 1024 // SCALE_FACTOR, ways=8, hit_latency=20.0),
        l3=CacheConfig(name="l3", size_bytes=4 * 1024 * 1024 // SCALE_FACTOR, ways=64, hit_latency=32.0),
    )


def scaled_metadata_cache() -> MetadataCacheConfig:
    """Table III's 512 KB metadata cache divided by :data:`SCALE_FACTOR`."""
    return MetadataCacheConfig(size_bytes=512 * 1024 // SCALE_FACTOR)


class Scheme(Enum):
    """The four systems the paper's figures compare, plus the
    conventional pre-DAX filesystem they all improve on."""

    #: Conventional filesystem of Figure 1(a): page cache, fault + FS +
    #: driver + copy on every cold page, no encryption.  Not in the
    #: paper's result figures — it is the background DAX removes.
    CONVENTIONAL = "conventional"
    #: Plain ext4-dax, no encryption anywhere (Figure 3's reference).
    EXT4DAX_PLAIN = "ext4dax_plain"
    #: eCryptfs-style software encryption through the page cache; DAX off
    #: (Figure 3's software-encryption bars, the ~2.7x/5x loser).
    SOFTWARE_ENCRYPTION = "software_encryption"
    #: Counter-mode memory encryption + BMT, no file layer — the
    #: "Baseline Security" that Figures 8-15 normalise against.
    BASELINE_SECURE = "baseline_secure"
    #: The contribution: baseline + hardware filesystem encryption.
    FSENCR = "fsencr"

    @property
    def uses_page_cache(self) -> bool:
        return self in (Scheme.SOFTWARE_ENCRYPTION, Scheme.CONVENTIONAL)

    @property
    def has_file_encryption(self) -> bool:
        return self in (Scheme.FSENCR, Scheme.SOFTWARE_ENCRYPTION)

    @property
    def has_secure_controller(self) -> bool:
        """Counter-mode memory encryption, a BMT and Osiris recovery in
        the memory controller: what a crash sweep audits."""
        return self in (Scheme.BASELINE_SECURE, Scheme.FSENCR)


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build a :class:`~repro.sim.machine.Machine`."""

    scheme: Scheme = Scheme.FSENCR
    # Table III: memmap=4G!12G -> PMEM at 12 GB, 4 GB of it.  Scaled-down
    # defaults keep simulated footprints proportional to the scaled-down
    # workloads; the full-size values are a constructor call away.
    pmem_base: int = 256 * 1024 * 1024
    pmem_bytes: int = 128 * 1024 * 1024
    total_memory_bytes: int = 512 * 1024 * 1024
    hierarchy: HierarchyConfig = field(default_factory=scaled_hierarchy)
    nvm_timing: NVMTiming = field(default_factory=NVMTiming)
    metadata_cache: MetadataCacheConfig = field(default_factory=scaled_metadata_cache)
    software_costs: SoftwareCosts = field(default_factory=SoftwareCosts)
    aes_latency_ns: float = 40.0
    stop_loss: int = 4
    functional: bool = False
    #: Background (non-persist) write-backs contend for device bandwidth
    #: rather than stalling the pipeline; this factor is the fraction of
    #: their device latency charged to wall-clock.
    write_contention_factor: float = 0.25
    #: Model the controller's Write Pending Queue explicitly (burst-
    #: sensitive persist latency) instead of the fixed ADR constant.
    model_wpq: bool = False
    wpq: WPQConfig = field(default_factory=WPQConfig)
    #: Page-cache capacity for the software-encryption scheme, in pages
    #: (scaled like the caches; the paper's page cache is effectively
    #: memory-sized, ours must be thrashable by scaled workloads).
    page_cache_pages: int = 48
    #: OTT geometry (§III-E: 8 banks x 128 entries).  The capacity sweep
    #: of the OTT ablation is a config knob, like every other Table III
    #: parameter, so benchmarks never construct hardware directly.
    ott_banks: int = OTT_BANKS
    ott_entries_per_bank: int = OTT_ENTRIES_PER_BANK
    #: Anubis shadow-table sizing for the recovery-scheme comparison:
    #: the shadow mirrors the metadata cache's address stream, so its
    #: capacity is "number of cached metadata lines".
    anubis_shadow_lines: int = 64
    #: Wire the Anubis shadow table into the controller's counter-update
    #: path (the "+anubis" recovery column): runtime shadow-region
    #: writes buy reboot recovery proportional to the metadata cache.
    #: Scheme variants pin this via the scheme table (repro.sim.schemes).
    anubis_recovery: bool = False

    def __post_init__(self) -> None:
        if self.pmem_base % 4096 or self.pmem_bytes % 4096:
            raise ValueError("PMEM region must be page aligned")
        if self.pmem_base + self.pmem_bytes > self.total_memory_bytes:
            raise ValueError("PMEM region exceeds total memory")
        if not 0.0 <= self.write_contention_factor <= 1.0:
            raise ValueError("write_contention_factor must be in [0, 1]")
        if self.ott_banks < 1 or self.ott_entries_per_bank < 1:
            raise ValueError("OTT geometry must have at least one slot")
        if self.anubis_shadow_lines < 1:
            raise ValueError("anubis_shadow_lines must be >= 1")
        if self.anubis_recovery and not self.scheme.has_secure_controller:
            raise ValueError(
                f"anubis_recovery needs a secure memory controller; "
                f"scheme {self.scheme.value!r} has none"
            )
        if self.stop_loss < 1:
            raise ValueError("stop_loss must be >= 1")
        if not self.aes_latency_ns >= 0.0:
            raise ValueError("aes_latency_ns must be >= 0")
        if self.page_cache_pages < 1:
            raise ValueError("page_cache_pages must be >= 1")

    def controller_config(self) -> SecureControllerConfig:
        return SecureControllerConfig(
            aes_latency_ns=self.aes_latency_ns,
            stop_loss=self.stop_loss,
            functional=self.functional,
            metadata_cache=self.metadata_cache,
        )

    def build_anubis_shadow(self, write_hook=None, stats=None) -> ShadowTable:
        """The Anubis shadow table sized by this config's knobs."""
        return ShadowTable(
            capacity_lines=self.anubis_shadow_lines,
            base_addr=ANUBIS_SHADOW_BASE,
            write_hook=write_hook,
            stats=stats,
        )

    def with_scheme(self, scheme: Scheme) -> "MachineConfig":
        """The same machine under a different scheme — the comparison
        idiom every benchmark uses."""
        return self._replace(scheme=scheme)

    def with_wpq(self, enabled: bool = True) -> "MachineConfig":
        """The same machine with the explicit Write Pending Queue model
        toggled — the crash-sweep matrix's burst-sensitive column."""
        return self._replace(model_wpq=enabled)

    def with_metadata_cache(self, size_bytes: int) -> "MachineConfig":
        """Figure 15's sweep knob."""
        return self._replace(
            metadata_cache=MetadataCacheConfig(
                size_bytes=size_bytes,
                ways=self.metadata_cache.ways,
                line_size=self.metadata_cache.line_size,
                hit_latency=self.metadata_cache.hit_latency,
                partitioned=self.metadata_cache.partitioned,
            )
        )

    def _replace(self, **overrides) -> "MachineConfig":
        from dataclasses import replace

        return replace(self, **overrides)
