"""Software filesystem encryption (the eCryptfs model) — Figure 3's loser.

This models a stacked cryptographic filesystem over the PMEM region with
DAX *disabled*, because software encryption cannot work without the page
cache: every first touch of a file page must

  1. trap into the kernel (minor fault),
  2. traverse the stacked-VFS + filesystem layers,
  3. copy the whole 4 KB page from the device into the page cache
     (64 NVM line reads), and
  4. software-decrypt the page (4 KB AES + key setup),

after which accesses hit the decrypted copy until it is evicted —
and a dirty eviction pays the mirror-image cost (software encrypt +
64 NVM line writes).  The 4 KB granularity for byte-sized accesses is
exactly the mismatch the paper blames for the ~2.7x average / ~5x YCSB
slowdown.

The class is a *page-residency manager*: the machine model consults it
on every access to a software-encrypted file and routes resident-page
accesses through the ordinary cache hierarchy (the copy is just memory).
"""

from __future__ import annotations

from typing import Optional

from ..kernel.costs import SoftwareCosts
from ..kernel.page_cache import PageCache, PageCacheConfig
from ..mem.address import LINES_PER_PAGE, PAGE_SIZE
from ..mem.nvm import NVMDevice
from ..mem.stats import StatCounters

__all__ = ["SoftwareEncryptionOverlay"]


class SoftwareEncryptionOverlay:
    """Page-cache + software-crypto front end for encrypted file access."""

    def __init__(
        self,
        device: NVMDevice,
        costs: Optional[SoftwareCosts] = None,
        page_cache: Optional[PageCache] = None,
        stats: Optional[StatCounters] = None,
        encrypted: bool = True,
    ) -> None:
        """``encrypted=False`` degenerates into the plain conventional
        (non-DAX, page-cached, unencrypted) path — useful as the
        conventional-filesystem reference of Figure 1(a)."""
        self.device = device
        self.costs = costs or SoftwareCosts()
        # Standalone fallback; Machine injects a cache with a registered
        # bundle, and the overlay owns its internal cache either way.
        self.page_cache = page_cache or PageCache(PageCacheConfig())
        self.stats = stats or StatCounters("sw_encryption")
        self.encrypted = encrypted

    def access_page(
        self, file_id: int, page_index: int, device_page_addr: int, is_write: bool
    ) -> float:
        """Ensure the page is resident; returns the software latency.

        ``device_page_addr`` is the physical base of the page on the
        NVM device (used to charge real line traffic for the copy).
        A page-cache hit costs nothing here — the caller then performs
        the actual access against the resident copy through the normal
        cache hierarchy.
        """
        if self.page_cache.lookup(file_id, page_index) is not None:
            if is_write:
                self.page_cache.mark_dirty(file_id, page_index)
            return 0.0

        # Fault the page in: kernel + FS layers + copy + (decrypt).
        latency = (
            self.costs.encrypted_fault_ns()
            if self.encrypted
            else self.costs.conventional_fault_ns()
        )
        for line in range(LINES_PER_PAGE):
            latency_contrib = self.device.read(device_page_addr + line * 64)
            # The copy overlaps poorly with the kernel work; charge the
            # device time fully (it is a synchronous read of a cold page).
            latency += latency_contrib
        self.stats.add("page_faults")
        if self.encrypted:
            self.stats.add("page_decryptions")

        evicted = self.page_cache.insert(file_id, page_index, dirty=is_write)
        if evicted is not None and evicted.dirty:
            latency += self._write_back(evicted.file_id, evicted.page_index)
        return latency

    def _write_back(self, file_id: int, page_index: int) -> float:
        """Dirty eviction: software-encrypt and write the page out.

        The device address of the evicted page is approximated by its
        (file, page) identity hashed into the file's region — the traffic
        volume and crypto cost are what matter, not the exact row.
        """
        latency = self.costs.page_crypto_ns if self.encrypted else 0.0
        base = (file_id * 1024 + page_index) * PAGE_SIZE
        for line in range(LINES_PER_PAGE):
            # The software-encryption scheme has no secure controller:
            # the kernel's write-back path talks to the plain device
            # directly, exactly as the pre-DAX stack does (Figure 1(a)).
            latency += self.device.write(base + line * 64)
        self.stats.add("page_writebacks")
        if self.encrypted:
            self.stats.add("page_encryptions")
        return latency
