"""Software-encryption overlay: residency, fault costs, write-back."""

import pytest

from repro.fs import SoftwareEncryptionOverlay
from repro.kernel import PageCache, PageCacheConfig, SoftwareCosts
from repro.mem import NVMDevice


def overlay(capacity=4, encrypted=True):
    device = NVMDevice()
    return (
        SoftwareEncryptionOverlay(
            device=device,
            page_cache=PageCache(PageCacheConfig(capacity_pages=capacity)),
            encrypted=encrypted,
        ),
        device,
    )


class TestFaultPath:
    def test_first_access_faults_and_copies(self):
        ov, device = overlay()
        latency = ov.access_page(1, 0, 0x10000, is_write=False)
        assert latency >= ov.costs.encrypted_fault_ns()
        assert device.read_count == 64  # the whole 4 KB page copied in
        assert ov.stats.get("page_faults") == 1
        assert ov.stats.get("page_decryptions") == 1

    def test_resident_access_free(self):
        ov, device = overlay()
        ov.access_page(1, 0, 0x10000, False)
        reads_before = device.read_count
        assert ov.access_page(1, 0, 0x10000, False) == 0.0
        assert device.read_count == reads_before

    def test_unencrypted_overlay_skips_crypto(self):
        enc, _ = overlay(encrypted=True)
        plain, _ = overlay(encrypted=False)
        lat_enc = enc.access_page(1, 0, 0x10000, False)
        lat_plain = plain.access_page(1, 0, 0x10000, False)
        assert lat_enc > lat_plain
        assert plain.stats.get("page_decryptions") == 0


class TestWriteBack:
    def test_dirty_eviction_encrypts_and_writes(self):
        ov, device = overlay(capacity=1)
        ov.access_page(1, 0, 0x10000, is_write=True)
        writes_before = device.write_count
        ov.access_page(1, 1, 0x11000, is_write=False)  # evicts dirty page 0
        assert device.write_count == writes_before + 64
        assert ov.stats.get("page_writebacks") == 1
        assert ov.stats.get("page_encryptions") == 1

    def test_clean_eviction_free(self):
        ov, device = overlay(capacity=1)
        ov.access_page(1, 0, 0x10000, is_write=False)
        ov.access_page(1, 1, 0x11000, is_write=False)
        assert ov.stats.get("page_writebacks") == 0

    def test_write_hit_marks_dirty(self):
        ov, _ = overlay(capacity=1)
        ov.access_page(1, 0, 0x10000, is_write=False)
        ov.access_page(1, 0, 0x10000, is_write=True)  # hit, now dirty
        ov.access_page(1, 1, 0x11000, is_write=False)
        assert ov.stats.get("page_writebacks") == 1


class TestSync:
    def test_thrash_costs_scale(self):
        """A working set over capacity pays per-access fault costs —
        the paper's 'small decrypted buffer' failure mode."""
        ov, _ = overlay(capacity=2)
        total = 0.0
        for round_ in range(3):
            for page in range(4):
                total += ov.access_page(1, page, 0x10000 + page * 4096, False)
        assert ov.stats.get("page_faults") == 12  # every access a fault
