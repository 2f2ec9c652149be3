"""Baseline secure controller: timing flows and functional crypto."""

import pytest

from repro.mem import LINE_SIZE, MemoryRequest
from repro.secmem import (
    BaselineSecureController,
    IntegrityError,
    MetadataCacheConfig,
    MetadataLayout,
    SecureControllerConfig,
)


def controller(functional=False, **config_kwargs):
    layout = MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024)
    return BaselineSecureController(
        layout=layout,
        config=SecureControllerConfig(functional=functional, **config_kwargs),
    )


class TestTimingRead:
    def test_cold_read_includes_counter_and_merkle_fetches(self):
        ctl = controller()
        ctl.access(MemoryRequest(addr=0x1000, is_write=False))
        assert ctl.stats.get("mecb_fetches") == 1
        assert ctl.stats.get("merkle_fetches") >= 1

    def test_warm_read_cheaper_than_cold(self):
        ctl = controller()
        cold = ctl.access(MemoryRequest(addr=0x1000, is_write=False))
        warm = ctl.access(MemoryRequest(addr=0x1000, is_write=False))
        assert warm < cold

    def test_warm_read_bounded_by_row_miss_plus_xor(self):
        """With a counter hit, the pad path (SRAM hit + AES) hides under
        the data fetch; the access costs at most a device row miss plus
        the XOR (Figure 2's "only XOR latency is added")."""
        ctl = controller()
        ctl.access(MemoryRequest(addr=0x1000, is_write=False))
        warm = ctl.access(MemoryRequest(addr=0x1040, is_write=False))
        bound = max(
            ctl.device.timing.row_miss_read_ns,
            ctl.metadata_cache.hit_latency + ctl.config.aes_latency_ns,
        ) + ctl.config.xor_latency_ns
        assert warm <= bound + 1e-9

    def test_same_page_shares_counter_line(self):
        ctl = controller()
        ctl.access(MemoryRequest(addr=0x1000, is_write=False))
        ctl.access(MemoryRequest(addr=0x1040, is_write=False))
        assert ctl.stats.get("mecb_fetches") == 1  # one fetch for the page


class TestTimingWrite:
    def test_write_bumps_counter(self):
        ctl = controller()
        ctl.access(MemoryRequest(addr=0x2000, is_write=True))
        assert ctl.mecb.block(2).value_for(0) == (0, 1)

    def test_osiris_persist_every_stop_loss(self):
        ctl = controller(stop_loss=2)
        for _ in range(4):
            ctl.access(MemoryRequest(addr=0x2000, is_write=True))
        assert ctl.stats.get("osiris_counter_persists") == 2

    def test_minor_overflow_triggers_page_reencryption(self):
        ctl = controller()
        for _ in range(128):
            ctl.access(MemoryRequest(addr=0x2000, is_write=True))
        assert ctl.stats.get("minor_overflows") == 1
        assert ctl.stats.get("page_reencryptions") == 1
        assert ctl.mecb.block(2).major == 1

    def test_overflow_modeling_can_be_disabled(self):
        ctl = controller(model_counter_overflow=False)
        for _ in range(128):
            ctl.access(MemoryRequest(addr=0x2000, is_write=True))
        assert ctl.stats.get("page_reencryptions") == 0

    def test_persist_write_costs_more_than_posted(self):
        ctl_a, ctl_b = controller(), controller()
        posted = ctl_a.access(MemoryRequest(addr=0x3000, is_write=True))
        persist = ctl_b.access(MemoryRequest(addr=0x3000, is_write=True, persist=True))
        assert persist > posted


class TestMetadataTraffic:
    def test_dirty_metadata_eviction_writes_back(self):
        ctl = controller(metadata_cache=MetadataCacheConfig(size_bytes=2 * LINE_SIZE, ways=1))
        # Dirty two counter lines mapping to the same tiny-cache set.
        stride = 4096 * ctl.metadata_cache.config.size_bytes // LINE_SIZE
        for i in range(6):
            ctl.access(MemoryRequest(addr=i * 4096 * 2, is_write=True))
        assert ctl.stats.get("metadata_writebacks") >= 1


class TestFunctional:
    def test_roundtrip(self):
        ctl = controller(functional=True)
        line = bytes(range(64))
        ctl.write_data(0x4000, line)
        assert ctl.read_data(0x4000) == line

    def test_ciphertext_at_rest(self):
        ctl = controller(functional=True)
        line = b"secret! " * 8
        ctl.write_data(0x4000, line)
        assert ctl.store.read_line(0x4000) != line

    def test_rewrites_rotate_pads(self):
        ctl = controller(functional=True)
        line = bytes(64)
        ctl.write_data(0x4000, line)
        first = ctl.store.read_line(0x4000)
        ctl.write_data(0x4000, line)
        assert ctl.store.read_line(0x4000) != first

    def test_page_reencryption_preserves_data(self):
        ctl = controller(functional=True)
        keep = b"\x5a" * 64
        ctl.write_data(0x4040, keep)
        for _ in range(128):  # overflow line 0's minor counter
            ctl.write_data(0x4000, bytes(64))
        assert ctl.read_data(0x4040) == keep  # resealed under the new major

    def test_counter_tamper_detected_on_read(self):
        ctl = controller(functional=True)
        ctl.write_data(0x4000, bytes(64))
        ctl.mecb.block(4).minors[0] ^= 1
        with pytest.raises(IntegrityError):
            ctl.read_data(0x4000)

    def test_partial_line_addressing(self):
        ctl = controller(functional=True)
        ctl.write_data(0x4000, bytes(range(64)))
        # Reading via a mid-line address returns the whole aligned line.
        assert ctl.read_data(0x4020) == bytes(range(64))

    def test_functional_gates(self):
        ctl = controller(functional=False)
        with pytest.raises(RuntimeError):
            ctl.read_data(0x4000)

    def test_different_lines_different_pads(self):
        ctl = controller(functional=True)
        line = bytes(64)
        ctl.write_data(0x4000, line)
        ctl.write_data(0x4040, line)
        assert ctl.store.read_line(0x4000) != ctl.store.read_line(0x4040)
