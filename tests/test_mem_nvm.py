"""PCM device model: row-buffer timing, persist semantics, backing store."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import AddressMap, NVMDevice, NVMStore, NVMTiming


class TestTimingConstants:
    def test_table3_defaults(self):
        t = NVMTiming()
        assert t.read_ns == 60.0
        assert t.write_ns == 150.0
        assert t.t_rcd_ns == 55.0

    def test_derived_latencies(self):
        t = NVMTiming()
        assert t.row_hit_ns == pytest.approx(17.5)
        assert t.row_miss_read_ns == pytest.approx(77.5)
        assert t.dirty_evict_ns == 150.0


class TestRowBuffer:
    def test_first_access_misses(self):
        dev = NVMDevice()
        lat = dev.read(0)
        assert lat == pytest.approx(dev.timing.row_miss_read_ns)
        assert dev.stats.get("row_misses") == 1

    def test_second_access_same_row_hits(self):
        dev = NVMDevice()
        dev.read(0)
        lat = dev.read(64)
        assert lat == pytest.approx(dev.timing.row_hit_ns)
        assert dev.stats.get("row_hits") == 1

    def test_different_row_same_bank_misses(self):
        dev = NVMDevice()
        dev.read(0)
        # Same bank, different row: one full device row span away.
        span = dev.address_map.row_buffer_bytes * dev.address_map.total_banks
        dev.read(span)
        assert dev.stats.get("row_misses") == 2

    def test_banks_independent(self):
        dev = NVMDevice()
        dev.read(0)
        dev.read(1024)  # next bank under RoRaBaChCo
        dev.read(64)  # back to bank 0 — row still open
        assert dev.stats.get("row_hits") == 1

    def test_dirty_row_writeback_charged(self):
        dev = NVMDevice()
        dev.write(0)  # opens row, dirties it
        span = dev.address_map.row_buffer_bytes * dev.address_map.total_banks
        lat = dev.read(span)  # evicts dirty row first
        assert lat >= dev.timing.dirty_evict_ns
        assert dev.stats.get("dirty_row_writebacks") == 1


class TestPersistWrites:
    def test_persist_write_pays_array_write(self):
        dev = NVMDevice()
        lat_posted = dev.write(0)
        lat_persist = dev.write(64, persist=True)
        assert lat_persist >= lat_posted + dev.timing.dirty_evict_ns - dev.timing.row_miss_read_ns

    def test_persist_cleans_row(self):
        dev = NVMDevice()
        dev.write(0, persist=True)
        span = dev.address_map.row_buffer_bytes * dev.address_map.total_banks
        dev.read(span)
        assert dev.stats.get("dirty_row_writebacks") == 0

    def test_counters(self):
        dev = NVMDevice()
        dev.read(0)
        dev.write(64)
        dev.write(128, persist=True)
        assert dev.read_count == 1
        assert dev.write_count == 2
        assert dev.stats.get("persist_writes") == 1


class TestAdaptivePolicy:
    def test_adaptive_close_after_streak(self):
        dev = NVMDevice()
        span = dev.address_map.row_buffer_bytes * dev.address_map.total_banks
        for i in range(NVMDevice.ADAPT_THRESHOLD + 1):
            dev.read(i * span)  # every access a new row in bank 0
        assert dev.stats.get("adaptive_closes") >= 1


_POW2 = st.integers(min_value=0, max_value=4).map(lambda bits: 1 << bits)


@given(
    channels=_POW2,
    ranks=_POW2,
    banks=_POW2,
    row_bits=st.integers(min_value=6, max_value=13),
    addrs=st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_locate_agrees_with_decompose(channels, ranks, banks, row_bits, addrs):
    amap = AddressMap(channels=channels, ranks_per_channel=ranks,
                      banks_per_rank=banks, row_buffer_bytes=1 << row_bits)
    dev = NVMDevice(amap)
    for addr in addrs:
        coord = amap.decompose(addr)
        state, row = dev._locate(addr)
        assert row == coord.row
        assert state is dev._bank((coord.channel, coord.rank, coord.bank))


def test_locate_rejects_negative_addresses():
    with pytest.raises(ValueError):
        NVMDevice()._locate(-64)


def _bank_states(dev):
    return {key: (b.open_row, b.dirty, b.consecutive_misses) for key, b in dev._banks.items()}


_SMALL_POW2 = st.integers(min_value=0, max_value=2).map(lambda bits: 1 << bits)


@given(
    channels=_SMALL_POW2,
    ranks=_SMALL_POW2,
    banks=_SMALL_POW2,
    row_bits=st.integers(min_value=6, max_value=9),  # 64 B rows: every line its own run
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_read_run_matches_per_line_loop(channels, ranks, banks, row_bits, data):
    """read_run books what the per-line read loop books: the same summed
    latency (exact: Table III timings are multiples of 0.5 ns), counters
    and per-bank (open row, dirty, miss streak)."""
    amap = AddressMap(channels=channels, ranks_per_channel=ranks,
                      banks_per_rank=banks, row_buffer_bytes=1 << row_bits)
    span = amap.row_buffer_bytes * amap.total_banks
    # Warm-up confined to four rows per bank, so it leaves open and
    # dirty rows and miss streaks behind for the run to meet.
    addr = st.integers(min_value=0, max_value=4 * span - 1)
    warmup = data.draw(st.lists(st.tuples(addr, st.sampled_from(["read", "write", "persist"])),
                                max_size=40))
    base = data.draw(st.integers(min_value=0, max_value=6 * span))
    lines = data.draw(st.integers(min_value=0, max_value=3 * span // 64 + 3))
    run_dev, loop_dev = NVMDevice(amap), NVMDevice(amap)
    for dev in (run_dev, loop_dev):
        for where, kind in warmup:
            if kind == "read":
                dev.read(where)
            else:
                dev.write(where, persist=kind == "persist")
    latency = 0.0
    for i in range(lines):
        latency += loop_dev.read(base + i * 64)
    assert run_dev.read_run(base, lines) == latency
    assert dict(run_dev.stats.counters) == dict(loop_dev.stats.counters)
    assert _bank_states(run_dev) == _bank_states(loop_dev)


def test_read_run_of_no_lines_changes_nothing():
    dev = NVMDevice()
    dev.read(0)
    before = dict(dev.stats.counters), _bank_states(dev)
    assert dev.read_run(4096, 0) == 0.0
    assert (dict(dev.stats.counters), _bank_states(dev)) == before


@pytest.mark.parametrize("addr,lines", [(-64, 1), (0, -1)])
def test_read_run_rejects_negative_arguments(addr, lines):
    dev = NVMDevice()
    with pytest.raises(ValueError):
        dev.read_run(addr, lines)
    assert dict(dev.stats.counters) == {}


#: sha256 of the latencies and final counters of the seeded stream in
#: ``_seeded_stream_digest``, taken from the device model that located
#: banks through ``AddressMap.decompose``: locating them by integer
#: arithmetic must not move a single latency or counter.  When the
#: per-line wear count was dropped from the record, the digest was
#: re-taken on the last model that still had it and still matched the
#: old digest, so latencies and counters are pinned as before.
STREAM_DIGEST = "ec648ea10299ee099f62111b9c189110abfe4f71b0e8fe071cbb4410df7ecc1b"


def _seeded_stream_digest() -> str:
    rng = random.Random(0x5EED)
    devices = (
        NVMDevice(),
        NVMDevice(AddressMap(channels=2, ranks_per_channel=1, banks_per_rank=4,
                             row_buffer_bytes=2048)),
    )
    record = []
    for dev in devices:
        latencies = []
        for _ in range(3000):
            # Mostly a small hot window (row hits), sometimes far away
            # (row misses, adaptive closes, dirty restores).
            span = 1 << 14 if rng.random() < 0.7 else 1 << 24
            addr = rng.randrange(span)
            kind = rng.random()
            if kind < 0.5:
                latencies.append(repr(dev.read(addr)))
            else:
                latencies.append(repr(dev.write(addr, persist=kind > 0.85)))
        record.append({
            "latencies": latencies,
            "stats": dict(sorted(dev.stats.counters.items())),
        })
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_seeded_stream_pinned():
    assert _seeded_stream_digest() == STREAM_DIGEST


class TestNVMStore:
    def test_unwritten_reads_erased(self):
        assert NVMStore().read_line(0) == bytes(64)

    def test_roundtrip(self):
        store = NVMStore()
        store.write_line(128, bytes(range(64)))
        assert store.read_line(128) == bytes(range(64))

    def test_line_aligned_addressing(self):
        store = NVMStore()
        store.write_line(64, b"\x01" * 64)
        assert store.read_line(100) == b"\x01" * 64  # same line

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            NVMStore().write_line(0, b"short")

    def test_contains_and_len(self):
        store = NVMStore()
        assert 0 not in store
        store.write_line(0, bytes(64))
        assert 0 in store and 63 in store
        assert len(store) == 1

    def test_scan_returns_attacker_view(self):
        store = NVMStore()
        store.write_line(0, b"\xab" * 64)
        store.write_line(64, b"\xcd" * 64)
        view = store.scan()
        assert view == {0: b"\xab" * 64, 64: b"\xcd" * 64}
        # The scan is a copy, not the live store.
        view[0] = b"\x00" * 64
        assert store.read_line(0) == b"\xab" * 64
