"""Latency histograms and the tail-latency analysis they support."""

import random

import pytest

from repro.sim import LatencyHistogram, Machine, MachineConfig, Scheme


class TestHistogram:
    def test_record_and_total(self):
        hist = LatencyHistogram()
        for latency in (3.0, 15.0, 100.0):
            hist.record(latency)
        assert hist.total == 3
        assert hist.mean_ns == pytest.approx((3 + 15 + 100) / 3)
        assert hist.max_ns == 100.0

    def test_percentiles_monotone(self):
        hist = LatencyHistogram()
        for i in range(100):
            hist.record(float(i * 10))
        assert hist.percentile(50) <= hist.percentile(90) <= hist.percentile(99)

    def test_overflow_bucket(self):
        hist = LatencyHistogram(edges=[10.0, 20.0])
        hist.record(1e6)
        assert hist.counts[-1] == 1
        assert hist.percentile(100) == 1e6

    def test_percentile_validation(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_empty_percentile(self):
        assert LatencyHistogram().percentile(99) == 0.0

    def test_negative_latency_rejected(self):
        # Regression: negative samples used to land silently in the
        # first bucket, hiding timing-math bugs upstream.
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1.0)
        assert hist.total == 0

    def test_nan_latency_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(float("nan"))
        assert hist.total == 0

    def test_zero_latency_still_recorded(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        assert hist.total == 1 and hist.counts[0] == 1

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(edges=[20.0, 10.0])
        with pytest.raises(ValueError):
            LatencyHistogram(edges=[])

    def test_as_dict_keys(self):
        hist = LatencyHistogram()
        hist.record(50.0)
        d = hist.as_dict()
        assert set(d) == {"total", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"}

    def test_record_many_equals_record_per_sample(self):
        rng = random.Random(7)
        samples = [rng.expovariate(1 / 300.0) for _ in range(2000)]
        samples += [0.0, 5.0, 10.0, 10240.0, 1e6]  # edges and overflow
        rng.shuffle(samples)
        # A naive left-to-right sum drops these ones; a compensated or
        # reordered sum would not.
        samples += [1e16, 1.0, 1.0, 1.0]
        one, bulk = LatencyHistogram(), LatencyHistogram()
        one.record(42.0)
        bulk.record(42.0)
        for sample in samples:
            one.record(sample)
        bulk.record_many(samples)
        assert bulk.counts == one.counts
        assert (bulk.total, bulk.sum_ns, bulk.max_ns) == (one.total, one.sum_ns, one.max_ns)
        assert bulk.as_dict() == one.as_dict()

    def test_record_many_of_nothing_changes_nothing(self):
        hist = LatencyHistogram()
        hist.record_many([])
        assert hist.as_dict() == LatencyHistogram().as_dict()

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_record_many_rejects_before_counting(self, bad):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="non-negative"):
            hist.record_many([3.0, bad, 5.0])
        assert hist.total == 0 and not any(hist.counts)


class TestMachineIntegration:
    def _run(self, scheme):
        machine = Machine(MachineConfig(scheme=scheme))
        machine.add_user(uid=1000, gid=100, passphrase="p")
        hist = machine.attach_histogram()
        handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=16)
        for i in range(0, 16 * 4096, 96):
            machine.load(base + i, 8)
        return hist

    def test_one_sample_per_line_access(self):
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR))
        machine.add_user(uid=1000, gid=100, passphrase="p")
        hist = machine.attach_histogram()
        handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=1)
        machine.load(base, 8)  # one line
        machine.load(base, 128)  # two lines
        assert hist.total == 3

    def test_detached_by_default(self):
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR))
        assert machine.latency_histogram is None

    def test_fsencr_fattens_the_tail_not_the_median(self):
        """The distribution-level story: FsEncr's extra metadata misses
        live in the tail; the common case (cache hits) is untouched."""
        baseline = self._run(Scheme.BASELINE_SECURE)
        fsencr = self._run(Scheme.FSENCR)
        assert fsencr.percentile(50) <= baseline.percentile(50) * 1.5
        assert fsencr.mean_ns >= baseline.mean_ns * 0.95
