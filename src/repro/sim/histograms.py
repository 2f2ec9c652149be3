"""Latency histograms: distribution-level visibility into the model.

Mean slowdown hides the paper's most interesting effects — a metadata
miss turns one access from ~20 ns into ~500 ns, which averages away but
dominates tail latency.  :class:`LatencyHistogram` buckets per-access
latencies logarithmically and reports percentiles, so analyses can show
*where* FsEncr's cost lives (it fattens the tail, not the median).

The machine records one sample per timing access when a histogram is
attached (off by default — recording is cheap, but nothing is free).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import partial, reduce
from itertools import filterfalse
from operator import add, le
from typing import Dict, List, Sequence

__all__ = ["LatencyHistogram"]

# Bucket edges in ns: sub-10ns cache hits up through multi-us software
# events, log-ish spacing.
_DEFAULT_EDGES = (
    5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0,
    1280.0, 2560.0, 5120.0, 10240.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates."""

    def __init__(self, name: str = "latency", edges: Sequence[float] = _DEFAULT_EDGES) -> None:
        if list(edges) != sorted(edges) or len(edges) < 1:
            raise ValueError("edges must be ascending and non-empty")
        self.name = name
        self.edges: List[float] = list(edges)
        # counts[i] covers (edges[i-1], edges[i]]; the final bucket is
        # the overflow (> edges[-1]).
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum_ns = 0.0
        self.max_ns = 0.0

    def record(self, latency_ns: float) -> None:
        # `not >= 0` catches NaN too; both used to land silently in the
        # first bin, masking timing-math bugs upstream.
        if not latency_ns >= 0.0:
            raise ValueError(f"latency must be non-negative, got {latency_ns!r}")
        index = bisect_right(self.edges, latency_ns)
        self.counts[index] += 1
        self.total += 1
        self.sum_ns += latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns

    def record_many(self, latencies: Sequence[float]) -> None:
        """:meth:`record` every sample of ``latencies``, in bulk.

        A NaN or negative sample raises before any sample is counted.
        The sum runs left to right, so the histogram ends bit-identical
        to one :meth:`record` call per sample, in order.
        """
        bad = next(filterfalse(partial(le, 0.0), latencies), None)
        if bad is not None:
            raise ValueError(f"latency must be non-negative, got {bad!r}")
        counts = self.counts
        for index, count in Counter(map(partial(bisect_right, self.edges), latencies)).items():
            counts[index] += count
        self.total += len(latencies)
        self.sum_ns = reduce(add, latencies, self.sum_ns)
        self.max_ns = max(self.max_ns, max(latencies, default=0.0))

    @property
    def mean_ns(self) -> float:
        return self.sum_ns / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Upper bucket edge containing the p-th percentile (0 < p <= 100).

        Bucketed estimate: exact enough for "p99 moved from the 80 ns
        bucket to the 640 ns bucket" statements, which is what the
        analyses assert.
        """
        if not 0 < p <= 100:
            raise ValueError("p must be in (0, 100]")
        if self.total == 0:
            return 0.0
        target = self.total * p / 100.0
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            if running >= target:
                if index < len(self.edges):
                    return self.edges[index]
                return self.max_ns
        return self.max_ns

    def as_dict(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "mean_ns": self.mean_ns,
            "p50_ns": self.percentile(50),
            "p90_ns": self.percentile(90),
            "p99_ns": self.percentile(99),
            "max_ns": self.max_ns,
        }
