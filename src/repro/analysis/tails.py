"""Tail-latency analysis: where FsEncr's cost actually lives.

Mean slowdown (the paper's headline metric) averages FsEncr's overhead
across millions of cheap cache hits.  The distribution view is sharper:
the median access is untouched (pads hide under the data fetch), while
the tail fattens — a metadata-cache miss serialises a counter fetch, a
Merkle walk, and possibly an OTT probe in front of the data.

:func:`tail_latency_comparison` runs one workload under multiple
schemes with per-access histograms attached and returns the percentile
summaries; the companion benchmark asserts the "fat tail, flat median"
signature.

The load-curve half puts *offered load* on the x-axis: a stream mix is
run through the concurrent-traffic service model
(:mod:`repro.sim.service`), calibrated closed-loop to find the mix's
sustainable throughput, then swept open-loop at fractions of it.
:func:`load_curve` returns throughput and strict response-time
percentiles (p50/p99/p999) per load point, with the shared queues'
delay stats — the throughput-vs-tail trade-off figure the paper never
had.

Percentiles here are *strict*: :func:`strict_percentile` raises
``ValueError`` on empty or under-resolved sample sets (you cannot read
a p99 off 40 samples) instead of silently interpolating — the same
loud-not-wrong policy as ``LatencyHistogram.record``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..sim.config import MachineConfig
from ..sim.histograms import LatencyHistogram
from ..sim.machine import Machine
from ..sim.schemes import SchemeRef, canonical_scheme_name, get_scheme
from ..workloads.base import Workload

__all__ = [
    "tail_latency_comparison",
    "render_tails",
    "strict_percentile",
    "percentile_summary",
    "load_curve",
    "p99_monotone",
    "render_load_curve",
]


def tail_latency_comparison(
    workload_factory: Callable[[], Workload],
    config: Optional[MachineConfig] = None,
    schemes: Iterable[SchemeRef] = ("baseline_secure", "fsencr"),
) -> Dict[str, Dict[str, float]]:
    """Per-scheme access-latency percentile summaries for one workload.

    ``schemes`` entries are scheme names (enums accepted); each name's
    spec projects the shared base config onto its column.  Returns
    ``{scheme_name: {total, mean_ns, p50_ns, p90_ns, p99_ns, max_ns}}``.
    """
    base_config = config or MachineConfig()
    summaries: Dict[str, Dict[str, float]] = {}
    for scheme in schemes:
        scheme_name = canonical_scheme_name(scheme)
        machine = Machine(get_scheme(scheme_name).configure(base_config))
        histogram = machine.attach_histogram(name=scheme_name)
        workload = workload_factory()
        workload.setup(machine)
        workload.run(machine)
        summaries[scheme_name] = histogram.as_dict()
    return summaries


# ----------------------------------------------------------------------
# Strict percentiles
# ----------------------------------------------------------------------


def _required_samples(p: float) -> int:
    """Minimum sample count that can resolve the p-th percentile.

    Reading pX needs at least one sample *above* the percentile rank —
    ``ceil(100 / (100 - p))`` of them (p99 → 100, p99.9 → 1000); p100
    (the max) is resolvable from a single sample.
    """
    if not 0.0 < p <= 100.0:
        raise ValueError(f"p must be in (0, 100], got {p!r}")
    if p == 100.0:
        return 1
    # Rounded before ceil so float noise cannot inflate the bound
    # (100/0.1 evaluates to 1000.0000000000001, not 1000).
    return math.ceil(round(100.0 / (100.0 - p), 9))


def strict_percentile(samples: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile; loud on under-resolved inputs.

    Raises ``ValueError`` for an empty sample set or one with fewer
    samples than the requested percentile can resolve, instead of
    returning a silently-interpolated value (the same strict-not-silent
    policy as ``LatencyHistogram.record``).
    """
    required = _required_samples(p)
    n = len(samples)
    if n == 0:
        raise ValueError(f"cannot take p{p:g} of an empty sample set")
    if n < required:
        raise ValueError(
            f"p{p:g} needs at least {required} samples to resolve, got {n}"
        )
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * n)
    return ordered[rank - 1]


def percentile_summary(
    samples: Sequence[float], ps: Sequence[float] = (50.0, 99.0, 99.9)
) -> Dict[str, float]:
    """``{"p50_ns": ..., "p99_ns": ..., "p99.9_ns": ...}`` plus mean/max."""
    summary = {f"p{p:g}_ns": strict_percentile(samples, p) for p in ps}
    summary["mean_ns"] = sum(samples) / len(samples)
    summary["max_ns"] = max(samples)
    return summary


# ----------------------------------------------------------------------
# Load-vs-percentile curves
# ----------------------------------------------------------------------

#: The open-loop arrival seed of every load point (recorded in the curve).
ARRIVAL_SEED = 0xA221


def load_curve(
    config: MachineConfig,
    mix: str,
    loads: Sequence[float] = (0.25, 0.5, 1.0),
    *,
    window: int = 1,
    ops: int = 0,
    percentiles: Sequence[float] = (50.0, 99.0, 99.9),
) -> Dict:
    """Sweep offered load for one stream mix under one config.

    The mix is first run closed-loop (MLP ``window``) to calibrate its
    sustainable aggregate throughput; each requested ``load`` is that
    fraction of it, realised as an open-loop seeded exponential arrival
    process (the same seed across loads, so the underlying uniform
    sequence — and hence the curve — is smooth and deterministic).
    Returns a JSON-safe dict with the calibration run and one point per
    load carrying throughput, strict percentiles of the pooled
    response-time samples, and both shared queues' delay stats.
    """
    from dataclasses import replace

    from ..sim.service import ClosedLoop, OpenLoop, run_service
    from ..workloads.base import parse_stream_mix, stream_factories

    if not loads:
        raise ValueError("load_curve needs at least one load point")
    if any(not load > 0.0 for load in loads):
        raise ValueError(f"loads must be positive, got {list(loads)!r}")

    specs = parse_stream_mix(mix)
    if ops:
        specs = tuple(replace(spec, ops=ops) for spec in specs)
    factories = stream_factories(specs)
    streams = len(factories)
    calibration = run_service(
        config, [factory() for factory in factories], ClosedLoop(window=window)
    )
    if not calibration.measured_ops or calibration.makespan_ns <= 0.0:
        raise ValueError(
            f"mix {mix!r} produced no measured window to calibrate against"
        )
    # Aggregate sustainable rate (ops/ns) with every stream backlogged.
    capacity = calibration.measured_ops / calibration.makespan_ns

    points: List[Dict] = []
    for load in loads:
        interarrival = streams / (capacity * load)
        result = run_service(
            config,
            [factory() for factory in factories],
            OpenLoop(interarrival_ns=interarrival, seed=ARRIVAL_SEED),
        )
        point = {
            "load": load,
            "interarrival_ns": interarrival,
            "measured_ops": result.measured_ops,
            "throughput_ops_per_s": result.throughput_ops_per_s,
            "mc_queue": result.mc_queue,
            "ott_queue": result.ott_queue,
            "interleave_digest": result.interleave_digest,
        }
        point.update(percentile_summary(result.samples, percentiles))
        points.append(point)

    return {
        "mix": mix,
        "scheme": config.scheme.value,
        "streams": streams,
        "window": window,
        "arrival_seed": ARRIVAL_SEED,
        "calibration": {
            "measured_ops": calibration.measured_ops,
            "makespan_ns": calibration.makespan_ns,
            "throughput_ops_per_s": calibration.throughput_ops_per_s,
            "interleave_digest": calibration.interleave_digest,
        },
        "points": points,
    }


def p99_monotone(points: Sequence[Dict]) -> bool:
    """Whether p99 is non-decreasing in offered load."""
    ordered = sorted(points, key=lambda point: point["load"])
    p99s = [point["p99_ns"] for point in ordered]
    return all(b >= a for a, b in zip(p99s, p99s[1:]))


def render_load_curve(curves: Dict[str, Dict]) -> str:
    """ASCII table of per-scheme load curves (``{scheme: load_curve()}``)."""
    header = (
        f"{'scheme':<22}{'load':>6}{'tput(op/s)':>13}{'p50':>9}"
        f"{'p99':>11}{'p99.9':>11}{'mc wait':>9}"
    )
    lines = ["Throughput vs tail latency (response times, ns)", header,
             "-" * len(header)]
    for scheme, curve in curves.items():
        for point in curve["points"]:
            lines.append(
                f"{scheme:<22}{point['load']:>6.2f}"
                f"{point['throughput_ops_per_s']:>13.3e}"
                f"{point['p50_ns']:>9.1f}{point['p99_ns']:>11.1f}"
                f"{point['p99.9_ns']:>11.1f}"
                f"{point['mc_queue']['mean_wait_ns']:>9.2f}"
            )
    return "\n".join(lines)


def render_tails(summaries: Dict[str, Dict[str, float]]) -> str:
    header = f"{'scheme':<22}{'n':>9}{'mean':>9}{'p50':>8}{'p90':>8}{'p99':>9}{'max':>9}"
    lines = ["Per-access latency distribution (ns)", header, "-" * len(header)]
    for scheme, summary in summaries.items():
        lines.append(
            f"{scheme:<22}{summary['total']:>9.0f}{summary['mean_ns']:>9.1f}"
            f"{summary['p50_ns']:>8.0f}{summary['p90_ns']:>8.0f}"
            f"{summary['p99_ns']:>9.0f}{summary['max_ns']:>9.0f}"
        )
    return "\n".join(lines)
