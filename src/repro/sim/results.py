"""Run records and the normalisation the paper's figures apply.

Every benchmark run produces a :class:`RunResult`; figure harnesses pair
a run with its baseline run and derive the three series the paper plots
everywhere: slowdown, normalized NVM writes, normalized NVM reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["RunResult", "Comparison", "ResultTable", "run_provenance"]


def run_provenance(runner) -> Dict:
    """The ``extra`` block every saved-results JSON carries: one
    ``"runner"`` key holding the runner's stats.

    Everything nests under ``"runner"`` deliberately — consumers that
    diff two result files for payload equality pop that one key (CI
    does exactly this for its cold-vs-warm check).
    """
    return {"runner": runner.last_stats.to_dict()}


@dataclass
class RunResult:
    """One (workload, scheme) execution."""

    workload: str
    scheme: str
    elapsed_ns: float
    nvm_reads: int
    nvm_writes: int
    stats: Dict[str, float] = field(default_factory=dict)

    def stat(self, key: str) -> float:
        """Strict stats lookup: raises on an unknown key.

        ``stats.get(key, 0)`` silently reads 0 when a counter is renamed
        or never registered, which turns a broken benchmark into a
        plausible-looking figure.  Benchmark-visible counters are
        eagerly declared by the controllers, so "absent" always means
        "misspelled or wired to the wrong scheme" — fail loudly.
        """
        try:
            return self.stats[key]
        except KeyError:
            prefix = key.rsplit(".", 1)[0]
            nearby = sorted(k for k in self.stats if k.startswith(prefix + "."))
            hint = f"; keys under {prefix!r}: {', '.join(nearby)}" if nearby else ""
            raise KeyError(
                f"unknown stat {key!r} for {self.workload}/{self.scheme}{hint}"
            ) from None

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "elapsed_ns": self.elapsed_ns,
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
            "stats": self.stats,
        }


@dataclass(frozen=True)
class Comparison:
    """A run normalised to its baseline — one bar in a paper figure."""

    workload: str
    scheme: str
    slowdown: float
    normalized_writes: float
    normalized_reads: float

    @property
    def overhead_percent(self) -> float:
        return (self.slowdown - 1.0) * 100.0

    @staticmethod
    def of(run: RunResult, baseline: RunResult) -> "Comparison":
        if run.workload != baseline.workload:
            raise ValueError(
                f"comparing different workloads: {run.workload} vs {baseline.workload}"
            )
        if not baseline.elapsed_ns > 0:
            # A baseline that took no time normalises nothing: its
            # "slowdown" would be 0.0 or inf whatever the scheme did.
            raise ValueError(
                f"baseline {baseline.scheme} ran {baseline.workload} in "
                f"{baseline.elapsed_ns} ns; slowdown needs elapsed time"
            )

        # Read-only micro-benchmarks write nothing under either scheme,
        # so 0/0 traffic ratios read as 0.0.
        def ratio(a: float, b: float) -> float:
            if b == 0:
                return 0.0 if a == 0 else float("inf")
            return a / b

        return Comparison(
            workload=run.workload,
            scheme=run.scheme,
            slowdown=ratio(run.elapsed_ns, baseline.elapsed_ns),
            normalized_writes=ratio(run.nvm_writes, baseline.nvm_writes),
            normalized_reads=ratio(run.nvm_reads, baseline.nvm_reads),
        )


class ResultTable:
    """Accumulates comparisons and renders the paper-style text table."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.rows: List[Comparison] = []

    def add(self, comparison: Comparison) -> None:
        self.rows.append(comparison)

    def geometric_mean(self, attr: str = "slowdown") -> float:
        values = [getattr(row, attr) for row in self.rows]
        finite = [v for v in values if v > 0 and v != float("inf")]
        if not finite:
            return 0.0
        product = 1.0
        for value in finite:
            product *= value
        return product ** (1.0 / len(finite))

    def mean(self, attr: str = "slowdown") -> float:
        values = [getattr(row, attr) for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        header = f"{'workload':<18}{'scheme':<22}{'slowdown':>10}{'writes':>10}{'reads':>10}"
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.workload:<18}{row.scheme:<22}"
                f"{row.slowdown:>10.3f}{row.normalized_writes:>10.3f}{row.normalized_reads:>10.3f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'average':<40}{self.mean('slowdown'):>10.3f}"
            f"{self.mean('normalized_writes'):>10.3f}{self.mean('normalized_reads'):>10.3f}"
        )
        return "\n".join(lines)

    def save_json(self, path: Path, extra: Optional[Dict] = None) -> None:
        payload = {
            "title": self.title,
            "rows": [row.__dict__ for row in self.rows],
            "mean_slowdown": self.mean("slowdown"),
        }
        if extra:
            payload.update(extra)
        Path(path).write_text(json.dumps(payload, indent=2))
