"""Report rendering: ASCII charts and the aggregate results digest.

The benchmark harness saves each figure's data to
``benchmarks/results/*.json``; :func:`aggregate_report` folds them into
one EXPERIMENTS-style text digest, and :func:`bar_chart` renders any
label->value series as the terminal-friendly bars used throughout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

__all__ = ["bar_chart", "aggregate_report"]


def bar_chart(
    series: Mapping[str, float],
    title: str = "",
    width: int = 48,
    unit: str = "x",
    baseline: Optional[float] = None,
) -> str:
    """Render a horizontal ASCII bar chart.

    ``baseline`` draws a reference tick (e.g. 1.0 for normalized
    figures) so "how far above baseline" reads at a glance.
    """
    if not series:
        return f"{title}\n(no data)"
    longest_label = max(len(label) for label in series)
    peak = max(max(series.values()), baseline or 0.0, 1e-12)
    lines: List[str] = [title] if title else []
    for label, value in series.items():
        filled = max(0, round(value / peak * width))
        bar = "#" * filled
        if baseline is not None and 0 < baseline <= peak:
            tick = min(width - 1, round(baseline / peak * width))
            bar = bar.ljust(width)
            marker = "|" if filled <= tick else "+"
            bar = bar[:tick] + marker + bar[tick + 1 :]
            bar = bar.rstrip()
        lines.append(f"{label:<{longest_label}}  {bar} {value:.3f}{unit}")
    return "\n".join(lines)


def _rows_chart(payload: Dict, attr: str, title: str, baseline: float) -> str:
    series = {row["workload"]: row[attr] for row in payload.get("rows", [])}
    return bar_chart(series, title=title, baseline=baseline)


def aggregate_report(results_dir: Path) -> str:
    """Fold every saved ``benchmarks/results/*.json`` into one digest."""
    results_dir = Path(results_dir)
    sections: List[str] = ["FsEncr reproduction — aggregate results", "=" * 44]

    fig3 = results_dir / "fig03.json"
    if fig3.exists():
        payload = json.loads(fig3.read_text())
        sections.append(
            _rows_chart(payload, "slowdown",
                        "Figure 3 — software encryption slowdown (vs ext4-dax)", 1.0)
        )
        sections.append(f"mean: {payload.get('mean_slowdown', 0):.2f}x  (paper ~2.7x)\n")

    fig8 = results_dir / "fig08_09_10.json"
    if fig8.exists():
        payload = json.loads(fig8.read_text())
        sections.append(
            _rows_chart(payload, "slowdown",
                        "Figures 8-10 — PMEMKV slowdown (FsEncr vs baseline)", 1.0)
        )
        sections.append(f"mean: {payload.get('mean_slowdown', 0):.3f}x\n")

    fig11 = results_dir / "fig11.json"
    if fig11.exists():
        payload = json.loads(fig11.read_text())
        sections.append(
            _rows_chart(payload, "slowdown",
                        "Figure 11 — Whisper slowdown (FsEncr vs baseline)", 1.0)
        )
        sections.append(f"mean: {payload.get('mean_slowdown', 0):.3f}x  (paper ~1.038x)\n")

    fig12 = results_dir / "fig12_13_14.json"
    if fig12.exists():
        payload = json.loads(fig12.read_text())
        sections.append(
            _rows_chart(payload, "slowdown",
                        "Figures 12-14 — synthetic micro slowdown", 1.0)
        )
        sections.append(f"mean: {payload.get('mean_slowdown', 0):.3f}x  (paper ~1.20x)\n")

    fig15 = results_dir / "fig15.json"
    if fig15.exists():
        curves = json.loads(fig15.read_text())["curves"]
        sections.append("Figure 15 — slowdown (%) vs metadata cache size")
        for name, curve in curves.items():
            ordered = {f"{int(size) // 1024}KB": value for size, value in sorted(
                curve.items(), key=lambda kv: int(kv[0])
            )}
            sections.append(bar_chart(ordered, title=f"  {name}", unit="%"))
        sections.append("")

    table1 = results_dir / "table1.txt"
    if table1.exists():
        sections.append(table1.read_text())

    if len(sections) == 2:
        sections.append("(no results found — run `pytest benchmarks/ --benchmark-only` first)")
    return "\n".join(sections)
