"""EXPERIMENTS.md's Figures 8-15 tables agree with the committed results.

Every numeric cell of those tables is compared, at its printed
precision, with ``benchmarks/results/*.json`` (which ``pytest
benchmarks`` regenerates).  Footnoted ``≈ 0`` and ``∞`` cells stand for
values the table cannot print and are skipped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"
FOOTNOTE_MARKS = "¹²³⁴⁵⁶⁷⁸⁹⁰"


def table_after(heading: str) -> List[List[str]]:
    """Header and body rows of the first markdown table under ``## heading``."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = text.index(f"\n## {heading}") + 1
    rows = []
    for line in text[start:].splitlines()[1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    assert len(rows) > 2, f"no table under '{heading}'"
    return [rows[0]] + rows[2:]  # drop the |---| rule


def assert_cell(cell: str, value: float, where: str) -> None:
    """Compare one printed cell with its value at the printed precision."""
    cell = cell.strip("*").rstrip(FOOTNOTE_MARKS)
    if cell.startswith(("≈", "∞")):
        return
    decimals = len(cell.split(".")[1]) if "." in cell else 0
    assert cell == f"{value:.{decimals}f}", f"{where}: table says {cell}, results say {value}"


@pytest.mark.parametrize(
    "heading, results",
    [
        ("Figures 8–10", "fig08_09_10.json"),
        ("Figure 11", "fig11.json"),
        ("Figures 12–14", "fig12_13_14.json"),
    ],
)
def test_slowdown_tables_match_results(heading, results):
    payload = json.loads((RESULTS / results).read_text(encoding="utf-8"))
    rows: Dict[str, dict] = {row["workload"]: row for row in payload["rows"]}
    seen = set()
    for name, slowdown, writes, reads in table_after(heading)[1:]:
        if name == "**mean**":
            assert_cell(slowdown, payload["mean_slowdown"], f"{heading} mean")
            continue
        row = rows[name]
        seen.add(name)
        for cell, key in (
            (slowdown, "slowdown"),
            (writes, "normalized_writes"),
            (reads, "normalized_reads"),
        ):
            assert_cell(cell, row[key], f"{heading} {name} {key}")
    assert seen == set(rows)


def test_figure15_table_matches_results():
    payload = json.loads((RESULTS / "fig15.json").read_text(encoding="utf-8"))["curves"]
    header, *body = table_after("Figure 15")
    sizes = [str(int(column.split()[0]) * 1024) for column in header[1:]]  # "2 KB"
    seen = set()
    for name, *cells in body:
        seen.add(name)
        assert sorted(payload[name], key=int) == sizes
        for cell, size in zip(cells, sizes):
            assert_cell(cell, payload[name][size], f"Figure 15 {name} {size} B")
    assert seen == set(payload)
