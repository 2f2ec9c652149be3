"""Experiment harnesses: one function per paper table/figure.

Each ``figure_*`` function runs the workloads that figure plots, under
the schemes it compares, and returns a :class:`~repro.sim.results
.ResultTable` whose rows are the figure's bars.  The benchmark suite
wraps these functions with pytest-benchmark; EXPERIMENTS.md records
their output against the paper's reported numbers.

Every figure is a grid of independent cells, so each driver builds one
:class:`~repro.exec.Cell` per workload — a :func:`compare_schemes` call
— and executes them through an :class:`~repro.exec.ExperimentRunner`:
pass a ``runner`` built with ``jobs=N`` to fan the grid out over worker
processes (docs/RUNNER.md).
The default is the serial in-process path, bit-identical to any
``jobs`` setting.

Op counts are scaled for Python-speed runs (see ``SCALE_FACTOR`` in
``repro.sim.config``); pass larger ``ops``/``iterations`` to push
fidelity at the price of wall-clock time.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec import Cell, ExperimentRunner, resolve_workload
from ..sim.config import MachineConfig
from ..sim.results import ResultTable
from ..sim.schemes import (
    SchemeRef,
    canonical_scheme_name,
    comparison_pair,
    motivation_pair,
)
from ..workloads.base import compare_schemes
from ..workloads.dax_micro import DAX_MICRO_BENCHMARKS
from ..workloads.pmemkv import PMEMKV_BENCHMARKS
from ..workloads.whisper import WHISPER_BENCHMARKS

__all__ = [
    "figure3_software_encryption",
    "figure8_to_10_pmemkv",
    "figure11_whisper",
    "figure12_to_14_micro",
    "figure15_cache_sensitivity",
    "DEFAULT_PMEMKV_OPS",
    "DEFAULT_WHISPER_OPS",
    "DEFAULT_MICRO_ITERS",
]

DEFAULT_PMEMKV_OPS = 600
DEFAULT_WHISPER_OPS = 1500
DEFAULT_MICRO_ITERS = 8000


def _compare_cell(
    name: str,
    config: MachineConfig,
    schemes: Tuple[str, ...],
    ops: int = 0,
    iterations: int = 0,
) -> Cell:
    """One workload under every scheme column (registry names)."""
    factory = resolve_workload(name, ops=ops, iterations=iterations)
    return Cell(
        f"{name}({'/'.join(schemes)})", partial(compare_schemes, factory, config, schemes)
    )


def _comparison_cells(
    benchmarks: Sequence[str],
    config: Optional[MachineConfig],
    schemes: Tuple[str, ...],
    ops: int = 0,
    iterations: int = 0,
) -> List[Cell]:
    """One compare cell per benchmark."""
    base = config or MachineConfig()
    return [_compare_cell(name, base, schemes, ops, iterations) for name in benchmarks]


def _comparison_table(
    title: str,
    cells: Sequence[Cell],
    baseline: str,
    scheme: str,
    runner: Optional[ExperimentRunner],
) -> ResultTable:
    """Run the cells (serially when no runner is given, so importing a
    figure function never forks workers) and tabulate the pair."""
    table = ResultTable(title)
    for comparison in (runner or ExperimentRunner(jobs=1)).run(cells):
        table.add(comparison.against(baseline, scheme))
    return table


def figure3_software_encryption(
    config: Optional[MachineConfig] = None,
    ops: int = DEFAULT_WHISPER_OPS,
    *,
    runner: Optional[ExperimentRunner] = None,
) -> ResultTable:
    """Figure 3: eCryptfs-style software encryption vs plain ext4-dax.

    Paper result: ~2.7x average slowdown over the three Whisper
    benchmarks, YCSB worst at ~5x.
    """
    plain_ref, software_ref = motivation_pair()
    cells = _comparison_cells(
        [name for name, _cls in WHISPER_BENCHMARKS],
        config,
        (plain_ref, software_ref),
        ops=ops,
    )
    return _comparison_table(
        "Figure 3: software filesystem encryption overhead",
        cells,
        plain_ref,
        software_ref,
        runner,
    )


def figure8_to_10_pmemkv(
    config: Optional[MachineConfig] = None,
    ops: int = DEFAULT_PMEMKV_OPS,
    *,
    runner: Optional[ExperimentRunner] = None,
) -> ResultTable:
    """Figures 8 (slowdown), 9 (writes), 10 (reads): PMEMKV under FsEncr.

    One run per benchmark produces all three series; the table's columns
    are exactly the three figures.  Paper result: small slowdowns,
    write benchmarks > read benchmarks, -L > -S on metadata locality.
    """
    baseline, contribution = comparison_pair()
    cells = _comparison_cells(
        [name for name, _cls, _size in PMEMKV_BENCHMARKS],
        config,
        (baseline, contribution),
        ops=ops,
    )
    return _comparison_table(
        "Figures 8-10: PMEMKV, FsEncr vs baseline security",
        cells,
        baseline,
        contribution,
        runner,
    )


def figure11_whisper(
    config: Optional[MachineConfig] = None,
    ops: int = DEFAULT_WHISPER_OPS,
    *,
    runner: Optional[ExperimentRunner] = None,
) -> ResultTable:
    """Figure 11 (a/b/c): Whisper slowdown/writes/reads under FsEncr.

    Paper result: ~3.8% average slowdown across persistent benchmarks;
    YCSB slightly higher overhead than Hashmap/CTree due to file-access
    intensity; a 98.33% reduction versus software encryption.
    """
    baseline, contribution = comparison_pair()
    cells = _comparison_cells(
        [name for name, _cls in WHISPER_BENCHMARKS],
        config,
        (baseline, contribution),
        ops=ops,
    )
    return _comparison_table(
        "Figure 11: Whisper, FsEncr vs baseline security",
        cells,
        baseline,
        contribution,
        runner,
    )


def figure12_to_14_micro(
    config: Optional[MachineConfig] = None,
    iterations: int = DEFAULT_MICRO_ITERS,
    *,
    runner: Optional[ExperimentRunner] = None,
) -> ResultTable:
    """Figures 12-14: adversarial synthetic micro-benchmarks.

    Paper result: ~20% average slowdown; DAX-2 > DAX-1 (poorer counter
    amortisation at the larger stride); swap micros show elevated reads
    from random-placement metadata misses.
    """
    baseline, contribution = comparison_pair()
    cells = _comparison_cells(
        [name for name, _cls in DAX_MICRO_BENCHMARKS],
        config,
        (baseline, contribution),
        iterations=iterations,
    )
    return _comparison_table(
        "Figures 12-14: DAX micro-benchmarks, FsEncr vs baseline",
        cells,
        baseline,
        contribution,
        runner,
    )


#: Figure 15's x-axis.  The paper sweeps 128 KB - 2 MB against workloads
#: holding GBs of KV data; what matters for the shape is the sweep
#: spanning "cache much smaller than the hot metadata" to "cache holds
#: it all".  Our scaled workloads carry ~10-50 KB of hot metadata, so
#: the equivalent sweep is 2 KB - 32 KB.
FIG15_CACHE_SIZES = [2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024]

#: One representative per benchmark family, as in the paper.
FIG15_WORKLOADS = ["Fillrandom-L", "Hashmap", "DAX-2"]


def figure15_cache_sensitivity(
    config: Optional[MachineConfig] = None,
    cache_sizes: Optional[List[int]] = None,
    pmemkv_ops: int = DEFAULT_PMEMKV_OPS,
    whisper_ops: int = DEFAULT_WHISPER_OPS,
    micro_iters: int = DEFAULT_MICRO_ITERS,
    *,
    scheme: Optional[SchemeRef] = None,
    workloads: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, Dict[int, float]]:
    """Figure 15: slowdown (%) vs metadata-cache size.

    Returns ``{workload: {cache_bytes: slowdown_percent}}``.  Paper
    result: real workloads improve markedly with cache size; the
    synthetic DAX-2 improves only slightly (it has little reuse for any
    cache to capture).  The (workload x cache size) grid runs as one
    cell batch, so ``--jobs`` parallelises across both axes at once.

    ``scheme`` selects the measured column (default: the registry's
    contribution role, i.e. ``"fsencr"``); any registered FsEncr variant
    works — ``"fsencr+partitioned"`` plots the same sweep with the
    metadata cache statically partitioned per kind.  The baseline column
    stays the registry's baseline role, so variant curves remain
    comparable with the default ones.
    """
    base_config = config or MachineConfig()
    sizes = cache_sizes or FIG15_CACHE_SIZES
    names = list(workloads) if workloads is not None else list(FIG15_WORKLOADS)
    baseline, contribution = comparison_pair()
    measured = canonical_scheme_name(scheme) if scheme is not None else contribution
    schemes = (baseline, measured)

    def cell_for(name: str, size: int) -> Cell:
        ops = 0
        iterations = 0
        if name == "Fillrandom-L":
            ops = pmemkv_ops
        elif name == "Hashmap":
            ops = whisper_ops
        elif name == "DAX-2":
            iterations = micro_iters
        else:
            raise KeyError(name)
        config = base_config.with_metadata_cache(size)
        return _compare_cell(name, config, schemes, ops, iterations)

    grid = [(name, size) for name in names for size in sizes]
    results = (runner or ExperimentRunner(jobs=1)).run(
        [cell_for(name, size) for name, size in grid]
    )

    curves: Dict[str, Dict[int, float]] = {name: {} for name in names}
    for (name, size), comparison in zip(grid, results):
        curves[name][size] = comparison.against(baseline, measured).overhead_percent
    return curves


def render_sensitivity(curves: Dict[str, Dict[int, float]]) -> str:
    """Text rendering of the Figure 15 curves."""
    sizes = sorted({size for curve in curves.values() for size in curve})
    header = "metadata cache   " + "".join(f"{s // 1024:>7}KB" for s in sizes)
    lines = ["Figure 15: slowdown (%) vs metadata cache size", header, "-" * len(header)]
    for name, curve in curves.items():
        lines.append(
            f"{name:<17}" + "".join(f"{curve.get(s, float('nan')):>9.2f}" for s in sizes)
        )
    return "\n".join(lines)
