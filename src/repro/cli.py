"""Command-line front end: regenerate any paper artefact from a shell.

Every command is its own subparser and accepts exactly the flags its
handler reads; any other flag is an argparse error (exit status 2).

    command                  flags (beyond -h)
    fig3  fig11              RUNNER --ops --json
    fig8 (= fig9, fig10)     RUNNER --ops --json
    fig12 (= fig13, fig14)   RUNNER --iters --json
    fig15                    RUNNER --ops --iters --scheme --json
    bench                    RUNNER --ops --iters
    all                      RUNNER --ops --iters
    quick                    RUNNER
    table1                   (none)
    report                   [RESULTS_DIR]  (default: benchmarks/results)
    crashsweep               RUNNER --ops --iters --json --workload --points
                             --seed --scheme --profile --drain-fraction
                             --torn-prob --torn-burst --bit-flips
                             --counter-flips
    batchcheck               --reps --json
    loadcurve                RUNNER --ops --json --streams --schemes
                             --loads --window

    RUNNER = --jobs

``bench`` runs the fig3/8/11/12/15 grids on one shared runner; ``all``
runs the same grids and then prints Table I.  ``quick`` is one fast
end-to-end sanity pass.  ``--jobs N`` fans a grid's cells over N worker
processes (default 1, serial; 0 = one per CPU; docs/RUNNER.md); the
first failed cell aborts the command.  Figure cells run through the
compiled-trace batch executor (docs/BATCH.md).  ``crashsweep`` runs the
full (scheme x fault-profile) matrix by default and exits with its
silent-corruption count; ``batchcheck`` exits with the number of
divergent cells, and ``loadcurve`` with the number of schemes whose p99
is not monotone in load.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

from .analysis import (
    figure3_software_encryption,
    figure8_to_10_pmemkv,
    figure11_whisper,
    figure12_to_14_micro,
    figure15_cache_sensitivity,
    render_sensitivity,
    render_table1,
    sensitivity_payload,
)
from .exec import Cell, ExperimentRunner, resolve_workload
from .faults.plan import FAULT_PROFILES, FaultPlan
from .sim.config import Scheme
from .sim.results import ResultTable, run_provenance
from .sim.schemes import (
    CRASH_MATRIX,
    canonical_scheme_name,
    get_scheme,
    scheme_names,
    secure_scheme_names,
)

__all__ = ["build_parser", "main"]


class UsageError(Exception):
    """A flag combination argparse cannot see is wrong; ``main`` turns it
    into ``parser.error`` (exit status 2)."""


def _make_runner(args) -> ExperimentRunner:
    """The runner the command's grids execute on; ``--jobs 0`` means one
    worker per CPU."""
    return ExperimentRunner(args.jobs or os.cpu_count() or 1)


def _show(text: str, runner: ExperimentRunner) -> None:
    """Print a grid's rendering and the runner's summary."""
    print(text)
    print(runner.last_stats.summary())
    print()


def _save(json_path: Optional[str], payload, runner: Optional[ExperimentRunner] = None) -> None:
    """Write a command's ``--json`` output, creating missing parent
    directories.  Grid commands pass their runner, whose provenance
    block rides under the ``"runner"`` key."""
    if not json_path:
        return
    path = Path(json_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    extra = run_provenance(runner) if runner is not None else {}
    if isinstance(payload, ResultTable):
        payload.save_json(path, extra=extra)
    else:
        path.write_text(json.dumps({**payload, **extra}, indent=2))
    print(f"saved: {json_path}")


class _Figure(NamedTuple):
    """A table-producing figure command."""

    help: str
    aliases: Tuple[str, ...]
    flag: str  # the sizing flag: "ops", or "iters" (the driver's iterations=)
    driver: Callable[..., ResultTable]


#: One run of fig8 produces all three PMEMKV series (Figures 8-10), one
#: run of fig12 all three micro-benchmark series (Figures 12-14).
_FIGURES = {
    "fig3": _Figure("software-encryption motivation", (), "ops", figure3_software_encryption),
    "fig8": _Figure("PMEMKV slowdown/writes/reads", ("fig9", "fig10"), "ops", figure8_to_10_pmemkv),
    "fig11": _Figure("Whisper slowdown/writes/reads", (), "ops", figure11_whisper),
    "fig12": _Figure(
        "synthetic micro-benchmarks", ("fig13", "fig14"), "iters", figure12_to_14_micro
    ),
}


def _figure(name: str, args, runner: ExperimentRunner, json_path: Optional[str]) -> None:
    figure = _FIGURES[name]
    size = vars(args)[figure.flag]
    keyword = "iterations" if figure.flag == "iters" else "ops"
    table = figure.driver(runner=runner, **({} if size is None else {keyword: size}))
    _show(table.render(), runner)
    _save(json_path, table, runner)


def _fig15(args, runner: ExperimentRunner, scheme: Optional[str], json_path: Optional[str]) -> None:
    sizes = {}
    if args.ops is not None:
        sizes.update(pmemkv_ops=args.ops, whisper_ops=args.ops * 3)
    if args.iters is not None:
        sizes.update(micro_iters=args.iters)
    curves = figure15_cache_sensitivity(scheme=scheme, runner=runner, **sizes)
    _show(render_sensitivity(curves), runner)
    _save(json_path, sensitivity_payload(curves), runner)


def _run_figure(name: str, args) -> None:
    _figure(name, args, _make_runner(args), args.json)


def _run_fig15(args) -> None:
    _fig15(args, _make_runner(args), args.scheme, args.json)


def _run_table1(args) -> None:
    print(render_table1())


def _run_report(args) -> None:
    from .analysis import aggregate_report

    results = Path(args.results)
    if not results.is_dir():
        raise UsageError(f"{results} is not a directory")
    print(aggregate_report(results))


def _run_quick(args) -> None:
    """A fast sanity pass: tiny versions of the headline comparisons."""
    runner = _make_runner(args)
    print(render_table1())
    print()
    for driver in (figure11_whisper, figure3_software_encryption):
        _show(driver(ops=400, runner=runner).render(), runner)


def _run_bench(args) -> None:
    """Every figure grid on one shared runner, closing with the
    runner's lifetime summary over all of them."""
    runner = _make_runner(args)
    for name in _FIGURES:
        _figure(name, args, runner, None)
    _fig15(args, runner, None, None)  # fig15's default measured column
    print(runner.lifetime.summary())


def _run_all(args) -> None:
    """``bench``'s grids, then Table I: every artefact in paper order."""
    _run_bench(args)
    print()
    print(render_table1())


#: Base plan for the fault flags ``--profile custom`` leaves unset: the
#: historical CLI plan (a mixed half-drain), not FaultPlan's all-drained
#: default.
_CUSTOM_PLAN = {
    "drain_fraction": 0.5,
    "torn_probability": 0.5,
    "torn_burst": 1,
    "bit_flips": 0,
    "counter_flips": 0,
}


def _run_crashsweep(args) -> int:
    """Crash-sweep the (scheme x fault-profile) matrix, audit every line.

    ``--scheme all`` runs every matrix column; any other scheme whose
    machine has a secure memory controller runs as that one column,
    matrix member or not.  ``--profile all`` runs every named fault
    profile; ``--profile custom`` builds one plan from the individual
    fault flags.  Exit code is the total silent-corruption count.
    """
    from .faults.sweep import matrix_configs, sweep_matrix

    knobs = {
        "drain_fraction": args.drain_fraction,
        "torn_probability": args.torn_prob,
        "torn_burst": args.torn_burst,
        "bit_flips": args.bit_flips,
        "counter_flips": args.counter_flips,
    }
    given = {key: value for key, value in knobs.items() if value is not None}
    profile = args.profile
    if given and profile == "all":
        # Individual plan flags imply a one-off plan; silently running
        # the named profiles instead would ignore what the user typed.
        profile = "custom"
    if profile == "custom":
        try:
            profiles = {"custom": FaultPlan(**{**_CUSTOM_PLAN, **given})}
        except ValueError as err:  # the plan's own range checks
            raise UsageError(str(err)) from None
    elif given:
        raise UsageError(
            f"--profile {profile!r} is a named profile; plan flags like "
            "--drain-fraction only apply with --profile custom (or all, "
            "which they override)"
        )
    elif profile == "all":
        profiles = dict(FAULT_PROFILES)
    else:
        profiles = {profile: FAULT_PROFILES[profile]}

    columns = matrix_configs(names=None if args.scheme == "all" else (args.scheme,))

    runner = _make_runner(args)
    matrix = sweep_matrix(
        args.workload,
        profiles=profiles,
        schemes=columns,
        max_points=args.points,
        seed=args.seed,
        name=args.workload,
        ops=args.ops or 0,
        iterations=args.iters or 0,
        runner=runner,
    )
    if matrix.cells and not any(cell.boundaries_total for cell in matrix.cells.values()):
        # Zero crash points audited: an "OK" here would be vacuous.
        raise UsageError(
            f"workload {args.workload!r} has no persist boundary to crash at; "
            "the sweep needs a workload that persists"
        )
    cells = sorted(matrix.cells.items())
    lines = [matrix.summary()]
    for (scheme_label, profile_name), cell in cells:
        for point in cell.points:
            lines.append(
                f"  [{scheme_label}/{profile_name}] op {point.op_index:>5}: "
                f"{point.dispositions} -> {point.outcomes}, "
                f"{point.trials} trials, {point.recovery_ns / 1000.0:.1f} us recovery"
            )
    _show("\n".join(lines), runner)
    _save(
        args.json,
        {
            "workload": matrix.workload,
            "seed": matrix.seed,
            "silent_corruptions": matrix.silent_corruptions,
            "cells": [
                {
                    "scheme": scheme_label,
                    "profile": profile_name,
                    "seed": cell.seed,
                    "boundaries_total": cell.boundaries_total,
                    "silent_corruptions": cell.silent_corruptions,
                    "outcomes": cell.outcome_totals(),
                    "points": [point.to_dict() for point in cell.points],
                }
                for (scheme_label, profile_name), cell in cells
            ],
        },
        runner,
    )
    if matrix.silent_corruptions:
        print(f"FAIL: {matrix.silent_corruptions} silent corruption(s)")
    else:
        print("OK: every cell's crash points detected or recovered")
    return matrix.silent_corruptions


#: The batchcheck grid is pinned: these exact (workload, scheme) cells,
#: at these sizes, are what the recorded speedup means.  The cells are
#: the DAX-capable schemes the check exists to gate.  The overlay
#: schemes (conventional, software_encryption) run on the plain
#: controller, so they also take the interpreter's fast path; the
#: equality assertions in the test suite cover them instead.
BATCHCHECK_CELLS = [
    ("DAX-1", "ext4dax_plain"),
    ("DAX-1", "fsencr"),
    ("Fillseq-S", "baseline_secure"),
    ("Fillseq-S", "fsencr"),
    ("Fillseq-S", "fsencr+wpq"),
    ("Fillseq-S", "fsencr+partitioned"),
    ("Hashmap", "baseline_secure"),
    ("Hashmap", "fsencr"),
    ("Hashmap", "fsencr+wpq"),
    ("Hashmap", "fsencr+partitioned"),
]

#: Each batchcheck workload's (size, seed); the size is the op count or,
#: for the DAX micro, the iteration count.
BATCHCHECK_WORKLOADS = {"DAX-1": (3000, 7), "Fillseq-S": (1200, 1234), "Hashmap": (3000, 99)}


def _run_batchcheck(args) -> int:
    """Prove the batch path on the pinned grid: every cell's payload must
    be bit-identical to per-access execution, and the sweep must beat it
    on throughput.  Timing is best-of-N per mode so a transient host
    stall cannot fake a regression (or an improvement); the digests come
    from the measured runs themselves.  Exit code is the number of
    divergent cells.
    """
    import hashlib
    import time

    from .exec.spec import canonical_json
    from .sim.batch import BatchRunner
    from .sim.config import MachineConfig
    from .workloads.base import run_workload

    reps = args.reps

    def sweep(use_batch: bool):
        runner = BatchRunner() if use_batch else None
        digests = {}
        start = time.perf_counter()
        for workload_name, scheme_name in BATCHCHECK_CELLS:
            size, seed = BATCHCHECK_WORKLOADS[workload_name]
            workload = resolve_workload(workload_name, ops=size, iterations=size, seed=seed)()
            config = get_scheme(scheme_name).configure(MachineConfig())
            if runner is not None:
                result = runner.run(config, workload)
            else:
                result = run_workload(config, workload)
            blob = canonical_json(result.to_dict())
            digests[f"{workload_name}/{scheme_name}"] = hashlib.sha256(
                blob.encode()
            ).hexdigest()
        return time.perf_counter() - start, digests

    direct_time, direct_digests = sweep(False)
    batch_time, batch_digests = sweep(True)
    for _ in range(reps - 1):
        direct_time = min(direct_time, sweep(False)[0])
        batch_time = min(batch_time, sweep(True)[0])

    mismatches = [
        cell for cell in direct_digests if direct_digests[cell] != batch_digests[cell]
    ]
    cells = len(BATCHCHECK_CELLS)
    per_access_rate = cells / direct_time
    batched_rate = cells / batch_time
    speedup = direct_time / batch_time

    print(f"batchcheck: {cells} pinned cells, best of {reps} run(s) per mode")
    for cell in sorted(direct_digests):
        status = "DIVERGED" if cell in mismatches else "ok"
        print(f"  {status:8s} {cell}  {direct_digests[cell][:16]}")
    print(f"  per-access: {per_access_rate:8.3f} cells/s")
    print(f"  batched:    {batched_rate:8.3f} cells/s")
    print(f"  speedup:    {speedup:8.2f}x")
    if mismatches:
        print(f"FAIL: {len(mismatches)} cell(s) diverged from the per-access path")
    else:
        print("OK: every batched payload is bit-identical to per-access")

    _save(
        args.json,
        {
            "cells": {
                cell: {"digest": direct_digests[cell], "match": cell not in mismatches}
                for cell in sorted(direct_digests)
            },
            "runner": {
                "mode": "batchcheck",
                "cells": cells,
                "reps": reps,
                "per_access_cells_per_s": per_access_rate,
                "batched_cells_per_s": batched_rate,
                "speedup": speedup,
                "digests_match": not mismatches,
            },
        },
    )
    return len(mismatches)


def _run_loadcurve(args) -> int:
    """Throughput-vs-tail curves for a concurrent stream mix.

    One loadcurve cell per scheme (so ``--jobs`` parallelises across
    schemes); each cell calibrates the mix closed-loop, then sweeps the
    offered loads open-loop through the shared memory-controller and
    OTT-port queues.
    Exit code is the number of schemes whose p99 is *not* monotonically
    non-decreasing in load — loud, because a non-monotone curve means
    the sweep is under-sampled for the mix.
    """
    from .analysis.tails import load_curve, p99_monotone, render_load_curve
    from .sim.config import MachineConfig

    loads = args.loads
    runner = _make_runner(args)
    cells = [
        Cell(
            f"{args.streams}[loadcurve {scheme}]",
            partial(
                load_curve,
                get_scheme(scheme).configure(MachineConfig()),
                args.streams,
                loads,
                window=args.window,
                ops=args.ops or 0,
            ),
        )
        for scheme in args.schemes
    ]
    curves = dict(zip(args.schemes, runner.run(cells)))

    monotone = {scheme: p99_monotone(curve["points"]) for scheme, curve in curves.items()}
    _show(render_load_curve(curves), runner)
    for scheme, ok in monotone.items():
        if ok:
            print(f"  p99 monotone in load: {scheme} ok")
        else:
            print(f"  p99 NOT monotone in load: {scheme}")
    _save(
        args.json,
        {
            "mix": args.streams,
            "loads": list(loads),
            "window": args.window,
            "curves": curves,
            "p99_monotone": monotone,
        },
        runner,
    )
    return sum(not ok for ok in monotone.values())


def _job_count(text: str) -> int:
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = one worker per CPU)")
    return jobs


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_floats(text: str) -> Tuple[float, ...]:
    """A comma-separated list of finite positive numbers."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    if not all(0.0 < value < math.inf for value in values):
        raise argparse.ArgumentTypeError(f"every value must be a finite number > 0: {text!r}")
    return values


def _scheme_columns(text: str) -> Tuple[str, ...]:
    """A comma-separated list of distinct known scheme names, in
    canonical spelling."""
    try:
        columns = tuple(canonical_scheme_name(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))
    if not columns:
        raise argparse.ArgumentTypeError(f"no scheme named: {text!r}")
    if len(set(columns)) < len(columns):
        raise argparse.ArgumentTypeError(f"a scheme column repeats: {text!r}")
    return columns


def _resolves(build: Callable[[str], object], text: str) -> str:
    """``text`` if ``build`` can make its workloads, checked before any
    cell runs; it stays text because cells carry workloads by name."""
    try:
        build(text)
    except (KeyError, ValueError) as err:
        raise argparse.ArgumentTypeError(str(err.args[0]))
    return text


def _stream_mix(text: str) -> str:
    """A stream mix whose every workload name resolves."""
    from .workloads.base import stream_factories

    return _resolves(stream_factories, text)


def _workload_name(text: str) -> str:
    """One workload name that resolves."""
    return _resolves(lambda name: resolve_workload(name)(), text)


def _parent() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False)


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI: one subparser per command, each holding only the
    flags its handler reads.  Shared flags are defined once, on the
    parent parsers below."""
    runner = _parent()
    runner.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        help="worker processes for grid cells (0 = one per CPU; default: 1, serial)",
    )
    ops = _parent()
    ops.add_argument("--ops", type=_positive_int, default=None, help="workload operation count")
    iters = _parent()
    iters.add_argument(
        "--iters", type=_positive_int, default=None, help="micro-benchmark iterations"
    )
    output = _parent()
    output.add_argument("--json", type=str, default=None, help="save the results to this path")
    sizing = {"ops": ops, "iters": iters}

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the FsEncr paper's tables and figures.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, handler, help, parents=(), **kwargs):
        sub = commands.add_parser(
            name, help=help, description=help, parents=list(parents), allow_abbrev=False, **kwargs
        )
        sub.set_defaults(func=handler)
        return sub

    for name, figure in _FIGURES.items():
        parents = [runner, sizing[figure.flag], output]
        handler = partial(_run_figure, name)
        command(name, handler, figure.help, parents, aliases=list(figure.aliases))
    fig15 = command(
        "fig15", _run_fig15, "metadata-cache sensitivity sweep", [runner, ops, iters, output]
    )
    fig15.add_argument(
        "--scheme",
        choices=[name for name in scheme_names() if get_scheme(name).scheme is Scheme.FSENCR],
        default=None,
        help="the measured FsEncr column (default: fsencr; fsencr+partitioned "
        "plots the partitioned-cache variant)",
    )
    command("table1", _run_table1, "executable vulnerability matrix")
    report = command("report", _run_report, "aggregate saved results into one report")
    report.add_argument(
        "results",
        nargs="?",
        default="benchmarks/results",
        metavar="RESULTS_DIR",
        help="directory of saved --json results (default: benchmarks/results)",
    )
    command("quick", _run_quick, "one fast end-to-end sanity pass", [runner])
    command("bench", _run_bench, "every figure grid on one runner", [runner, ops, iters])
    command("all", _run_all, "every figure grid, then Table I", [runner, ops, iters])

    sweep = command(
        "crashsweep",
        _run_crashsweep,
        "systematic crash/recovery audit (exit status = silent corruptions)",
        [runner, ops, iters, output],
    )
    sweep.add_argument(
        "--workload", type=_workload_name, default="DAX-3", help="workload to crash-sweep"
    )
    sweep.add_argument(
        "--points", type=_positive_int, default=8, help="max crash points to sample (>= 1)"
    )
    sweep.add_argument("--seed", type=int, default=0xC0FFEE, help="sweep / fault-plan seed")
    matrix = ", ".join(CRASH_MATRIX)
    secure = secure_scheme_names()
    sweep.add_argument(
        "--scheme",
        choices=["all", *secure],
        default="all",
        metavar="SCHEME",
        help=f"all (the matrix columns: {matrix}) or any scheme with a secure "
        f"memory controller as a single column ({', '.join(secure)}; default: all)",
    )
    sweep.add_argument(
        "--profile",
        choices=[*sorted(FAULT_PROFILES), "all", "custom"],
        default="all",
        help="named fault profile, all of them, or custom (built from the plan "
        "flags below; default: all)",
    )
    plan = sweep.add_argument_group("custom fault plan")
    plan.add_argument(
        "--drain-fraction", type=float, default=None, help="fraction of the WPQ the ADR drains"
    )
    plan.add_argument(
        "--torn-prob", type=float, default=None, help="torn-write probability per undrained line"
    )
    plan.add_argument(
        "--torn-burst", type=int, default=None, help="max contiguous lines one tear event takes down"
    )
    plan.add_argument("--bit-flips", type=int, default=None, help="media bit flips per crash")
    plan.add_argument(
        "--counter-flips", type=int, default=None, help="media bit flips in security metadata per crash"
    )

    check = command(
        "batchcheck",
        _run_batchcheck,
        "batch-vs-per-access fidelity + speed gate (exit status = divergent cells)",
        [output],
    )
    check.add_argument(
        "--reps",
        type=_positive_int,
        default=2,
        help="timing repetitions per mode (best-of-N; default: 2)",
    )

    curve = command(
        "loadcurve",
        _run_loadcurve,
        "concurrent-traffic throughput vs p99",
        [runner, ops, output],
    )
    curve.add_argument(
        "--streams",
        type=_stream_mix,
        default="3xFillseq-S",
        help="stream mix, e.g. 3xFillseq-S+2xHashmap (default: 3xFillseq-S)",
    )
    curve.add_argument(
        "--schemes",
        type=_scheme_columns,
        default="baseline_secure,fsencr",
        help="comma-separated scheme columns (default: baseline_secure,fsencr)",
    )
    curve.add_argument(
        "--loads",
        type=_positive_floats,
        default="0.25,0.5,1.0",
        help="offered-load fractions of the mix's calibrated throughput "
        "(default: 0.25,0.5,1.0)",
    )
    curve.add_argument(
        "--window",
        type=_positive_int,
        default=1,
        help="closed-loop calibration MLP window (default: 1)",
    )

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except UsageError as err:
        parser.error(f"{args.command}: {err}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
