"""Run the repository benchmark.

One run of one workload (the last stdout line is the JSON result)::

    python3 perf/run.py --workload grid-reference --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of a measured run,
``--trace 1`` the per-layer metrics of a traced run.  The exit code is
0 only when every correctness check passed.

Every workload (a fresh subprocess per run, one at a time; prints a
metric table and optionally writes the full report)::

    python3 perf/run.py [--seed S] [--json perf/results/BENCH_<name>.json]

Compare two reports with ``perf/compare.py``.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parent
SRC = REPO / "src"

#: One compute thread per process: numpy's BLAS pool stays unused.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Measured runs per workload in a full run (quartiles need several).
FULL_RUN_REPEATS = 3


def load_catalogue() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _print_metrics(outcome_line: dict) -> None:
    for name, metric in outcome_line["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")


def run_one(args) -> int:
    import bench

    suite = bench.SUITES[args.workload]
    if args.trace:
        outcome = bench.traced_run(suite, args.seed)
    else:
        outcome = bench.measure(suite, args.seed, args.seconds)
    line = outcome.result_line()
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    **line,
                    "failures": outcome.failures,
                    "digests": outcome.digests,
                    **outcome.detail,
                },
                indent=1,
            )
        )
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    _print_metrics(line)
    for failure in outcome.failures:
        print(f"  FAIL {failure}")
    print(json.dumps(line))
    return 0 if outcome.correct else 1


def _child(workload: str, seed: int, seconds: int, trace: int, out: Path) -> dict:
    """One workload run in a fresh interpreter; returns its report."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--json", str(out),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if not out.exists():
        return {"workload": workload, "trace": trace, "correct": False,
                "failures": [f"exited {proc.returncode} without a report"],
                "metrics": {}}
    return json.loads(out.read_text())


def _git(*argv: str) -> str:
    try:
        return subprocess.run(
            ["git", *argv], cwd=REPO, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summarize(name: str, runs: list, traced: dict, catalogue: dict) -> None:
    print(f"\n== {name}")
    for metric in catalogue["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"]
                  for run in runs if metric["name"] in run["metrics"]]
        if not values:
            print(f"  {metric['name']:<42} {'missing':>16}")
            continue
        print(
            f"  {metric['name']:<42} {statistics.median(values):>16.6g} "
            f"{metric['unit']:<11} (min {min(values):.6g}, max {max(values):.6g})"
        )
    for run in runs + [traced]:
        for failure in run["failures"]:
            print(f"  FAIL {failure}")
    if "traced_s" not in traced:
        return
    total = traced["traced_s"]
    layers = sorted(
        (
            (key[len("host_self_s."):], metric["value"])
            for key, metric in traced["metrics"].items()
            if key.startswith("host_self_s.") and metric["value"] > 0.0
        ),
        key=lambda item: -item[1],
    )
    print(f"  traced pass {total:.2f} s, per-layer host self time:")
    for layer, seconds in layers:
        calls = traced["metrics"][f"calls.{layer}"]["value"]
        print(f"    {layer:<26} {seconds:9.3f} s {100 * seconds / total:5.1f}% "
              f"{calls:>10} calls")
    for key in ("host_outside_s", "trace_overhead", "calls.secmem.layout"):
        print(f"    {key:<26} {traced['metrics'][key]['value']:.6g}")
    for key, metric in traced["metrics"].items():
        if key.startswith("sim.") and metric["value"]:
            print(f"    {key:<38} {metric['value']:>14.6g} {metric['unit']}")


def run_all(args, catalogue: dict) -> int:
    report = {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": _git("status", "--porcelain", "--", "src") not in ("", "unknown"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in catalogue["workloads"]):
            runs = [
                _child(workload, args.seed, args.seconds, 0,
                       Path(tmp) / f"{workload}-{index}.json")
                for index in range(FULL_RUN_REPEATS)
            ]
            traced = _child(workload, args.seed, args.seconds, 1,
                            Path(tmp) / f"{workload}-traced.json")
            report["workloads"][workload] = {"runs": runs, "traced": traced}
            ok = ok and all(run["correct"] for run in runs + [traced])
            _summarize(workload, runs, traced, catalogue)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nsaved: {args.json}")
    print("OK: every check passed" if ok else "FAIL: see the FAIL lines above")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="measured seconds per run "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the full report here")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    names = [workload["name"] for workload in catalogue["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")
    if args.seconds is None:
        args.seconds = catalogue["run_seconds"]

    os.environ.update(SINGLE_THREAD_ENV)
    sys.path[:0] = [str(PERF_DIR), str(SRC)]
    if args.workload is not None:
        return run_one(args)
    return run_all(args, catalogue)


if __name__ == "__main__":
    sys.exit(main())
