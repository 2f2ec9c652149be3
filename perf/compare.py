"""Compare two full benchmark reports written by ``perf/run.py --json``.

    python3 perf/compare.py perf/results/BENCH_baseline.json new.json

For every (workload, end-to-end metric) it prints each side's median
and quartiles over the measured runs and a verdict, with the bounds
taken from ``BENCHMARK.json``:

* ``within bound`` — B is no worse than A by more than the bound;
* ``regressed``   — B is worse by more than the bound, and both
  sides' spread (quartile distance over median) is within it;
* ``unresolved``  — a side's spread is wider than the bound, so the
  runs cannot tell.

The traced run's simulated values (``sim.*``) and the per-cell digests
are deterministic, so when both reports used the same seed they must be
exactly equal; any difference is reported as ``changed``.  A metric
that a side's runs did not report (a run died) is ``missing``.  The
exit code is 1 if anything regressed, changed or is missing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric: dict, a_values, b_values) -> str:
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_q1, b_med, b_q3 = quartiles(b_values)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    if metric["better"] == "lower":
        worse = (b_med - a_med) / abs(a_med)
    else:
        worse = (a_med - b_med) / abs(a_med)
    if spread > metric["bound"]:
        return "unresolved"
    if worse > metric["bound"]:
        return "regressed"
    return "within bound"


def values_of(runs, name: str):
    """The metric's value in every run, or None if a run lacks it (a run
    whose process died reports no metrics)."""
    if any(name not in run["metrics"] for run in runs):
        return None
    return [run["metrics"][name]["value"] for run in runs]


def compare(a: dict, b: dict, catalogue: dict) -> int:
    exact = a["seed"] == b["seed"]
    if not exact:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): simulated values "
              "and digests are not compared")
    bad = 0
    for workload in (w["name"] for w in catalogue["workloads"]):
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        print(f"== {workload}")
        for metric in catalogue["end_to_end"]:
            name = metric["name"]
            a_values = values_of(side_a["runs"], name)
            b_values = values_of(side_b["runs"], name)
            if a_values is None or b_values is None:
                side = "A" if a_values is None else "B"
                print(f"  {name:<26} missing in {side}")
                bad += 1
                continue
            result = verdict(metric, a_values, b_values)
            bad += result == "regressed"
            a_q = quartiles(a_values)
            b_q = quartiles(b_values)
            print(
                f"  {name:<26} A {a_q[1]:>12.6g} [{a_q[0]:.6g}, {a_q[2]:.6g}]"
                f"  B {b_q[1]:>12.6g} [{b_q[0]:.6g}, {b_q[2]:.6g}]"
                f"  {metric['unit']:<10} {result}"
            )
        if not exact:
            continue
        a_sim = {k: v["value"] for k, v in side_a["traced"]["metrics"].items()
                 if k.startswith("sim.")}
        b_sim = {k: v["value"] for k, v in side_b["traced"]["metrics"].items()
                 if k.startswith("sim.")}
        changed = sorted(k for k in a_sim.keys() | b_sim.keys()
                         if a_sim.get(k) != b_sim.get(k))
        digests_a = [run.get("digests", {}) for run in side_a["runs"] + [side_a["traced"]]]
        digests_b = [run.get("digests", {}) for run in side_b["runs"] + [side_b["traced"]]]
        cells = sorted({cell for d in digests_a + digests_b for cell in d})
        differing = [cell for cell in cells
                     if len({d.get(cell) for d in digests_a + digests_b}) != 1]
        for key in changed:
            print(f"  {key:<40} {a_sim.get(key)!r} -> {b_sim.get(key)!r}  changed")
        for cell in differing:
            print(f"  digest {cell:<33} changed")
        print(f"  sim.* values: {len(a_sim) - len(changed)}/{len(a_sim)} equal; "
              f"digests: {len(cells) - len(differing)}/{len(cells)} cells equal")
        bad += len(changed) + len(differing)
    print("OK" if not bad else f"FAIL: {bad} regressed, changed or missing")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    catalogue = json.loads((REPO / "BENCHMARK.json").read_text())
    return compare(a, b, catalogue)


if __name__ == "__main__":
    sys.exit(main())
