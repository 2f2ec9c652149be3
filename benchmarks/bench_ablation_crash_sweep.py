"""Ablation: the Osiris stop-loss knob under systematic crash sweeps.

The stop-loss window trades runtime counter write-throughs against
recovery-time trial decryptions (§III-H adopts Osiris precisely for
this trade).  This ablation drives the crash/fault-injection subsystem
across the knob: for each ``stop_loss`` it crash-sweeps a small DAX
micro-workload at sampled persist boundaries with a fully-drained ADR
(no torn or dropped lines — pure counter-staleness recovery), and runs
the same workload uninterrupted to count the stop-loss write stream.

Expected: every crash point recovers with zero silent corruption at
every window size; recovery trials grow with the window while runtime
counter persists shrink — the two ends of the Osiris trade, measured.
"""

from repro.exec import resolve_workload
from repro.faults.plan import FAULT_PROFILES, FaultPlan
from repro.faults.sweep import sweep_workload
from repro.sim import Machine, MachineConfig, Scheme
from repro.sim.schemes import CRASH_MATRIX

STOP_LOSSES = (1, 2, 4, 8)
ITERATIONS = 12
POINTS = 4
SEED = 0xAB1A


def run_stop_loss(stop_loss: int):
    config = MachineConfig(scheme=Scheme.FSENCR, stop_loss=stop_loss)
    # All-drained plan: the WPQ tail survives, so the only recovery work
    # is trial-decrypting counters stale within the stop-loss window.
    plan = FaultPlan(seed=SEED, drain_fraction=1.0, torn_probability=0.0)
    sweep = sweep_workload(
        resolve_workload("DAX-3", iterations=ITERATIONS),
        config,
        plan=plan,
        max_points=POINTS,
        seed=SEED,
        name=f"DAX-3/sl={stop_loss}",
    )

    # The same workload, uninterrupted, for the runtime write stream.
    machine = Machine(config)
    workload = resolve_workload("DAX-3", iterations=ITERATIONS)()
    workload.setup(machine)
    workload.run(machine)
    runtime = machine.result(f"DAX-3/sl={stop_loss}")
    persists = runtime.stat("controller.osiris_counter_persists")

    return {
        "silent": sweep.silent_corruptions,
        "outcomes": sweep.outcome_totals(),
        "trials": sum(point.trials for point in sweep.points),
        "recovery_ns": sum(point.recovery_ns for point in sweep.points),
        "runtime_persists": persists,
    }


def run_sweep():
    return {sl: run_stop_loss(sl) for sl in STOP_LOSSES}


def test_ablation_crash_sweep_stop_loss(benchmark, results_dir):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print()
    print(f"{'stop_loss':>10}{'trials':>8}{'recovery (us)':>15}{'runtime persists':>18}")
    for sl, row in sorted(results.items()):
        print(
            f"{sl:>10}{row['trials']:>8}{row['recovery_ns'] / 1000.0:>15.1f}"
            f"{row['runtime_persists']:>18.0f}"
        )

    # The invariant the subsystem exists to check: no crash point, at any
    # window size, may leave a written line silently corrupted.
    for sl, row in results.items():
        assert row["silent"] == 0, f"stop_loss={sl}: silent corruption"
    # Wider window -> more recovery work...
    assert results[8]["trials"] >= results[1]["trials"]
    # ...but fewer runtime counter write-throughs.
    assert results[1]["runtime_persists"] > results[8]["runtime_persists"]

    benchmark.extra_info["trials_by_stop_loss"] = {
        sl: row["trials"] for sl, row in results.items()
    }
    benchmark.extra_info["runtime_persists_by_stop_loss"] = {
        sl: row["runtime_persists"] for sl, row in results.items()
    }


def run_matrix():
    from repro.faults.sweep import sweep_matrix

    return sweep_matrix(
        resolve_workload("DAX-3", iterations=ITERATIONS),
        MachineConfig(),
        max_points=2,
        seed=SEED,
        name="DAX-3",
    )


def test_ablation_crash_sweep_scheme_matrix(benchmark, results_dir):
    """The universal claim: every (scheme, fault-profile) cell of the
    matrix — every crash-matrix column (FsEncr, the secure
    baseline, FsEncr with the explicit WPQ model, FsEncr with Anubis),
    each under every fault profile — recovers or detects every line,
    never silently corrupts."""
    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    print()
    print(matrix.summary())
    matrix.assert_invariant()
    assert len(matrix.cells) == len(CRASH_MATRIX) * len(FAULT_PROFILES)

    # Each profile must have really exercised its fault type somewhere.
    torn_bursts = meta_flips = 0
    for (_, profile), cell in matrix.cells.items():
        for point in cell.points:
            if profile == "torn-burst":
                torn_bursts += point.dispositions.get("torn_bursts", 0)
            if profile == "counter-flips":
                meta_flips += point.dispositions.get("metadata_flips", 0)
    assert torn_bursts > 0
    assert meta_flips > 0

    benchmark.extra_info["silent_by_cell"] = {
        f"{scheme}/{profile}": cell.silent_corruptions
        for (scheme, profile), cell in sorted(matrix.cells.items())
    }
