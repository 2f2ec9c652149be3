"""Golden-stats guard for the per-access hot path.

The micro-optimisation pass over ``Machine.load/store``, the cache walk,
the MMU, and ``MemoryRequest`` construction (``__slots__``, hoisted
attribute lookups, precomputed shifts) must be *behaviour-preserving*:
the simulator is a pure function of (config, workload, seed), so any
drift in a stat counter or the simulated clock means the optimisation
changed the model, not just its speed.

These digests were captured on fixed-seed workloads before the pass;
the runs below must reproduce them bit-for-bit.  If a deliberate model
change lands (a new counter, a latency fix), regenerate the table with
``python tests/test_hotpath_golden.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.sweep import sweep_workload, workload_factory
from repro.sim.batch import BatchRunner
from repro.sim.config import MachineConfig, Scheme
from repro.workloads import make_dax_micro, make_pmemkv_workload, make_whisper_workload
from repro.workloads.base import run_workload

#: (workload, scheme) -> (sha256 of the canonical run record, elapsed_ns,
#: nvm_reads, nvm_writes).  Captured pre-optimisation at fixed seeds.
GOLDEN = {
    ("DAX-1", "fsencr"): ("55e2ed7ca43e88121634544631a82d4389de328dd1cd420014f9b219af7c7d37", 17251.5, 109, 0),
    ("DAX-1", "baseline_secure"): ("2010d4434972a7d4a532a82bbf4fb53ae354a5a153a700440e505f858fe125ef", 15901.5, 109, 0),
    ("Fillseq-S", "fsencr"): ("cf9a5ae5f79d3d6541b137a42b83e090a0dc2c53d8c74fe690efaa639cd965a9", 60744.75, 102, 440),
    ("Hashmap", "software_encryption"): ("bdf528588f28eeebde43b6a1862cec4d05c747f33d94460721f90d5f90dcf938", 170764.05, 733, 450),
    ("Hashmap", "ext4dax_plain"): ("15ee279ca322b95512a16f6c0c8c125bcd6a394844d1e8d1bce403bdc43603cb", 109484.25, 349, 450),
}

#: The functional path (store_bytes / crash / reboot / recovery audit),
#: via one crash-sweep cell: sha256, boundaries_total, sampled points.
GOLDEN_SWEEP = ("1ac29b81d27a224507980e30f9cb56309edb5691b01e8e56791db021554b65fd", 24, 2)

_FACTORIES = {
    "DAX-1": lambda: make_dax_micro("DAX-1", iterations=400, seed=7),
    "Fillseq-S": lambda: make_pmemkv_workload("Fillseq-S", ops=40, seed=1234),
    "Hashmap": lambda: make_whisper_workload("Hashmap", ops=120, seed=99),
}


def _run_digest(workload: str, scheme: Scheme, batch: bool = False):
    run = BatchRunner().run if batch else run_workload
    result = run(MachineConfig(scheme=scheme), _FACTORIES[workload]())
    blob = json.dumps(
        {
            "workload": result.workload,
            "scheme": result.scheme,
            "elapsed_ns": repr(result.elapsed_ns),
            "nvm_reads": result.nvm_reads,
            "nvm_writes": result.nvm_writes,
            "stats": result.stats,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest(), result


def _sweep_digest():
    sweep = sweep_workload(
        workload_factory("DAX-3", iterations=12),
        MachineConfig(scheme=Scheme.FSENCR),
        max_points=2,
        seed=0xAB1A,
        name="DAX-3",
    )
    blob = json.dumps(
        {
            "workload": sweep.workload,
            "scheme": sweep.scheme,
            "seed": sweep.seed,
            "boundaries_total": sweep.boundaries_total,
            "points": [
                {
                    "op_index": p.op_index,
                    "plan_seed": p.plan_seed,
                    "dispositions": p.dispositions,
                    "outcomes": p.outcomes,
                    "silent_lines": list(p.silent_lines),
                    "trials": p.trials,
                    "recovery_ns": repr(p.recovery_ns),
                    "recovered_keys": p.recovered_keys,
                }
                for p in sweep.points
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest(), sweep


@pytest.mark.parametrize("workload,scheme", sorted(GOLDEN))
def test_timing_path_bit_identical(workload, scheme):
    digest, result = _run_digest(workload, Scheme(scheme))
    want_digest, want_ns, want_reads, want_writes = GOLDEN[(workload, scheme)]
    # Check the headline numbers first so a mismatch is diagnosable
    # before falling back to "some stat somewhere moved".
    assert result.elapsed_ns == want_ns, f"{workload}/{scheme}: clock drifted"
    assert result.nvm_reads == want_reads, f"{workload}/{scheme}: NVM reads drifted"
    assert result.nvm_writes == want_writes, f"{workload}/{scheme}: NVM writes drifted"
    assert digest == want_digest, f"{workload}/{scheme}: a stat counter drifted"


@pytest.mark.parametrize("workload,scheme", sorted(GOLDEN))
def test_batched_path_bit_identical(workload, scheme):
    """The compiled-trace sweep (repro.sim.batch) must reproduce the
    same frozen digests: batching is an execution strategy, not a model
    change, and this is the contract that lets every figure grid's
    compare cells run through it."""
    digest, result = _run_digest(workload, Scheme(scheme), batch=True)
    want_digest, want_ns, want_reads, want_writes = GOLDEN[(workload, scheme)]
    assert result.elapsed_ns == want_ns, f"{workload}/{scheme}: clock drifted (batch)"
    assert result.nvm_reads == want_reads, f"{workload}/{scheme}: NVM reads drifted (batch)"
    assert result.nvm_writes == want_writes, f"{workload}/{scheme}: NVM writes drifted (batch)"
    assert digest == want_digest, f"{workload}/{scheme}: a stat counter drifted (batch)"


def test_functional_sweep_bit_identical():
    digest, sweep = _sweep_digest()
    want_digest, want_boundaries, want_points = GOLDEN_SWEEP
    assert sweep.boundaries_total == want_boundaries
    assert len(sweep.points) == want_points
    assert digest == want_digest, "crash-sweep record drifted"


if __name__ == "__main__":  # regenerate the golden table
    import sys

    sys.stdout.write("GOLDEN = {\n")
    for (workload, scheme) in sorted(GOLDEN):
        digest, result = _run_digest(workload, Scheme(scheme))
        sys.stdout.write(
            f'    ("{workload}", "{scheme}"): ("{digest}", '
            f"{result.elapsed_ns!r}, {result.nvm_reads}, {result.nvm_writes}),\n"
        )
    sys.stdout.write("}\n")
    digest, sweep = _sweep_digest()
    sys.stdout.write(
        f'GOLDEN_SWEEP = ("{digest}", {sweep.boundaries_total}, {len(sweep.points)})\n'
    )
