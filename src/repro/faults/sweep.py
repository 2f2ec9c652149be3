"""Systematic crash-point sweep over a workload's persist boundaries.

The crash-consistency claims of the paper (Osiris stop-loss recovery,
OTT write-through logging §III-H, the FECB stamp's durability) are
universally quantified: *wherever* power fails, the machine comes back
to a state that is either consistent or *explicitly* detected as
damaged.  One hand-picked crash test cannot check a universal claim;
this module enumerates the claim's domain instead:

1. capture the workload's op stream with
   :func:`~repro.sim.batch.capture_workload` — a recording stub on a
   set-up machine, so nothing is simulated — and collect every persist
   boundary (each ``persist`` is a point where an application believes
   data durable — the interesting instants);
2. for each sampled boundary, replay the op prefix onto a fresh
   functional machine — stores carry deterministic, address-salted
   payloads so every line has a known expected value — and crash it
   there under a :class:`~repro.faults.plan.FaultPlan` derived from the
   sweep seed and the boundary index;
3. reboot through the real recovery paths, then audit every line the
   CPU ever wrote against the recovery's answer.

Each line lands in exactly one outcome bucket:

* ``recovered_new``  — decrypts to the last value the CPU wrote;
* ``recovered_old``  — decrypts to the pre-crash-write value (a clean
  ADR drop: the write never happened, which is consistent);
* ``detected``       — recovery explicitly failed the line (ECC
  exhaustion, missing ECC, integrity or key error);
* ``silent``         — recovery *accepted* the line but produced bytes
  that are neither the old nor the new version.  **This bucket must be
  empty**; ``SweepResult.assert_invariant`` enforces it.

Everything is a pure function of (workload, config, plan, seed): two
runs of the same sweep produce identical results, so a failure is a
repro, not an anecdote.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ott import KeyUnavailableError
from ..exec import Cell, ExperimentRunner, resolve_workload
from ..mem.address import LINE_SIZE
from ..secmem.ecc import check_line
from ..secmem.merkle import IntegrityError
from ..sim import trace as trace_mod
from ..sim.batch import capture_workload
from ..sim.config import MachineConfig
from ..sim.machine import Machine
from ..sim.schemes import CRASH_MATRIX, get_scheme
from ..sim.trace import TraceCursor
from .lifecycle import CrashReport, RecoveryReport
from .plan import FAULT_PROFILES, FaultPlan

__all__ = [
    "OUTCOME_RECOVERED_NEW",
    "OUTCOME_RECOVERED_OLD",
    "OUTCOME_DETECTED",
    "OUTCOME_SILENT",
    "CrashPointResult",
    "SweepResult",
    "MatrixResult",
    "sweep_workload",
    "matrix_configs",
    "sweep_matrix",
]

OUTCOME_RECOVERED_NEW = "recovered_new"
OUTCOME_RECOVERED_OLD = "recovered_old"
OUTCOME_DETECTED = "detected"
OUTCOME_SILENT = "silent"

_ERASED = bytes(LINE_SIZE)


@dataclass(frozen=True)
class CrashPointResult:
    """Outcome of crashing at one persist boundary."""

    op_index: int
    plan_seed: int
    dispositions: Dict[str, int]
    outcomes: Dict[str, int]
    silent_lines: Tuple[int, ...]
    trials: int
    recovery_ns: float
    recovered_keys: int

    def to_dict(self) -> Dict:
        return {
            "op_index": self.op_index,
            "plan_seed": self.plan_seed,
            "dispositions": dict(self.dispositions),
            "outcomes": dict(self.outcomes),
            "silent_lines": list(self.silent_lines),
            "trials": self.trials,
            "recovery_ns": self.recovery_ns,
            "recovered_keys": self.recovered_keys,
        }


@dataclass
class SweepResult:
    """All crash points of one sweep plus the identity that produced it."""

    workload: str
    scheme: str
    seed: int
    boundaries_total: int
    points: List[CrashPointResult] = field(default_factory=list)

    @property
    def silent_corruptions(self) -> int:
        return sum(len(point.silent_lines) for point in self.points)

    def outcome_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for point in self.points:
            for outcome, count in point.outcomes.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return totals

    def summary(self) -> str:
        totals = self.outcome_totals()
        parts = ", ".join(f"{name}={totals.get(name, 0)}" for name in (
            OUTCOME_RECOVERED_NEW, OUTCOME_RECOVERED_OLD,
            OUTCOME_DETECTED, OUTCOME_SILENT,
        ))
        return (
            f"{self.workload} [{self.scheme}] seed={self.seed:#x}: "
            f"{len(self.points)}/{self.boundaries_total} crash points, {parts}"
        )

    def assert_invariant(self) -> None:
        """Every injected fault was detected or recovered — never silent."""
        if self.silent_corruptions:
            lines = [hex(addr) for point in self.points for addr in point.silent_lines]
            raise AssertionError(
                f"silent corruption at {len(lines)} line(s): {', '.join(lines)}"
            )

    def to_dict(self) -> Dict:
        """JSON-safe record: the form result digests are taken over."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "seed": self.seed,
            "boundaries_total": self.boundaries_total,
            "points": [point.to_dict() for point in self.points],
        }


# ----------------------------------------------------------------------
# Deterministic payloads
# ----------------------------------------------------------------------


def _pattern(seed: int, op_index: int, vaddr: int, size: int) -> bytes:
    """Deterministic payload for one store: salted by op and address so
    no two writes collide and a stale line can never masquerade as a
    fresh one."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(
            f"{seed}:{op_index}:{vaddr}:{counter}".encode()
        ).digest()
        counter += 1
    return bytes(out[:size])


def _replay_prefix(machine: Machine, workload, ops: List, upto: int, seed: int) -> None:
    """Re-execute ``ops[0 .. upto]`` with data-carrying stores.

    The timing trace records addresses, not payloads; the replay supplies
    the deterministic pattern through the functional path *and* issues
    the original timing op, so the crash domain and WPQ see the same
    traffic shape the recording did.
    """
    workload.setup(machine)
    cursor = TraceCursor(machine)
    data_ops = (trace_mod.STORE, trace_mod.PERSIST)
    for index in range(upto + 1):
        op = ops[index]
        if op.op in data_ops:
            machine.store_bytes(op.addr, _pattern(seed, index, op.addr, op.size))
        cursor.apply(op)


# ----------------------------------------------------------------------
# Verification oracle
# ----------------------------------------------------------------------


def _verify_line(
    machine: Machine,
    addr: int,
    expected_new: bytes,
    crash_report: CrashReport,
    recovery_report: RecoveryReport,
) -> str:
    """Classify one line's post-recovery content."""
    controller = machine.controller
    if addr in recovery_report.failed_lines:
        return OUTCOME_DETECTED
    try:
        plaintext = controller.read_data(addr)
    except (IntegrityError, KeyUnavailableError):
        return OUTCOME_DETECTED
    ecc = controller.store.read_ecc(addr)
    if ecc is None or not check_line(plaintext, ecc):
        return OUTCOME_DETECTED
    if plaintext == expected_new:
        return OUTCOME_RECOVERED_NEW
    fate = crash_report.line_fates.get(addr)
    old_plain = fate.old_plain if fate is not None else None
    if plaintext == (old_plain if old_plain is not None else _ERASED):
        return OUTCOME_RECOVERED_OLD
    return OUTCOME_SILENT


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


def sweep_workload(
    factory: Callable[[], object],
    config: Optional[MachineConfig] = None,
    *,
    plan: Optional[FaultPlan] = None,
    max_points: int = 8,
    seed: int = 0xC0FFEE,
    name: str = "",
) -> SweepResult:
    """Crash-sweep one workload; returns the per-point audit.

    ``config.functional`` is forced on — the sweep's oracle needs real
    ciphertext to audit.  ``max_points`` (at least 1) bounds the replay
    cost by even-spaced sampling of the persist boundaries.
    """
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    base_config = config or MachineConfig()  # default scheme: fsencr
    run_config = base_config._replace(functional=True)
    plan = plan or FaultPlan()

    workload = factory()
    workload_name = name or getattr(workload, "name", "sweep")
    machine = Machine(run_config)
    workload.setup(machine)
    trace = capture_workload(machine, workload)
    if trace is None:
        raise ValueError(
            f"workload {workload_name!r} is not capturable; the crash sweep "
            "only runs trace-expressible workloads"
        )
    ops = trace.ops
    boundaries = [i for i, op in enumerate(ops) if op.op == trace_mod.PERSIST]

    result = SweepResult(
        workload=workload_name,
        scheme=run_config.scheme.value,
        seed=seed,
        boundaries_total=len(boundaries),
    )
    if not boundaries:
        return result

    if len(boundaries) <= max_points:
        sampled = list(boundaries)
    else:
        step = len(boundaries) / max_points
        sampled = sorted({boundaries[int(i * step)] for i in range(max_points)})

    for op_index in sampled:
        machine = Machine(run_config)
        _replay_prefix(machine, factory(), ops, op_index, seed)
        truth = dict(machine.controller._plaintext_shadow)
        point_plan = plan.derive(op_index)
        crash_report = machine.crash(point_plan)
        recovery_report = machine.reboot()

        outcomes: Dict[str, int] = {}
        silent: List[int] = []
        for addr in sorted(truth):
            outcome = _verify_line(
                machine, addr, truth[addr], crash_report, recovery_report
            )
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome == OUTCOME_SILENT:
                silent.append(addr)
        result.points.append(
            CrashPointResult(
                op_index=op_index,
                plan_seed=point_plan.seed,
                dispositions={
                    "drained": crash_report.drained,
                    "dropped": crash_report.dropped,
                    "torn": crash_report.torn,
                    "torn_bursts": crash_report.torn_bursts,
                    "metadata_flips": len(crash_report.metadata_flips),
                },
                outcomes=outcomes,
                silent_lines=tuple(silent),
                trials=recovery_report.trials,
                recovery_ns=recovery_report.recovery_ns,
                recovered_keys=recovery_report.ott_keys_recovered,
            )
        )
    return result


# ----------------------------------------------------------------------
# The (scheme x fault-profile) matrix
# ----------------------------------------------------------------------


def matrix_configs(
    base: Optional[MachineConfig] = None, names: Optional[Sequence[str]] = None
) -> List[Tuple[str, MachineConfig]]:
    """The matrix's scheme columns (:data:`~repro.sim.schemes.CRASH_MATRIX`,
    or the ``names`` given) derived from one base config.

    The base's WPQ model is normalised off first so that only columns
    that *pin* it (e.g. ``fsencr+wpq``) run with it — column identity
    comes from the scheme table, not from whatever base the caller held.
    """
    base = (base or MachineConfig()).with_wpq(False)
    if names is None:
        names = CRASH_MATRIX
    return [(name, get_scheme(name).configure(base)) for name in names]


@dataclass
class MatrixResult:
    """One :class:`SweepResult` per (scheme, fault-profile) cell."""

    workload: str
    seed: int
    cells: Dict[Tuple[str, str], SweepResult] = field(default_factory=dict)

    @property
    def silent_corruptions(self) -> int:
        return sum(cell.silent_corruptions for cell in self.cells.values())

    def assert_invariant(self) -> None:
        """Every cell's silent bucket is empty — the universal claim."""
        offenders = [
            f"{scheme}/{profile}: {cell.silent_corruptions}"
            for (scheme, profile), cell in sorted(self.cells.items())
            if cell.silent_corruptions
        ]
        if offenders:
            raise AssertionError(
                "silent corruption in matrix cell(s): " + "; ".join(offenders)
            )

    def summary(self) -> str:
        """One aligned row per cell, totals last."""
        lines = [f"{self.workload} seed={self.seed:#x}"]
        width = max(
            (len(f"{s}/{p}") for s, p in self.cells), default=0
        )
        for (scheme, profile), cell in sorted(self.cells.items()):
            totals = cell.outcome_totals()
            lines.append(
                f"  {f'{scheme}/{profile}':<{width}}  "
                f"points={len(cell.points)} "
                + " ".join(
                    f"{name}={totals.get(name, 0)}"
                    for name in (
                        OUTCOME_RECOVERED_NEW, OUTCOME_RECOVERED_OLD,
                        OUTCOME_DETECTED, OUTCOME_SILENT,
                    )
                )
            )
        lines.append(f"  total silent={self.silent_corruptions}")
        return "\n".join(lines)


def sweep_matrix(
    factory: "Callable[[], object] | str",
    base_config: Optional[MachineConfig] = None,
    *,
    profiles: Optional[Dict[str, FaultPlan]] = None,
    schemes: Optional[List[Tuple[str, MachineConfig]]] = None,
    max_points: int = 8,
    seed: int = 0xC0FFEE,
    name: str = "",
    ops: int = 0,
    iterations: int = 0,
    runner: Optional[ExperimentRunner] = None,
) -> MatrixResult:
    """Run the full (scheme x fault-profile) crash-sweep matrix.

    Each cell is an independent :func:`sweep_workload` call; the cell's
    plan is the profile re-seeded with the sweep seed so two cells with
    the same profile still derive distinct per-point plans from their
    own boundary indices, while the whole matrix stays a pure function
    of (workload, base config, seed).

    ``factory`` is a zero-argument callable or a workload *name*, which
    :func:`~repro.exec.resolve_workload` turns into one (``ops`` and
    ``iterations`` size it).  The cells run on ``runner`` (default: the
    serial in-process path); a pool runner needs a picklable factory,
    which every resolved name is.
    """
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    profiles = profiles if profiles is not None else dict(FAULT_PROFILES)
    schemes = schemes if schemes is not None else matrix_configs(base_config)
    label = name or (factory if isinstance(factory, str) else "matrix")
    if isinstance(factory, str):
        factory = resolve_workload(factory, ops=ops, iterations=iterations)

    keys, cells = [], []
    for scheme_label, config in schemes:
        for profile_name, profile in sorted(profiles.items()):
            keys.append((scheme_label, profile_name))
            call = partial(
                sweep_workload,
                factory,
                config,
                plan=profile.with_seed(seed),
                max_points=max_points,
                seed=seed,
                name=name,
            )
            cells.append(Cell(f"{label}[sweep {scheme_label}/{profile_name}]", call))

    result = MatrixResult(workload=name or "matrix", seed=seed)
    for key, cell in zip(keys, (runner or ExperimentRunner(jobs=1)).run(cells)):
        result.cells[key] = cell
        if result.workload == "matrix":
            result.workload = cell.workload
    return result
