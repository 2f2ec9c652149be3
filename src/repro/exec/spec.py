"""Cell specifications: the picklable unit of experiment execution.

Every grid this reproduction runs — the figure drivers' (workload x
scheme) comparisons, Figure 15's (workload x cache-size) sweep, the
crash matrix's (scheme x fault-profile) cells — decomposes into fully
independent *cells*.  A :class:`CellSpec` is the complete, serialisable
description of one cell: which workload (by factory *name*, so the spec
crosses process boundaries), under which :class:`MachineConfig`, with
which seeds.  ``execute_cell`` turns a spec into a JSON-safe payload; it
is a pure function, which is what makes both process-pool fan-out and
content-addressed caching sound.

Three cell kinds cover every consumer:

* ``compare`` — run the workload once per scheme on otherwise-equal
  machines (the ``compare_schemes`` idiom every figure uses); payload
  carries one :class:`~repro.sim.results.RunResult` per scheme.
* ``sweep``   — one crash-sweep cell (``sweep_workload``): crash at
  sampled persist boundaries under a :class:`FaultPlan`, audit every
  line; payload carries the :class:`~repro.faults.sweep.SweepResult`.
* ``loadcurve`` — one concurrent-traffic load sweep
  (:func:`~repro.analysis.tails.load_curve`): ``workload`` holds a
  stream *mix* ("3xFillseq-S+2xHashmap"), swept open-loop at the
  ``loads`` fractions of the mix's calibrated throughput per scheme;
  payload carries throughput and strict p50/p99/p99.9 per load point
  with the shared queues' delay stats.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from ..faults.plan import FaultPlan
from ..sim.config import MachineConfig
from ..sim.results import RunResult

__all__ = [
    "CellSpec",
    "canonical_json",
    "cell_key",
    "execute_cell",
    "resolve_workload",
    "payload_to_runs",
    "payload_to_curves",
    "payload_to_sweep",
]


#: Fields added to a dataclass *after* cache keys referencing it existed
#: in the wild.  While such a field still holds its original default it
#: is omitted from the canonical form, so every pre-existing spec keeps
#: its pre-existing cache key; specs that exercise the new knob get a
#: (correctly) new key.
_LATE_DEFAULTS = {
    "MachineConfig": {"anubis_recovery": False},
    # loads/mlp_window/arrival_seed exist only for loadcurve cells,
    # which post-date every cached key.
    "CellSpec": {
        "loads": (),
        "mlp_window": 1,
        "arrival_seed": 0xA221,
    },
}


def _plain(value):
    """Recursively reduce configs/plans to canonical JSON-safe values."""
    if is_dataclass(value) and not isinstance(value, type):
        late = _LATE_DEFAULTS.get(type(value).__name__, {})
        return {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
            if f.name not in late or getattr(value, f.name) != late[f.name]
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for a cell key")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, enums by value."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell, fully described by value.

    Everything here is part of the cell's identity: two specs with equal
    canonical JSON produce bit-identical payloads (the simulator is a
    pure function of its inputs), which is the contract the result cache
    and the ``--jobs N`` == ``--jobs 1`` equivalence both rest on.
    """

    kind: str                       # "compare" | "sweep" | "loadcurve"
    workload: str                   # factory name ("Fillseq-S", "Hashmap", "DAX-2",
                                    # ...) or, for loadcurve cells, a stream mix
                                    # ("3xFillseq-S+2xHashmap")
    config: MachineConfig
    ops: int = 0                    # PMEMKV / Whisper op count (0 = factory default)
    iterations: int = 0             # DAX micro iterations (0 = factory default)
    workload_seed: Optional[int] = None  # None = factory default seed
    # compare cells: scheme values in run order (baseline first by convention).
    schemes: Tuple[str, ...] = ()
    # sweep cells: the fault plan, boundary sampling bound, and sweep seed.
    plan: Optional[FaultPlan] = None
    max_points: int = 8
    sweep_seed: int = 0xC0FFEE
    name: str = ""                  # sweep trace name (part of the payload)
    # loadcurve cells: offered-load fractions of the mix's calibrated
    # throughput, the closed-loop calibration's MLP window, and the
    # open-loop arrival-process seed.
    loads: Tuple[float, ...] = ()
    mlp_window: int = 1
    arrival_seed: int = 0xA221

    def __post_init__(self) -> None:
        if self.kind not in ("compare", "sweep", "loadcurve"):
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if self.kind == "compare" and not self.schemes:
            raise ValueError("compare cell needs at least one scheme")
        if self.kind == "sweep" and self.plan is None:
            raise ValueError("sweep cell needs a FaultPlan")
        if self.kind == "loadcurve":
            if not self.schemes:
                raise ValueError("loadcurve cell needs at least one scheme")
            if not self.loads:
                raise ValueError("loadcurve cell needs at least one load point")
        if self.loads:
            if any(not load > 0.0 for load in self.loads):
                raise ValueError(f"loads must be positive, got {self.loads!r}")
            object.__setattr__(
                self, "loads", tuple(float(load) for load in self.loads)
            )
        if self.mlp_window < 1:
            raise ValueError(f"mlp_window must be >= 1, got {self.mlp_window}")
        if self.schemes:
            # Scheme names are registry currency: canonicalise (and
            # validate) them here so equal cells always hash equally,
            # whatever spelling the caller used.
            from ..sim.schemes import canonical_scheme_name

            object.__setattr__(
                self,
                "schemes",
                tuple(canonical_scheme_name(scheme) for scheme in self.schemes),
            )

    @property
    def label(self) -> str:
        """Human-readable cell identity for logs and error messages."""
        if self.kind == "compare":
            return f"{self.workload}({'/'.join(self.schemes)})"
        if self.kind == "loadcurve":
            return f"{self.workload}[loadcurve {'/'.join(self.schemes)}]"
        return f"{self.workload}[sweep {self.config.scheme.value}]"

    def canonical(self) -> Dict:
        return _plain(self)


def cell_key(spec: CellSpec, fingerprint: str) -> str:
    """Content address: canonical spec JSON + the source fingerprint."""
    blob = canonical_json(spec) + ":" + fingerprint
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Workload resolution (name -> fresh-instance factory)
# ----------------------------------------------------------------------


def resolve_workload(
    name: str,
    ops: int = 0,
    iterations: int = 0,
    seed: Optional[int] = None,
) -> Callable[[], object]:
    """A zero-argument factory for a fresh workload by benchmark name.

    Covers all three families the figures run: ``DAX-*`` micros, the
    Whisper set (YCSB/Hashmap/CTree), and PMEMKV patterns.  Zero /
    ``None`` arguments fall through to the factory defaults so specs
    built from existing call sites reproduce their exact workloads.
    """
    from ..workloads import (
        WHISPER_BENCHMARKS,
        ManyFilesWorkload,
        make_dax_micro,
        make_pmemkv_workload,
        make_whisper_workload,
    )

    if name.split("@", 1)[0] == "ManyFiles":
        # "ManyFiles@10" = 10% of files re-opened per round (the
        # multi-tenant churn knob); ops maps onto the file count.
        churn_part = name.partition("@")[2]
        kwargs = {}
        if churn_part:
            kwargs["churn"] = int(churn_part) / 100.0
        if ops:
            kwargs["num_files"] = ops
        if seed is not None:
            kwargs["seed"] = seed
        return lambda: ManyFilesWorkload(**kwargs)
    if name.upper().startswith("DAX"):
        kwargs = {}
        if iterations:
            kwargs["iterations"] = iterations
        if seed is not None:
            kwargs["seed"] = seed
        return lambda: make_dax_micro(name, **kwargs)
    if name in {bench_name for bench_name, _cls in WHISPER_BENCHMARKS}:
        kwargs = {}
        if ops:
            kwargs["ops"] = ops
        if seed is not None:
            kwargs["seed"] = seed
        return lambda: make_whisper_workload(name, **kwargs)
    kwargs = {}
    if ops:
        kwargs["ops"] = ops
    if seed is not None:
        kwargs["seed"] = seed
    return lambda: make_pmemkv_workload(name, **kwargs)


# ----------------------------------------------------------------------
# Execution (runs in worker processes — keep it a pure function)
# ----------------------------------------------------------------------


def execute_cell(spec: CellSpec) -> Dict:
    """Run one cell to completion; returns the JSON-safe payload.

    Determinism contract: everything the payload contains is derived
    from the spec alone — no wall clock, no pid, no ambient entropy —
    so a worker pool's results are bit-identical to a serial loop's.
    """
    if spec.kind == "compare":
        return _execute_compare(spec)
    if spec.kind == "loadcurve":
        return _execute_loadcurve(spec)
    return _execute_sweep(spec)


def _execute_compare(spec: CellSpec) -> Dict:
    from ..sim.batch import BatchRunner
    from ..sim.schemes import get_scheme

    factory = resolve_workload(
        spec.workload, ops=spec.ops, iterations=spec.iterations, seed=spec.workload_seed
    )
    runs: Dict[str, Dict] = {}
    workload_name = spec.workload
    # A compare cell is BatchRunner's sweet spot: one captured trace
    # sweeps every scheme column, so the workload's own Python runs
    # once per encryption class instead of once per column.  Payloads
    # are bit-identical to per-access runs by contract, and the runner
    # falls back to direct execution outside the interpreter's envelope.
    batch_runner = BatchRunner()
    for scheme_name in spec.schemes:
        workload = factory()
        workload_name = workload.name
        # The registry projects the column onto the cell's base config:
        # for the base schemes this is exactly with_scheme(); variant
        # columns ("fsencr+wpq", "fsencr+anubis", ...) add their pins.
        run_config = get_scheme(scheme_name).configure(spec.config)
        runs[scheme_name] = batch_runner.run(run_config, workload).to_dict()
    return {"kind": "compare", "workload": workload_name, "runs": runs}


def _execute_loadcurve(spec: CellSpec) -> Dict:
    from ..analysis.tails import load_curve
    from ..sim.schemes import get_scheme

    curves: Dict[str, Dict] = {}
    for scheme_name in spec.schemes:
        run_config = get_scheme(scheme_name).configure(spec.config)
        curves[scheme_name] = load_curve(
            run_config,
            spec.workload,
            spec.loads,
            window=spec.mlp_window,
            arrival_seed=spec.arrival_seed,
            ops=spec.ops,
        )
    return {"kind": "loadcurve", "mix": spec.workload, "curves": curves}


def _execute_sweep(spec: CellSpec) -> Dict:
    from ..faults.sweep import sweep_workload

    factory = resolve_workload(
        spec.workload, ops=spec.ops, iterations=spec.iterations, seed=spec.workload_seed
    )
    sweep = sweep_workload(
        factory,
        spec.config,
        plan=spec.plan,
        max_points=spec.max_points,
        seed=spec.sweep_seed,
        name=spec.name,
    )
    return {"kind": "sweep", "sweep": sweep.to_dict()}


# ----------------------------------------------------------------------
# Payload decoding (back to the domain objects consumers expect)
# ----------------------------------------------------------------------


def payload_to_runs(payload: Dict) -> Dict[str, RunResult]:
    """Decode a compare payload into {scheme value: RunResult}."""
    if payload.get("kind") != "compare":
        raise ValueError(f"not a compare payload: kind={payload.get('kind')!r}")
    return {
        scheme: RunResult.from_dict(raw) for scheme, raw in payload["runs"].items()
    }


def payload_to_curves(payload: Dict) -> Dict[str, Dict]:
    """Decode a loadcurve payload into ``{scheme: curve dict}``."""
    if payload.get("kind") != "loadcurve":
        raise ValueError(f"not a loadcurve payload: kind={payload.get('kind')!r}")
    return payload["curves"]


def payload_to_sweep(payload: Dict):
    """Decode a sweep payload into a SweepResult."""
    from ..faults.sweep import SweepResult

    if payload.get("kind") != "sweep":
        raise ValueError(f"not a sweep payload: kind={payload.get('kind')!r}")
    return SweepResult.from_dict(payload["sweep"])
