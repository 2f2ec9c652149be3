"""Workload framework: the contract between benchmarks and the machine.

A workload is a deterministic trace generator *with application
structure*: it opens/creates files on the machine's DAX filesystem, maps
them, and drives loads/stores/persists the way the real application's
data structures would.  Determinism (seeded RNGs, no wall clock) makes
scheme comparisons exact: the same workload object replayed on two
machines issues the identical logical operation sequence, so every
difference in the result is the scheme's.
"""

from __future__ import annotations

import random
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..exec.spec import resolve_workload
from ..sim.batch import BatchRunner
from ..sim.config import MachineConfig
from ..sim.machine import Machine
from ..sim.results import Comparison, ResultTable, RunResult
from ..sim.schemes import SchemeRef, canonical_scheme_name, get_scheme

__all__ = [
    "Workload",
    "run_workload",
    "compare_schemes",
    "WorkloadComparison",
    "StreamSpec",
    "parse_stream_mix",
    "stream_factories",
]

_DEFAULT_UID = 1000
_DEFAULT_GID = 100


class Workload(ABC):
    """Base class: subclasses implement :meth:`run` against a machine."""

    #: Human-readable benchmark identifier (Table II names).
    name: str = "workload"

    def __init__(self, seed: int = 1234) -> None:
        self.seed = seed

    def rng(self) -> random.Random:
        """A fresh deterministic RNG (one per run, so replays agree)."""
        return random.Random(self.seed)

    def setup(self, machine: Machine) -> None:
        """Default setup: one logged-in user.  Subclasses extend."""
        machine.add_user(uid=_DEFAULT_UID, gid=_DEFAULT_GID, passphrase="workload-pass")

    @property
    def uid(self) -> int:
        return _DEFAULT_UID

    @abstractmethod
    def run(self, machine: Machine) -> None:
        """Execute the workload's operations against the machine."""


def run_workload(config: MachineConfig, workload: Workload) -> RunResult:
    """Build a machine, run the workload, return the result record.

    This is the per-access reference path.  The compiled-trace executor
    (:class:`repro.sim.batch.BatchRunner`) produces bit-identical
    results, and :func:`compare_schemes` goes through it.
    """
    machine = Machine(config)
    workload.setup(machine)
    workload.run(machine)
    return machine.result(workload.name)


# ----------------------------------------------------------------------
# Stream mixes: workloads as concurrent-traffic stream factories
# ----------------------------------------------------------------------

#: Seed stride between streams of one spec: stream 0 keeps the factory
#: seed exactly (a 1-stream mix reproduces the classic run), later
#: streams get distinct-but-deterministic offsets.
_STREAM_SEED_STRIDE = 101

_MIX_PART = re.compile(r"(?:(\d+)[x×])?(.+)")


@dataclass(frozen=True)
class StreamSpec:
    """``count`` concurrent streams of one named workload.

    ``workload`` is a benchmark name :func:`~repro.exec.spec.resolve_workload`
    resolves (``"Fillseq-S"``, ``"Hashmap"``, ``"DAX-2"``,
    ``"ManyFiles@10"``, ...); ``ops``/``iterations``/``seed`` override
    factory defaults the same way its arguments do (0 / ``None`` =
    default).
    """

    workload: str
    count: int = 1
    ops: int = 0
    iterations: int = 0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("stream spec needs a workload name")
        if self.count < 1:
            raise ValueError(f"stream count must be >= 1, got {self.count}")


def parse_stream_mix(mix: str) -> Tuple[StreamSpec, ...]:
    """Parse ``"3xFillseq-S+2xHashmap"`` into stream specs.

    Each ``+``-separated part is ``[Nx]<workload>``; a missing
    multiplier means one stream.  The workload names themselves are not
    validated here — resolution happens when factories are built, so a
    typo fails loudly there with the resolver's error.
    """
    specs = []
    for part in mix.split("+"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty stream spec in mix {mix!r}")
        match = _MIX_PART.fullmatch(part)
        assert match is not None  # (.+) matches any non-empty part
        count = int(match.group(1)) if match.group(1) else 1
        specs.append(StreamSpec(workload=match.group(2), count=count))
    if not specs:
        raise ValueError("a stream mix needs at least one stream")
    return tuple(specs)


def stream_factories(
    mix: "str | Iterable[StreamSpec]",
) -> List[Callable[[], Workload]]:
    """One fresh-workload factory per concurrent stream of a mix.

    Streams of the same spec get deterministically distinct seeds
    (factory default + ``_STREAM_SEED_STRIDE`` × stream index within
    the spec) so "3× pmemkv" means three clients with decorrelated
    access patterns, not three lockstep clones.  Stream 0 of every spec
    keeps the factory seed exactly, so a 1-stream mix reproduces the
    classic single-stream workload bit-for-bit.
    """
    if isinstance(mix, str):
        mix = parse_stream_mix(mix)
    factories: List[Callable[[], Workload]] = []
    for spec in mix:
        base_factory = resolve_workload(
            spec.workload, ops=spec.ops, iterations=spec.iterations, seed=spec.seed
        )
        base_seed = base_factory().seed
        for index in range(spec.count):
            factories.append(
                resolve_workload(
                    spec.workload,
                    ops=spec.ops,
                    iterations=spec.iterations,
                    seed=base_seed + _STREAM_SEED_STRIDE * index,
                )
            )
    if not factories:
        raise ValueError("a stream mix needs at least one stream")
    return factories


@dataclass
class WorkloadComparison:
    """All schemes' results for one workload, plus baseline-normalised rows."""

    workload: str
    runs: Dict[str, RunResult]

    def against(self, baseline_scheme: SchemeRef, scheme: SchemeRef) -> Comparison:
        """Baseline-normalised row; schemes by registry name or enum."""
        return Comparison.of(
            self.runs[canonical_scheme_name(scheme)],
            self.runs[canonical_scheme_name(baseline_scheme)],
        )


def compare_schemes(
    workload_factory,
    config: Optional[MachineConfig] = None,
    schemes: Iterable[SchemeRef] = ("baseline_secure", "fsencr"),
) -> WorkloadComparison:
    """Run one workload under several schemes on otherwise-equal machines.

    ``schemes`` entries are registry names (``"fsencr"``,
    ``"fsencr+wpq"``, ...); :class:`~repro.sim.config.Scheme` members
    are accepted for compatibility.  Each name's
    :class:`~repro.sim.schemes.SchemeSpec` projects the shared base
    config onto its column, so variant schemes carry their pins (WPQ,
    Anubis, partitioned cache) without the caller hand-building configs.

    ``workload_factory()`` must return a *fresh* workload each call —
    workloads may hold per-run state (allocator cursors, in-memory
    indices), so sharing an instance across schemes would skew replays.

    Every column runs on one :class:`~repro.sim.batch.BatchRunner`: one
    captured trace sweeps every column of an encryption class, so the
    workload's own Python runs once per class instead of once per
    column.  Results are bit-identical to :func:`run_workload`, and the
    runner falls back to direct execution outside the interpreter's
    envelope.
    """
    base_config = config or MachineConfig()
    batch_runner = BatchRunner()
    runs: Dict[str, RunResult] = {}
    name = None
    for scheme in schemes:
        scheme_name = canonical_scheme_name(scheme)
        workload = workload_factory()
        name = workload.name
        run_config = get_scheme(scheme_name).configure(base_config)
        runs[scheme_name] = batch_runner.run(run_config, workload)
    assert name is not None, "schemes iterable was empty"
    return WorkloadComparison(workload=name, runs=runs)
