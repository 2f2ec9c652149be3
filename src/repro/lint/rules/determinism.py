"""Host-entropy rules: the model and the workers are pure functions.

Every figure in the paper is reproducible because a run is a pure
function of (MachineConfig, workload, seed): the clock is the simulated
``clock_ns``, never the host's, and all randomness flows from seeded
``random.Random`` instances (DESIGN.md determinism contract;
``MachineConfig.seed``).  The experiment runner extends the contract to
cells: a cell result is a pure function of its call's arguments, so
``--jobs N`` is bit-identical to ``--jobs 1`` (docs/RUNNER.md).

Both rules share one vocabulary, :func:`host_input`: host clock reads
(``time.time`` and friends, ``datetime.now/utcnow/today``), process
identity (``os.getpid``), ambient entropy (``os.urandom``,
``os.getrandom``, ``uuid.uuid1/4``, ``secrets.*``, ``SystemRandom`` and
argument-less ``random.Random()``), and the process-global ``random.*``
API.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..engine import Finding, Project, SourceFile, path_matches
from .base import Rule, attr_chain, register

_CLOCK_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
_DATETIME_FNS = {"now", "utcnow", "today"}
_PROCESS_IDENTITY = {"os.getpid"}
_AMBIENT_ENTROPY = {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}


def host_input(origin: str, seeded: bool) -> Optional[str]:
    """The host-varying input a call reads, or None if it reads none.

    ``origin`` is the call's dotted name with imports resolved
    (``time.perf_counter``, ``datetime.datetime.now``); ``seeded`` says
    whether the call got any argument, since ``random.Random()`` without
    one seeds itself from the OS.
    """
    parts = origin.split(".")
    if len(parts) < 2:
        return None
    head, tail = parts[0], parts[-1]
    if head == "time" and tail in _CLOCK_FNS:
        return "the host clock"
    if tail in _DATETIME_FNS and ("datetime" in parts or head == "date"):
        return "the host clock"
    if origin in _PROCESS_IDENTITY:
        return "process identity"
    if origin in _AMBIENT_ENTROPY or head == "secrets":
        return "ambient entropy"
    if head == "random" and len(parts) == 2:
        if tail == "SystemRandom" or (tail == "Random" and not seeded):
            return "ambient entropy"
        if tail != "Random":
            return "the process-global RNG"
    return None


def _import_origins(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for the module's aliasing imports
    (``from time import perf_counter as clock``, ``import time as t``)."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    origins[alias.asname] = alias.name
    return origins


def _host_call(node: ast.AST, origins: Dict[str, str]) -> Optional[Tuple[str, str]]:
    """``(origin, input)`` when ``node`` is a call reading host input."""
    if not isinstance(node, ast.Call):
        return None
    chain = attr_chain(node.func)
    if not chain:
        return None
    origin = ".".join([origins.get(chain[0], chain[0]), *chain[1:]])
    reads = host_input(origin, bool(node.args or node.keywords))
    return (origin, reads) if reads else None


@register
class NoWallclockOrUnseededRng(Rule):
    """no-wallclock-or-unseeded-rng — within ``deterministic-paths`` (the
    model layers plus everything else a worker's cell call reaches:
    workloads, filesystem, kernel, analyses), no call may read
    host input of any kind, reachable or not."""

    name = "no-wallclock-or-unseeded-rng"
    summary = "model layers must not read host time or ambient randomness"
    contract = "DESIGN.md: a run is a pure function of (config, workload, seed)"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        if not path_matches(src.rel, options.get("deterministic-paths", [])):
            return
        origins = _import_origins(src.tree)
        for node in ast.walk(src.tree):
            hit = _host_call(node, origins)
            if hit:
                yield self.finding(
                    src,
                    node,
                    f"{hit[0]}() reads {hit[1]}, which breaks determinism; use the "
                    f"machine's clock_ns or a random.Random(seed) from MachineConfig.seed",
                )


@register
class NoWorkerSeedEntropy(Rule):
    """no-worker-seed-entropy — parallel workers must not invent seeds.

    In ``worker-paths`` (default ``repro/exec/``) the runner legitimately
    reads the host clock to time cells, so only host input that feeds a
    *seed* is flagged: arguments to ``random.Random(...)``, values bound
    to ``*seed*`` names, and ``seed=``-style keywords.  Everything the
    cell evaluator calls lives in ``deterministic-paths``, where
    no-wallclock-or-unseeded-rng bans host input outright.
    """

    name = "no-worker-seed-entropy"
    summary = "cell execution must not derive seeds or results from host time or entropy"
    contract = "docs/RUNNER.md: jobs=N is bit-identical to jobs=1"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        if not path_matches(src.rel, options.get("worker-paths", [])):
            return
        origins = _import_origins(src.tree)
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is None or not any(map(_seedish_target, targets)):
                    continue
                seed_exprs = [node.value]
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                is_rng_ctor = bool(chain) and chain[-1] in ("Random", "SystemRandom")
                seed_exprs = list(node.args) if is_rng_ctor else []
                seed_exprs += [
                    kw.value
                    for kw in node.keywords
                    if kw.arg is not None and "seed" in kw.arg.lower()
                ]
            else:
                continue
            for expr in seed_exprs:
                for sub in ast.walk(expr):
                    hit = _host_call(sub, origins)
                    if hit:
                        yield self.finding(
                            src,
                            sub,
                            f"seed derived from {hit[0]}() ({hit[1]}); workers must "
                            f"take seeds from the cell's arguments, never invent them",
                        )
                        break


def _seedish_target(target: ast.AST) -> bool:
    if isinstance(target, ast.Name):
        return "seed" in target.id.lower()
    if isinstance(target, ast.Attribute):
        return "seed" in target.attr.lower()
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_seedish_target(elt) for elt in target.elts)
    return False
