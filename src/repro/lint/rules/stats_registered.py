"""stats-registered — every component bundle reaches the StatsRegistry.

``StatsRegistry.snapshot`` is the sole source of the counters that
``RunResult`` records and the figures normalise; a component whose
``StatCounters`` never gets registered silently drops its events from
every result (DESIGN.md: the machine aggregates all bundles).  The
common way to lose a bundle is constructing a component without passing
``stats=registry.create(...)`` — the component then falls back to a
private, orphaned bundle.

Project-wide, this rule flags constructor calls of any class known to
accept a ``stats`` parameter where neither a keyword ``stats=`` nor
enough positional arguments supply one.  (It originally ran only in
modules that referenced ``StatsRegistry`` by name, but the orphaned
bundles the rule exists to catch are precisely the ones created in
helper modules *away* from the registry — a module-scoped gate
whitelists the exact code most likely to be wrong.)  Self-contained
construction sites — ablation helpers probing a component's own bundle,
test fixtures — carry inline suppressions.

The rest of the contract is checked at run time, where it is exact: a
tier-1 test builds every registered scheme (crash and Anubis wiring
included) and asserts that every ``StatCounters`` constructed during
the build *is* the registry's bundle of that name, and
``RunResult.stat``/``StatCounters.stat`` raise ``KeyError`` on a
counter no component produced.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, SourceFile
from .base import Rule, register


@register
class StatsRegistered(Rule):
    name = "stats-registered"
    summary = "components that take a stats bundle are constructed with one"
    contract = "DESIGN.md: RunResult stats come from StatsRegistry.snapshot() — orphan bundles vanish"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        if not project.stats_classes:
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in project.stats_classes:
                continue
            if any(kw.arg in ("stats", None) for kw in node.keywords):
                continue  # stats= passed, or **kwargs (can't tell; trust it)
            stats_index = project.stats_classes[name]
            if len(node.args) > stats_index:
                continue  # stats supplied positionally
            yield self.finding(
                src,
                node,
                f"{name} constructed without a stats bundle; its counters will never "
                f"reach StatsRegistry.snapshot() — pass stats=registry.create(...)",
            )
