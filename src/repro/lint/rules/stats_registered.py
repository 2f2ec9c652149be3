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

A second check closes the loop across modules on the whole-program flow
graph (docs/RUNNER.md: figures read ``RunResult.stats``, a registry
snapshot):

* **producer side** — every class whose methods call
  ``self.stats.add(...)`` must have a registration path: one of its
  bundle-name literals appears in a ``registry.create/ensure("...")``
  call, or some ``registry.register(x.stats)`` receiver types to it
  (directly or via a subclass).  Classes whose bundle name is dynamic
  (``StatCounters(config.name)``) are exempt — they are registered by
  whoever names them.
* **consumer side** — every dotted ``.stat("bundle.key")`` literal must
  name a registered bundle, and ``key`` must be produced by some class
  associated with that bundle (classes with dynamic ``add`` arguments
  produce a wildcard).

Deliberately-standalone components (exercised only by their unit tests,
never part of a machine) carry an inline suppression at their first
``add`` site.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Finding, Project, SourceFile
from .base import Rule, merge_arms, register

#: StatsRegistry API tails that register a literal bundle name.
_CREATE_TAILS = {"create", "ensure"}


def _literal(expr: Dict) -> Optional[str]:
    """The string literal an expression *is* (not merely contains)."""
    consts = expr.get("consts", ())
    if (
        len(consts) == 1
        and isinstance(consts[0], str)
        and not expr.get("names")
        and not expr.get("attrs")
        and not expr.get("calls")
    ):
        return consts[0]
    return None


def _class_of(fnkey: str) -> Optional[str]:
    qualname = fnkey.split(":", 1)[1]
    if "." not in qualname:
        return None
    return qualname.rsplit(".", 1)[0].split(".")[-1]


class _StatsModel:
    """The project-wide bundle/counter tables, built once per graph."""

    def __init__(self, graph) -> None:
        self.graph = graph
        #: bare class -> bundle name literals it can be constructed with
        self.bundles: Dict[str, Set[str]] = {}
        #: classes whose bundle name is computed (always registered-by-caller)
        self.dynamic_bundle: Set[str] = set()
        #: literals seen in registry.create/ensure("...") calls
        self.registered: Set[str] = set()
        #: classes registered via registry.register(x.stats)
        self.registered_classes: Set[str] = set()
        #: class -> counter keys its own methods add with literals
        self.adds: Dict[str, Set[str]] = {}
        #: (class, rel) -> its first add call site in that file
        self.first_add: Dict[Tuple[str, str], Dict] = {}
        #: classes with a computed add key (produce anything)
        self.dynamic_adds: Set[str] = set()
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self) -> None:
        graph = self.graph
        for fnkey, (summary, fn) in graph.functions.items():
            cls = _class_of(fnkey)
            for index, call in enumerate(fn.calls):
                chain = call["chain"]
                tail = chain[-1]
                resolution = graph.resolutions[fnkey][index]
                if tail == "StatCounters" and cls is not None:
                    self._associate([cls], call["args"])
                if (
                    tail in _CREATE_TAILS
                    and len(chain) >= 2
                    and "registry" in chain[-2].lower()
                ):
                    name = _literal(call["args"][0]) if call["args"] else None
                    if name is not None:
                        self.registered.add(name)
                if (
                    tail == "register"
                    and len(chain) >= 2
                    and "registry" in chain[-2].lower()
                    and call["args"]
                ):
                    for attr_chain in call["args"][0].get("attrs", ()):
                        if attr_chain[-1] == "stats" and len(attr_chain) >= 2:
                            self.registered_classes.update(
                                self._chain_types(summary, fn, attr_chain[:-1])
                            )
                # A constructed object handed a fresh registered bundle
                # (``Thing(stats=registry.create("thing"))``) associates
                # the literal with the object's class.
                result_types = self._result_types(resolution)
                if result_types:
                    for arg in self._all_args(call):
                        for call_index in arg.get("calls", ()):
                            inner = fn.calls[call_index]
                            if (
                                inner["chain"][-1] in _CREATE_TAILS
                                and len(inner["chain"]) >= 2
                                and "registry" in inner["chain"][-2].lower()
                            ):
                                self._associate(result_types, inner["args"])
                if (
                    tail == "add"
                    and len(chain) >= 2
                    and chain[-2] == "stats"
                    and chain[0] == "self"
                    and cls is not None
                ):
                    site = (cls, summary.rel)
                    self.first_add.setdefault(site, call)
                    key = _literal(call["args"][0]) if call["args"] else None
                    if key is not None:
                        self.adds.setdefault(cls, set()).add(key)
                    else:
                        self.dynamic_adds.add(cls)

    def _associate(self, classes, args) -> None:
        name = _literal(args[0]) if args else None
        for cls in classes:
            if name is not None:
                self.bundles.setdefault(cls, set()).add(name)
            else:
                self.dynamic_bundle.add(cls)

    def _result_types(self, resolution) -> List[str]:
        types = list(resolution.result_types)
        for target in resolution.targets:
            types.extend(self.graph.functions[target][1].return_types)
        return [t for t in types if t in self.graph.classes_by_name]

    @staticmethod
    def _all_args(call) -> List[Dict]:
        out = list(call["args"])
        out.extend(v for k, v in call["kwargs"].items() if k != "**")
        return out

    def _chain_types(self, summary, fn, chain) -> List[str]:
        """Type an attribute chain like ``controller.metadata_cache``."""
        graph = self.graph
        if chain[0] == "self" and "." in fn.qualname:
            types = [fn.qualname.rsplit(".", 1)[0].split(".")[-1]]
        else:
            types = graph._receiver_types(summary, fn, chain[0])
        for attr in chain[1:]:
            narrowed: List[str] = []
            for cls in types:
                narrowed.extend(graph.class_attr_types(cls, attr))
            if not narrowed:
                # Unique-attribute fallback: one project class declares it.
                candidates: Set[str] = set()
                for entries in graph.classes_by_name.values():
                    for owner_summary, qual in entries:
                        candidates.update(
                            owner_summary.classes[qual]["attr_types"].get(attr, ())
                        )
                narrowed = sorted(candidates) if len(candidates) == 1 else []
            types = narrowed
        return types

    # -- queries --------------------------------------------------------

    def _family(self, cls: str, seen: Optional[Set[str]] = None) -> Set[str]:
        """``cls`` plus its transitive base classes (by bare name)."""
        seen = seen if seen is not None else set()
        if cls in seen:
            return set()
        seen.add(cls)
        out = {cls}
        for summary, qual in self.graph.classes_by_name.get(cls, ()):
            for base in summary.classes[qual]["bases"]:
                out |= self._family(base, seen)
        return out

    def is_registered(self, cls: str) -> bool:
        """Does some registration path exist for ``cls``'s counters?"""
        if cls in self.dynamic_bundle or cls in self.registered_classes:
            return True
        if self.bundles.get(cls, set()) & self.registered:
            return True
        # A subclass constructed with a registered bundle covers adds
        # inherited from this class.
        for sub, sub_bundles in self.bundles.items():
            if cls in self._family(sub) and (
                sub_bundles & self.registered or sub in self.registered_classes
            ):
                return True
        return any(cls in self._family(sub) for sub in self.dynamic_bundle)

    def produced(self, bundle: str) -> Tuple[Set[str], bool]:
        """(keys, wildcard) produced by classes associated with ``bundle``."""
        keys: Set[str] = set()
        wildcard = False
        for cls, names in self.bundles.items():
            if bundle not in names:
                continue
            for member in self._family(cls):
                keys |= self.adds.get(member, set())
                if member in self.dynamic_adds:
                    wildcard = True
        return keys, wildcard

    def known_bundles(self) -> Set[str]:
        out = set(self.registered)
        for cls in self.registered_classes:
            out |= self.bundles.get(cls, set())
        return out


@register
class StatsRegistered(Rule):
    name = "stats-registered"
    summary = "counters must reach a registered bundle; counters read must be produced"
    contract = "DESIGN.md: RunResult stats come from StatsRegistry.snapshot() — orphan bundles vanish"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        return merge_arms(
            self._check_constructors(src, project), self._check_flow(src, project, options)
        )

    def _check_constructors(self, src: SourceFile, project: Project) -> Iterator[Finding]:
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

    def _check_flow(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        graph = project.flow(options).graph
        model = self._model(project, graph)
        fnkeys = graph.functions_by_rel.get(src.rel, ())

        # Producer side: report at the class's first add site in this file.
        for cls in sorted({_class_of(fnkey) for fnkey in fnkeys} - {None}):
            site = model.first_add.get((cls, src.rel))
            if site is None or model.is_registered(cls):
                continue
            bundles = sorted(model.bundles.get(cls, ()))
            named = f" ('{bundles[0]}')" if bundles else ""
            yield self.flow_finding(
                src,
                site,
                f"{cls} increments its stats bundle{named} but no "
                f"registry.create/ensure/register path surfaces it; these "
                f"counters can never appear in a RunResult",
            )

        # Consumer side: dotted .stat("bundle.key") literals.
        known = model.known_bundles()
        for fnkey in fnkeys:
            for call in graph.functions[fnkey][1].calls:
                if call["chain"][-1] != "stat" or not call["args"]:
                    continue
                literal = _literal(call["args"][0])
                if literal is None or "." not in literal:
                    continue
                bundle, key = literal.split(".", 1)
                if bundle not in known:
                    yield self.flow_finding(
                        src,
                        call,
                        f"stat('{literal}') reads bundle '{bundle}', which "
                        f"no registry.create/ensure/register call produces",
                    )
                    continue
                keys, wildcard = model.produced(bundle)
                if key not in keys and not wildcard:
                    yield self.flow_finding(
                        src,
                        call,
                        f"stat('{literal}') reads counter '{key}', which no "
                        f"class associated with bundle '{bundle}' increments",
                    )

    @staticmethod
    def _model(project: Project, graph) -> _StatsModel:
        cached = getattr(project, "_stats_model", None)
        if cached is not None and cached.graph is graph:
            return cached
        model = _StatsModel(graph)
        object.__setattr__(project, "_stats_model", model)
        return model
