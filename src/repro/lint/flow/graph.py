"""Whole-program graphs: symbols and the approximate call graph.

Built from :class:`~repro.lint.flow.index.ModuleSummary` objects, never
from ASTs.  Resolution is a
deliberate approximation (documented in docs/LINT.md):

* bare names resolve through the module's imports (with re-export
  chasing), then its own top-level functions and classes;
* ``self.method()`` resolves inside the enclosing class, walking base
  classes by name;
* ``obj.method()`` resolves through ``obj``'s inferred type — parameter
  annotations, ``x = ClassName(...)`` constructor assignments, and
  ``self.attr`` attribute types — falling back to the *unique* class
  that defines ``method`` when the receiver type is unknown;
* a method name defined by several classes with an unknown receiver is
  recorded as *ambiguous* and contributes no edge (favouring precision
  over recall: reachability rules would otherwise drown in false paths).

Function identity is ``"module.name:qualname"`` throughout.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .index import FunctionSummary, ModuleSummary

__all__ = ["CallResolution", "FlowGraph", "build_graph"]

#: Re-export chasing depth guard (cycles in package __init__ files).
_MAX_CHASE = 8

#: Method names the builtin containers define: an unknown receiver with
#: one of these is far more likely a list/dict/set/str than the single
#: project class that happens to share the name (``w.append(...)`` must
#: not edge into ``Trace.append``).  The unique-definition fallback
#: skips them; typed receivers still resolve normally.
_COLLECTION_METHODS = frozenset(
    {
        "append", "extend", "insert", "pop", "remove", "clear", "copy",
        "update", "get", "setdefault", "keys", "values", "items", "add",
        "discard", "split", "rsplit", "join", "strip", "lstrip", "rstrip",
        "encode", "decode", "format", "replace", "startswith", "endswith",
        "read", "write", "close", "sort", "reverse", "count", "index",
    }
)


class CallResolution:
    """Where one call site was resolved to."""

    __slots__ = ("targets", "origin", "result_types", "kind")

    def __init__(
        self,
        targets: Sequence[str] = (),
        origin: Optional[str] = None,
        result_types: Sequence[str] = (),
        kind: str = "unresolved",
    ) -> None:
        self.targets = list(targets)
        self.origin = origin
        self.result_types = list(result_types)
        self.kind = kind


class FlowGraph:
    """The project-wide index the flow rules query."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        #: rel path -> summary
        self.modules: Dict[str, ModuleSummary] = dict(summaries)
        #: dotted module name -> summary
        self.by_name: Dict[str, ModuleSummary] = {}
        #: "module:qualname" -> (ModuleSummary, FunctionSummary)
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionSummary]] = {}
        #: bare class name -> [(ModuleSummary, class qualname)]
        self.classes_by_name: Dict[str, List[Tuple[ModuleSummary, str]]] = {}
        #: method name -> [function key] across every class
        self.methods_by_name: Dict[str, List[str]] = {}
        #: call resolutions, aligned with FunctionSummary.calls
        self.resolutions: Dict[str, List[CallResolution]] = {}
        #: caller key -> callee keys
        self.edges: Dict[str, Set[str]] = {}
        #: callee key -> caller keys
        self.redges: Dict[str, Set[str]] = {}
        #: rel path -> function keys defined there (rule dispatch index)
        self.functions_by_rel: Dict[str, List[str]] = {}
        #: bare class name -> bare names of direct subclasses
        self.subclasses: Dict[str, Set[str]] = {}
        self.stats = {
            "modules": 0,
            "functions": 0,
            "call_sites": 0,
            "resolved": 0,
            "ambiguous": 0,
            "external": 0,
            "unresolved": 0,
        }
        self._build_tables()
        self._resolve_all()
        # Iterated refinement: each resolution round lets ``x = obj.m()``
        # type ``x`` (and ``self.attr``) from the callee's return
        # annotation or a class alias; re-resolving with the richer
        # tables then connects calls through builder-wired attributes.
        # Two-hop chains (alias -> ctor -> attr) need a second round;
        # the cap bounds pathological type churn.
        for _round in range(3):
            if not self._augment_types_from_returns():
                break
            self._reset_resolution()
            self._resolve_all()

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------

    def _build_tables(self) -> None:
        for summary in self.modules.values():
            self.by_name[summary.name] = summary
        for summary in self.modules.values():
            for qual, fn in summary.functions.items():
                key = f"{summary.name}:{qual}"
                self.functions[key] = (summary, fn)
                self.functions_by_rel.setdefault(summary.rel, []).append(key)
            for qual, info in summary.classes.items():
                bare = qual.split(".")[-1]
                self.classes_by_name.setdefault(bare, []).append((summary, qual))
                for base in info["bases"]:
                    self.subclasses.setdefault(base, set()).add(bare)
                for method_qual in info["methods"]:
                    method = method_qual.split(".")[-1]
                    self.methods_by_name.setdefault(method, []).append(
                        f"{summary.name}:{method_qual}"
                    )
        self.stats["modules"] = len(self.modules)
        self.stats["functions"] = len(self.functions)

    def _augment_types_from_returns(self) -> bool:
        """Type assignment targets from resolved callees' return
        annotations (``self.controller = builder.build_controller(...)``
        -> attr_types["controller"] = ["MemoryControllerBase"])."""
        changed = False
        for key, (summary, fn) in self.functions.items():
            for assign in fn.assigns:
                expr = assign["expr"]
                calls = expr.get("calls", ())
                types: List[str] = []
                if len(calls) == 1:
                    resolution = self.resolutions[key][calls[0]]
                    types.extend(resolution.result_types)
                    for target in resolution.targets:
                        types.extend(self.functions[target][1].return_types)
                elif not calls and len(expr.get("names", ())) == 1:
                    # Class alias: ``controller_cls = FsEncrController``
                    # (the name must *be* a class, checked via imports).
                    symbol = self.lookup_symbol(summary.name, expr["names"][0])
                    if symbol is not None and symbol[0] == "class":
                        types.append(symbol[2].split(".")[-1])
                types = sorted({t for t in types if t in self.classes_by_name})
                if not types:
                    continue
                for name in assign["targets"]:
                    if name.startswith("self."):
                        attr = name[len("self."):]
                        cls_qual = fn.qualname.rsplit(".", 1)[0] if "." in fn.qualname else None
                        if cls_qual and cls_qual in summary.classes:
                            attrs = summary.classes[cls_qual]["attr_types"]
                            merged = sorted(set(attrs.get(attr, ())) | set(types))
                            if merged != list(attrs.get(attr, ())):
                                attrs[attr] = merged
                                changed = True
                    else:
                        merged = sorted(set(fn.local_types.get(name, ())) | set(types))
                        if merged != list(fn.local_types.get(name, ())):
                            fn.local_types[name] = merged
                            changed = True
        return changed

    def _reset_resolution(self) -> None:
        self.resolutions.clear()
        self.edges.clear()
        self.redges.clear()
        for stat in ("call_sites", "resolved", "ambiguous", "external", "unresolved"):
            self.stats[stat] = 0

    # ------------------------------------------------------------------
    # symbol resolution
    # ------------------------------------------------------------------

    def lookup_symbol(
        self, module_name: str, symbol: str, _depth: int = 0
    ) -> Optional[Tuple[str, str, str]]:
        """Resolve ``symbol`` in ``module_name``.

        Returns ``(kind, module, name)`` with kind ``"function"`` or
        ``"class"``, chasing re-exports through package ``__init__``
        imports; ``None`` when the module is external or the symbol is
        genuinely unknown.
        """
        if _depth > _MAX_CHASE:
            return None
        summary = self.by_name.get(module_name)
        if summary is None:
            return None
        if symbol in summary.functions and "." not in symbol:
            return ("function", summary.name, symbol)
        if symbol in summary.classes:
            return ("class", summary.name, symbol)
        target = summary.imports.get(symbol)
        if target is not None:
            if len(target) == 2:
                # Might itself re-export (``from .base import Rule``).
                resolved = self.lookup_symbol(target[0], target[1], _depth + 1)
                if resolved is not None:
                    return resolved
                # from package import submodule
                if f"{target[0]}.{target[1]}" in self.by_name:
                    return ("module", f"{target[0]}.{target[1]}", "")
            elif target[0] in self.by_name:
                return ("module", target[0], "")
        return None

    def resolve_method(
        self, class_name: str, method: str, _seen: Optional[Set[str]] = None
    ) -> List[str]:
        """Function keys implementing ``method`` for a ``class_name``-typed
        receiver: the class itself, inherited definitions from its bases,
        and — virtual dispatch — overrides in its subclasses (a receiver
        typed as the base may hold any subclass at runtime)."""
        root = _seen is None
        seen = _seen if _seen is not None else set()
        if class_name in seen:
            return []
        seen.add(class_name)
        out: List[str] = []
        for summary, qual in self.classes_by_name.get(class_name, ()):
            method_qual = f"{qual}.{method}"
            if method_qual in summary.functions:
                out.append(f"{summary.name}:{method_qual}")
                continue
            for base in summary.classes[qual]["bases"]:
                out.extend(self.resolve_method(base, method, seen))
        if root:
            for sub in sorted(self.subclasses.get(class_name, ())):
                if sub not in seen:
                    out.extend(self._own_or_descendant_method(sub, method, seen))
        return out

    def _own_or_descendant_method(
        self, class_name: str, method: str, seen: Set[str]
    ) -> List[str]:
        """Subclass-side half of virtual dispatch: overrides only (an
        inherited definition was already found on the base)."""
        if class_name in seen:
            return []
        seen.add(class_name)
        out: List[str] = []
        for summary, qual in self.classes_by_name.get(class_name, ()):
            method_qual = f"{qual}.{method}"
            if method_qual in summary.functions:
                out.append(f"{summary.name}:{method_qual}")
        for sub in sorted(self.subclasses.get(class_name, ())):
            out.extend(self._own_or_descendant_method(sub, method, seen))
        return out

    def class_attr_types(self, class_name: str, attr: str) -> List[str]:
        """Inferred classes of ``self.<attr>`` for every same-named class."""
        out: List[str] = []
        for summary, qual in self.classes_by_name.get(class_name, ()):
            out.extend(summary.classes[qual]["attr_types"].get(attr, ()))
        return out

    def _receiver_types(
        self, summary: ModuleSummary, fn: FunctionSummary, name: str
    ) -> List[str]:
        """Candidate classes for a receiver name inside ``fn``."""
        if name == "self" and "." in fn.qualname:
            return [fn.qualname.rsplit(".", 1)[0].split(".")[-1]]
        for table in (fn.local_types, fn.param_types):
            if name in table:
                # Constructor-call names double as class names; imported
                # value types resolve through lookup below.
                return table[name]
        target = summary.imports.get(name)
        if target is not None and len(target) == 2:
            return [target[1]]
        return []

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------

    def _resolve_all(self) -> None:
        for key, (summary, fn) in self.functions.items():
            resolved: List[CallResolution] = []
            for call in fn.calls:
                resolution = self._resolve_call(summary, fn, call["chain"])
                resolved.append(resolution)
                self.stats["call_sites"] += 1
                self.stats[resolution.kind] += 1
                for target in resolution.targets:
                    self.edges.setdefault(key, set()).add(target)
                    self.redges.setdefault(target, set()).add(key)
            self.resolutions[key] = resolved

    def _class_targets(self, module: str, class_name: str) -> CallResolution:
        """A constructor call: edges into __init__/__post_init__."""
        targets = self.resolve_method(class_name, "__init__")
        targets += self.resolve_method(class_name, "__post_init__")
        return CallResolution(
            targets=targets,
            result_types=[class_name],
            kind="resolved",
            origin=f"{module}.{class_name}" if module else class_name,
        )

    def _resolve_call(
        self, summary: ModuleSummary, fn: FunctionSummary, chain: List[str]
    ) -> CallResolution:
        head = chain[0]
        if head == "<dynamic>":
            return CallResolution(kind="unresolved")

        # -- bare name ---------------------------------------------------
        if len(chain) == 1:
            symbol = self.lookup_symbol(summary.name, head)
            if symbol is not None:
                kind, module, name = symbol
                if kind == "function":
                    return CallResolution(
                        targets=[f"{module}:{name}"],
                        origin=f"{module}.{name}",
                        kind="resolved",
                    )
                if kind == "class":
                    return self._class_targets(module, name.split(".")[-1])
            # Locally defined class used before indexing order is not an
            # issue (tables are global), so this is a builtin/unknown.
            target = summary.imports.get(head)
            if target is not None:
                return CallResolution(
                    origin=".".join(target), kind="external"
                )
            if head in summary.classes:
                return self._class_targets(summary.name, head)
            # Class-alias variables: ``cls = FsEncrController; cls(...)``
            # (local_types carries class names from the augmentation pass).
            alias_types = [
                t for t in fn.local_types.get(head, ()) if t in self.classes_by_name
            ]
            if alias_types:
                targets: List[str] = []
                for cls in alias_types:
                    targets.extend(self.resolve_method(cls, "__init__"))
                    targets.extend(self.resolve_method(cls, "__post_init__"))
                return CallResolution(
                    targets=sorted(set(targets)),
                    result_types=alias_types,
                    kind="resolved",
                )
            return CallResolution(kind="unresolved")

        # -- attribute chains -------------------------------------------
        method = chain[-1]

        # module-alias calls: time.monotonic(), hashlib.sha256(), ott.f()
        target = summary.imports.get(head)
        if target is not None:
            dotted = target + chain[1:]
            origin = ".".join(dotted)
            if len(chain) == 2:
                symbol = self.lookup_symbol(".".join(target), method)
                if symbol is not None:
                    kind, module, name = symbol
                    if kind == "function":
                        return CallResolution(
                            targets=[f"{module}:{name}"], origin=origin, kind="resolved"
                        )
                    if kind == "class":
                        return self._class_targets(module, name.split(".")[-1])
            return CallResolution(origin=origin, kind="external")

        # receiver with an inferred class type (self, params, locals)
        receiver_types: List[str] = []
        if head == "self" and "." in fn.qualname:
            own_class = fn.qualname.rsplit(".", 1)[0].split(".")[-1]
            if len(chain) == 2:
                receiver_types = [own_class]
            else:
                # self.attr....method(): type the attribute.
                receiver_types = self.class_attr_types(own_class, chain[1])
        elif len(chain) == 2:
            receiver_types = self._receiver_types(summary, fn, head)

        candidates: List[str] = []
        for cls in receiver_types:
            candidates.extend(self.resolve_method(cls, method))
        if candidates:
            return CallResolution(targets=sorted(set(candidates)), kind="resolved")

        # unique-definition fallback: an unknown receiver, but only one
        # class anywhere defines this method name.
        if method in _COLLECTION_METHODS:
            return CallResolution(kind="unresolved")
        defined = self.methods_by_name.get(method, [])
        owners = {key.rsplit(".", 1)[0] for key in defined}
        if len(owners) == 1 and defined:
            return CallResolution(targets=sorted(set(defined)), kind="resolved")
        if len(owners) > 1:
            return CallResolution(kind="ambiguous")
        return CallResolution(kind="unresolved")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def function_keys_for_module_path(self, rel_suffix: str) -> List[str]:
        """Function keys whose defining file ends with ``rel_suffix``."""
        out = []
        for key, (summary, _fn) in self.functions.items():
            if summary.rel.endswith(rel_suffix):
                out.append(key)
        return sorted(out)

    def find_function(self, module: str, qualname: str) -> Optional[str]:
        key = f"{module}:{qualname}"
        return key if key in self.functions else None

    def forward_reachable(self, roots: Iterable[str]) -> Dict[str, Optional[str]]:
        """BFS over call edges; returns ``{reached: parent}`` (roots map
        to None) so callers can rebuild a shortest call chain."""
        parents: Dict[str, Optional[str]] = {}
        queue: deque = deque()
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for nxt in sorted(self.edges.get(current, ())):
                if nxt not in parents:
                    parents[nxt] = current
                    queue.append(nxt)
        return parents

    def callers_closure(self, roots: Iterable[str]) -> Set[str]:
        """Everything that can (transitively) call any of ``roots``."""
        seen: Set[str] = set()
        queue: deque = deque(root for root in roots)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            for caller in self.redges.get(current, ()):
                if caller not in seen:
                    queue.append(caller)
        return seen

    @staticmethod
    def chain_to(parents: Dict[str, Optional[str]], key: str) -> List[str]:
        """Root-to-key call chain recovered from a BFS parent map."""
        chain: List[str] = []
        cursor: Optional[str] = key
        while cursor is not None:
            chain.append(cursor)
            cursor = parents.get(cursor)
        return list(reversed(chain))


def build_graph(summaries: Dict[str, ModuleSummary]) -> FlowGraph:
    return FlowGraph(summaries)
