"""Per-module extraction: one parsed file -> a plain-data summary.

Each module AST the engine parsed is walked exactly once and reduced to
a :class:`ModuleSummary` — imports, classes, and per-function
:class:`FunctionSummary` tables of calls, assignments, returns, and
output surfaces — in plain dict/list form, which the graph and the
taint solver query without touching the AST again.

The expression model is deliberately coarse: an expression occurrence is
summarised as the set of names it reads, the attribute chains it reads,
the call sites it contains, and its string fragments.  That is enough
for name-level taint propagation and call-graph construction; it cannot
distinguish branches of a conditional (flow-insensitive by design —
docs/LINT.md documents the imprecision).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ModuleSummary",
    "FunctionSummary",
    "extract_module",
    "module_name_for",
]

#: Calls whose result drops taint: length/shape metadata, strong digests
#: (a SHA-256 of a key is deliberately exported by e.g. the admin
#: credential path), and authenticated encryption of one key under
#: another (the ciphertext is the at-rest form).
DEFAULT_SANITIZERS = (
    "len",
    "bool",
    "isinstance",
    "type",
    "id",
    "sha256",
    "sha384",
    "sha512",
    "blake2b",
    "blake2s",
    "new",  # hashlib.new / hmac.new — keyed digests, not key material
    "compare_digest",
    "encrypt_block",
)


class FunctionSummary:
    """Dataflow facts for one function or method (or the module body)."""

    __slots__ = (
        "qualname",
        "lineno",
        "params",
        "param_types",
        "local_types",
        "return_types",
        "calls",
        "assigns",
        "returns",
        "fstrings",
        "raises",
        "subscript_stores",
    )

    def __init__(self, qualname: str, lineno: int) -> None:
        self.qualname = qualname
        self.lineno = lineno
        self.params: List[str] = []
        #: param / local name -> candidate class-name annotations.
        self.param_types: Dict[str, List[str]] = {}
        self.local_types: Dict[str, List[str]] = {}
        #: class names the return annotation mentions (types the call
        #: result at every resolved call site of this function).
        self.return_types: List[str] = []
        #: call sites: {"chain": [...], "args": [expr], "kwargs": {k: expr},
        #:  "line": int, "col": int}
        self.calls: List[Dict] = []
        #: [{"targets": [name], "expr": expr}]
        self.assigns: List[Dict] = []
        #: [expr] for each return statement
        self.returns: List[Dict] = []
        #: [{"expr": expr, "line": int, "col": int}] per f-string hole
        self.fstrings: List[Dict] = []
        #: [{"call": call-index or None, "expr": expr, "line", "col"}]
        self.raises: List[Dict] = []
        #: ``x[...] = v`` stores: [{"target_chain": [...], "expr": expr}]
        self.subscript_stores: List[Dict] = []


class ModuleSummary:
    """Everything the flow graph needs to know about one module."""

    __slots__ = (
        "rel",
        "name",
        "is_package",
        "imports",
        "classes",
        "functions",
    )

    def __init__(self, rel: str, name: str, is_package: bool) -> None:
        self.rel = rel
        self.name = name
        self.is_package = is_package
        #: local binding -> ["module"] or ["module", "symbol"]
        self.imports: Dict[str, List[str]] = {}
        #: class name -> {"bases": [...], "attr_types": {attr: [classes]},
        #:  "methods": [qualname, ...], "lineno": int, "decorators": [...]}
        self.classes: Dict[str, Dict] = {}
        #: qualname -> FunctionSummary ("<module>" holds the module body)
        self.functions: Dict[str, FunctionSummary] = {}


def module_name_for(rel: str) -> Tuple[str, bool]:
    """Dotted module name for a repo-relative path, plus is-package.

    ``src/repro/crypto/keys.py`` -> ``repro.crypto.keys``;
    ``src/repro/crypto/__init__.py`` -> ``repro.crypto`` (package).
    A leading ``src/`` is dropped so import targets match the names
    modules import each other by.
    """
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


# ----------------------------------------------------------------------
# Expression summaries
# ----------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST filling a :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self._fn_stack: List[FunctionSummary] = []
        self._class_stack: List[str] = []
        module_fn = FunctionSummary("<module>", 1)
        summary.functions["<module>"] = module_fn
        self._module_fn = module_fn

    # -- helpers ---------------------------------------------------------

    @property
    def _fn(self) -> FunctionSummary:
        return self._fn_stack[-1] if self._fn_stack else self._module_fn

    def _annotation_names(self, node: Optional[ast.AST]) -> List[str]:
        """Candidate class names mentioned by an annotation expression."""
        if node is None:
            return []
        names: List[str] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.append(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                # String annotations: take the last dotted component of
                # every identifier-looking token.
                token = sub.value.strip()
                for piece in token.replace("[", " ").replace("]", " ").split():
                    names.append(piece.split(".")[-1].strip('"\''))
        return [n for n in names if n and n[0].isupper()]

    def _expr(self, node: Optional[ast.AST], sanitizers=DEFAULT_SANITIZERS) -> Dict:
        """Summarise an expression subtree.

        Returns ``{"names": [...], "attrs": [chain, ...], "calls": [call
        index, ...], "consts": [str, ...]}``.  Subtrees under a sanitizer
        call contribute nothing (their taint is deliberately dropped),
        but the sanitizer call itself is still recorded as a call site so
        the call graph sees the edge.
        """
        out: Dict = {"names": [], "attrs": [], "calls": [], "consts": []}
        if node is None:
            return out
        self._walk_expr(node, out, sanitizers)
        return out

    def _walk_expr(self, node: ast.AST, out: Dict, sanitizers) -> None:
        if isinstance(node, ast.Call):
            index = self._record_call(node, sanitizers)
            chain = _attr_chain(node.func) or []
            tail = chain[-1] if chain else ""
            if tail in sanitizers:
                # The call is on the graph, but nothing below it taints
                # the surrounding expression.
                return
            out["calls"].append(index)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                out["names"].append(node.id)
            return
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain is not None:
                out["attrs"].append(chain)
                return
            # Fall through into the (non-name) base expression.
            self._walk_expr(node.value, out, sanitizers)
            return
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                out["consts"].append(node.value)
            return
        if isinstance(node, ast.FormattedValue):
            # An f-string hole is an output surface wherever it occurs
            # (assigned, passed, raised); record it and read its value.
            self._fn.fstrings.append(
                {
                    "expr": self._expr(node.value, sanitizers),
                    "line": node.lineno,
                    "col": node.col_offset,
                }
            )
            self._walk_expr(node.value, out, sanitizers)
            return
        if isinstance(node, (ast.Lambda,)):
            return  # deferred bodies are walked when (if) they are called
        for child in ast.iter_child_nodes(node):
            self._walk_expr(child, out, sanitizers)

    def _record_call(self, node: ast.Call, sanitizers=DEFAULT_SANITIZERS) -> int:
        fn = self._fn
        chain = _attr_chain(node.func)
        if chain is None:
            # Call on a computed callee (``factory()(...)`` etc.); record
            # the inner expression so its own calls are still indexed.
            inner = self._expr(node.func, sanitizers)
            chain = ["<dynamic>"]
            base_args = [inner]
        else:
            base_args = []
        entry = {
            "chain": chain,
            "args": base_args + [self._expr(arg, sanitizers) for arg in node.args],
            "kwargs": {
                kw.arg if kw.arg is not None else "**": self._expr(kw.value, sanitizers)
                for kw in node.keywords
            },
            "line": node.lineno,
            "col": node.col_offset,
        }
        fn.calls.append(entry)
        return len(fn.calls) - 1

    # -- imports ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.imports[bound] = [target]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_from(node)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.summary.imports[bound] = [base, alias.name] if base else [alias.name]

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        parts = self.summary.name.split(".") if self.summary.name else []
        if not self.summary.is_package:
            parts = parts[:-1]
        up = node.level - 1
        if up > len(parts):
            return None
        base = parts[: len(parts) - up] if up else parts
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    # -- classes and functions ------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = ".".join(self._class_stack + [node.name])
        bases = []
        for b in node.bases:
            chain = _attr_chain(b)
            if chain:
                bases.append(chain[-1])
        decorators = []
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            chain = _attr_chain(target)
            if chain:
                decorators.append(chain[-1])
        info = {
            "bases": bases,
            "attr_types": {},
            "methods": [],
            "lineno": node.lineno,
            "decorators": decorators,
        }
        self.summary.classes[qual] = info
        # Dataclass-style annotated attributes type the instance.
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                candidates = self._annotation_names(item.annotation)
                if candidates:
                    info["attr_types"][item.target.id] = candidates
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        qual = ".".join(self._class_stack + [node.name])
        fn = FunctionSummary(qual, node.lineno)
        args = list(node.args.posonlyargs) + list(node.args.args)
        fn.params = [a.arg for a in args]
        if node.args.vararg is not None:
            fn.params.append(node.args.vararg.arg)
        fn.params.extend(a.arg for a in node.args.kwonlyargs)
        if node.args.kwarg is not None:
            fn.params.append(node.args.kwarg.arg)
        for a in args + list(node.args.kwonlyargs):
            candidates = self._annotation_names(a.annotation)
            if candidates:
                fn.param_types[a.arg] = candidates
        fn.return_types = self._annotation_names(node.returns)
        self.summary.functions[qual] = fn
        if self._class_stack:
            cls = self.summary.classes.get(".".join(self._class_stack))
            if cls is not None:
                cls["methods"].append(qual)
        self._fn_stack.append(fn)
        for stmt in node.body:
            self.visit(stmt)
        self._fn_stack.pop()

    # -- statements that carry dataflow ---------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        expr = self._expr(node.value)
        targets: List[str] = []
        for target in node.targets:
            self._collect_targets(target, targets, expr)
        if targets:
            self._fn.assigns.append({"targets": targets, "expr": expr})
        self._record_ctor_types(node.value, targets)
        self._record_param_passthrough(node.value, targets)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        targets: List[str] = []
        expr = self._expr(node.value)
        self._collect_targets(node.target, targets, expr)
        if targets:
            if node.value is not None:
                self._fn.assigns.append({"targets": targets, "expr": expr})
            candidates = self._annotation_names(node.annotation)
            if candidates:
                for name in targets:
                    self._fn.local_types[name] = candidates
                self._record_self_attr_types(targets, candidates)
        if node.value is not None:
            self._record_ctor_types(node.value, targets)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        targets: List[str] = []
        expr = self._expr(node.value)
        self._collect_targets(node.target, targets, expr)
        if targets:
            self._fn.assigns.append({"targets": targets, "expr": expr})

    def visit_For(self, node: ast.For) -> None:
        # ``for x in expr`` assigns elements of expr to x: element taint
        # approximates container taint.
        targets: List[str] = []
        expr = self._expr(node.iter)
        self._collect_targets(node.target, targets, expr)
        if targets:
            self._fn.assigns.append({"targets": targets, "expr": expr})
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            expr = self._expr(item.context_expr)
            targets: List[str] = []
            if item.optional_vars is not None:
                self._collect_targets(item.optional_vars, targets, expr)
            if targets:
                self._fn.assigns.append({"targets": targets, "expr": expr})
        for stmt in node.body:
            self.visit(stmt)

    def _collect_targets(self, target: ast.AST, out: List[str], expr: Dict) -> None:
        if isinstance(target, ast.Name):
            out.append(target.id)
        elif isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            if chain is not None:
                out.append(".".join(chain))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._collect_targets(elt, out, expr)
        elif isinstance(target, ast.Subscript):
            chain = _attr_chain(target.value)
            if chain is not None:
                self._fn.subscript_stores.append(
                    {"target_chain": chain, "expr": expr}
                )
        elif isinstance(target, ast.Starred):
            self._collect_targets(target.value, out, expr)

    def _record_ctor_types(self, value: ast.AST, targets: List[str]) -> None:
        """``x = ClassName(...)`` types x (and ``self.x``) as ClassName."""
        if not (isinstance(value, ast.Call) and targets):
            return
        chain = _attr_chain(value.func)
        if not chain:
            return
        tail = chain[-1]
        if not (tail and tail[0].isupper()):
            return
        for name in targets:
            self._fn.local_types[name] = [tail]
        self._record_self_attr_types(targets, [tail])

    def _record_param_passthrough(self, value: ast.AST, targets: List[str]) -> None:
        """``self.x = param`` copies the parameter's annotated type."""
        if not (isinstance(value, ast.Name) and targets):
            return
        candidates = self._fn.param_types.get(value.id)
        if candidates:
            self._record_self_attr_types(targets, candidates)

    def _record_self_attr_types(self, targets: List[str], candidates: List[str]) -> None:
        if not self._class_stack:
            return
        cls = self.summary.classes.get(".".join(self._class_stack))
        if cls is None:
            return
        for name in targets:
            if name.startswith("self."):
                cls["attr_types"].setdefault(name[len("self."):], candidates)

    def visit_Return(self, node: ast.Return) -> None:
        self._fn.returns.append(self._expr(node.value))

    def visit_Raise(self, node: ast.Raise) -> None:
        expr = self._expr(node.exc)
        self._fn.raises.append(
            {
                # The constructor call (if the raise builds one inline)
                # was just recorded by _expr; its args carry the taint.
                "call": expr["calls"][0] if expr["calls"] else None,
                "expr": expr,
                "line": node.lineno,
                "col": node.col_offset,
            }
        )

    def visit_Expr(self, node: ast.Expr) -> None:
        # Bare expression statements (most call sites live here).
        self._expr(node.value)

    def generic_visit(self, node: ast.AST) -> None:
        # Statements without a dedicated visitor (if/while/try/assert...)
        # still carry call sites in their expression fields.
        for _field, value in ast.iter_fields(node):
            if isinstance(value, ast.expr):
                self._expr(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._expr(item)
                    elif isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST):
                self.visit(value)


def extract_module(rel: str, tree: ast.Module) -> ModuleSummary:
    """Walk one parsed module into its :class:`ModuleSummary`."""
    name, is_package = module_name_for(rel)
    summary = ModuleSummary(rel, name, is_package)
    extractor = _Extractor(summary)
    for stmt in tree.body:
        extractor.visit(stmt)
    return summary
