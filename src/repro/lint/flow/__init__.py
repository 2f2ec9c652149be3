"""repro.lint.flow — whole-program analysis beneath the rule engine.

The per-file rules see one AST at a time; the flow layer sees the whole
project.  It builds two artefacts (docs/LINT.md, "Flow analysis"):

1. a project symbol table (functions, methods, class attribute tables),
2. an approximate call graph over ``src/repro``,

then runs interprocedural passes on top — taint propagation from key
material and reachability queries — that the whole-program checks of
four rules (``key-hygiene``, ``no-worker-seed-entropy``,
``persist-through-wpq``, ``stats-registered``) consume.

:meth:`repro.lint.engine.Project.flow` builds it once per lint run from
the ASTs the engine already parsed, so every file is parsed exactly once.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import FlowGraph, build_graph
from .index import FunctionSummary, ModuleSummary, extract_module, module_name_for
from .taint import DEFAULT_KEY_SOURCES, TaintState, solve_taint

__all__ = [
    "FlowAnalysis",
    "FlowGraph",
    "FunctionSummary",
    "ModuleSummary",
    "TaintState",
    "build_graph",
    "extract_module",
    "module_name_for",
    "solve_taint",
    "DEFAULT_KEY_SOURCES",
]


class FlowAnalysis(NamedTuple):
    """The built graph plus the solved taint facts, shared by all rules."""

    graph: FlowGraph
    taint: TaintState
