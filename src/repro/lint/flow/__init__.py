"""repro.lint.flow — whole-program analysis beneath the rule engine.

The per-file rules see one AST at a time; the flow layer sees the whole
project.  It builds three artefacts (docs/LINT.md, "Flow analysis"):

1. a module-level import graph,
2. a project symbol table (functions, methods, class attribute tables),
3. an approximate call graph over ``src/repro``,

then runs interprocedural passes on top — taint propagation from key
material and reachability queries — that the whole-program checks of
four rules (``key-hygiene``, ``no-worker-seed-entropy``,
``persist-through-wpq``, ``stats-registered``) consume.

The graph is always built from the *full* configured lint paths, even
when only a subset of files is being linted — a single-file lint or a
``--changed`` run still reasons about the whole program.  Extraction is
incremental: per-file summaries are cached on disk keyed on the same
content fingerprints ``repro.exec.fingerprint`` uses (see cache.py).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..engine import collect_files
from .cache import FlowIndexCache, IndexCacheStats, load_summaries
from .graph import FlowGraph, build_graph
from .index import INDEX_FORMAT, FunctionSummary, ModuleSummary, extract_module, module_name_for
from .taint import DEFAULT_KEY_SOURCES, TaintState, solve_taint

__all__ = [
    "FlowAnalysis",
    "FlowGraph",
    "FlowIndexCache",
    "FunctionSummary",
    "IndexCacheStats",
    "ModuleSummary",
    "TaintState",
    "build_flow",
    "build_graph",
    "extract_module",
    "module_name_for",
    "solve_taint",
    "DEFAULT_KEY_SOURCES",
    "INDEX_FORMAT",
]


class FlowAnalysis:
    """The built graph plus the solved taint facts, shared by all rules."""

    def __init__(
        self,
        graph: FlowGraph,
        taint: TaintState,
        cache_stats: IndexCacheStats,
    ) -> None:
        self.graph = graph
        self.taint = taint
        self.cache_stats = cache_stats

    def summary_stats(self) -> Dict[str, object]:
        """The ``flow`` block of the CLI's JSON summary."""
        return {
            "graph": dict(self.graph.stats),
            "index_cache": self.cache_stats.to_dict(),
        }


def _rel_for(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def flow_file_set(
    root: Path,
    options: Dict[str, object],
    extra: Iterable = (),
) -> List[Tuple[Path, str]]:
    """The ``(path, rel)`` pairs the whole-program graph is built from.

    Configured paths that do not exist under ``root`` are skipped (small
    fixture trees in tests rarely materialise every default path);
    ``extra`` — typically the files currently being linted — is unioned
    in so the graph always covers at least what the engine sees.
    """
    pairs: Dict[str, Path] = {}
    raw_paths = options.get("paths", []) or []
    targets = [root / str(p) for p in raw_paths if (root / str(p)).exists()]
    if targets:
        for path in collect_files(targets, root):
            pairs.setdefault(_rel_for(path, root), path)
    for item in extra:
        # Accept SourceFile-like objects or plain (path, rel) tuples.
        if isinstance(item, tuple):
            path, rel = item
        else:
            path, rel = item.path, item.rel
        pairs.setdefault(rel, path)
    return sorted(((path, rel) for rel, path in pairs.items()), key=lambda p: p[1])


def build_flow(
    root: Path,
    options: Dict[str, object],
    extra_files: Iterable = (),
) -> FlowAnalysis:
    """Build (or incrementally rebuild) the whole-program analysis."""
    root = Path(root)
    files = flow_file_set(root, options, extra_files)
    index_dir = options.get("flow-index-dir", ".repro-lint-index")
    directory: Optional[Path] = None
    if index_dir:
        candidate = Path(str(index_dir))
        directory = candidate if candidate.is_absolute() else root / candidate
    cache = FlowIndexCache(directory)
    summaries, stats = load_summaries(files, cache)
    graph = build_graph(summaries)
    taint = solve_taint(graph, options)
    return FlowAnalysis(graph, taint, stats)
