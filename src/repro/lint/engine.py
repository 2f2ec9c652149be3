"""Core machinery: source loading, project-wide collection, rule dispatch.

The engine runs in two passes.  Pass one parses every file once and
builds a :class:`Project` index — the ``*_BITS`` constant table, the set
of classes that accept an injectable ``stats`` bundle, and the component
classes benchmarks must not construct.  Pass two runs each registered
rule over each file with the index in hand, then filters findings
through inline ``# repro-lint: disable=<rule>`` suppressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "LintError",
    "SourceFile",
    "Project",
    "collect_files",
    "lint_paths",
    "lint_sources",
    "path_matches",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Directory names never worth parsing (plus any ``*.egg-info``).
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".tox", ".venv"})

#: Component layers (used by the project index): classes defined here are
#: hardware/kernel components that benchmarks must reach only through
#: :class:`~repro.sim.config.MachineConfig`.
COMPONENT_LAYERS = (
    "repro/mem/",
    "repro/secmem/",
    "repro/core/",
    "repro/kernel/",
    "repro/fs/",
)

#: Class-name suffixes that mark passive value/config types, not
#: components (constructing these anywhere is fine).
_VALUE_SUFFIXES = (
    "Config",
    "Timing",
    "Costs",
    "Error",
    "Exception",
    "Request",
    "Result",
    "Results",
    "Entry",
    "Eviction",
    "Record",
    "Layout",
    "Key",
    "Table3",
)

_VALUE_BASES = {"Enum", "IntEnum", "Flag", "IntFlag", "Protocol", "Exception", "NamedTuple"}


class LintError(Exception):
    """Configuration or I/O problem (exit code 2, not a finding)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-root-relative, posix separators
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class SourceFile:
    """One parsed module plus its suppression table."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:  # pragma: no cover - racy filesystem
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{rel}: syntax error at line {exc.lineno}: {exc.msg}") from exc
        return cls(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            suppressions=_scan_suppressions(text),
        )

    def suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line, ())
        return "all" in rules or finding.rule in rules


def _scan_suppressions(text: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names disabled on that line.

    ``# repro-lint: disable=rule-a,rule-b`` at the end of a statement
    suppresses findings reported on that physical line; on a line of its
    own it suppresses the *next* line (handy above multi-line calls).
    ``disable=all`` disables every rule.
    """
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        before = line[: match.start()]
        target = lineno if before.strip(" \t#") else lineno + 1
        table.setdefault(target, set()).update(rules)
        if target != lineno:
            # A standalone comment also covers itself, so a suppression
            # directly on a flagged decorator/comment line still works.
            table.setdefault(lineno, set()).update(rules)
    return table


@dataclass
class Project:
    """Cross-file index built before any rule runs."""

    root: Path
    files: List[SourceFile] = field(default_factory=list)
    #: ``NAME_BITS`` -> declared width, e.g. {"GROUP_ID_BITS": 18}.
    bits_constants: Dict[str, int] = field(default_factory=dict)
    #: alias ``*_BITS`` name -> source ``*_BITS`` name, from cross-module
    #: imports (``from x import FOO_BITS as BAR_BITS``) and re-binding
    #: assignments (``BAR_BITS = pkg.FOO_BITS``); resolved into
    #: :attr:`bits_constants` at the end of :meth:`index`.
    bits_aliases: Dict[str, str] = field(default_factory=dict)
    #: class name -> positional index (self excluded) of its ``stats``
    #: parameter, for classes that accept an injectable StatCounters.
    stats_classes: Dict[str, int] = field(default_factory=dict)
    #: classes defined in component layers that benchmarks must not build.
    component_classes: Dict[str, str] = field(default_factory=dict)  # name -> defining rel path

    def index(self) -> None:
        for src in self.files:
            self._index_file(src)
        self._resolve_bits_aliases()

    def _resolve_bits_aliases(self) -> None:
        """Fixpoint-resolve alias chains into :attr:`bits_constants`.

        ``A_BITS -> B_BITS -> 18`` may need two passes when ``A_BITS`` is
        indexed before ``B_BITS``; iterate until no alias resolves, so
        chain order and file order never matter.
        """
        pending = dict(self.bits_aliases)
        while pending:
            progressed = False
            for alias, source in list(pending.items()):
                width = self.bits_constants.get(source)
                if width is not None:
                    self.bits_constants.setdefault(alias, width)
                    del pending[alias]
                    progressed = True
            if not progressed:  # unresolvable (or circular) aliases remain
                break

    def _index_file(self, src: SourceFile) -> None:
        in_component_layer = path_matches(src.rel, COMPONENT_LAYERS)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and target.id.lstrip("_").endswith("_BITS")
                ):
                    name = target.id.lstrip("_")
                    if isinstance(node.value, ast.Constant) and isinstance(node.value.value, int):
                        self.bits_constants.setdefault(name, node.value.value)
                    else:
                        source = _bits_source_name(node.value)
                        if source is not None and source != name:
                            self.bits_aliases.setdefault(name, source)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound = (alias.asname or alias.name).lstrip("_")
                    original = alias.name.lstrip("_")
                    if bound.endswith("_BITS") and original.endswith("_BITS") and bound != original:
                        self.bits_aliases.setdefault(bound, original)
            elif isinstance(node, ast.ClassDef):
                stats_index = _stats_param_index(node)
                if stats_index is not None:
                    self.stats_classes.setdefault(node.name, stats_index)
                if in_component_layer and _is_component_class(node):
                    self.component_classes.setdefault(node.name, src.rel)


def _bits_source_name(value: ast.AST) -> Optional[str]:
    """Terminal ``*_BITS`` identifier of an alias RHS, if it is one.

    Accepts a bare name (``FOO_BITS``) or a dotted reference whose last
    attribute is a ``*_BITS`` constant (``ott.FOO_BITS``).
    """
    if isinstance(value, ast.Name):
        name = value.id.lstrip("_")
    elif isinstance(value, ast.Attribute):
        name = value.attr.lstrip("_")
    else:
        return None
    return name if name.endswith("_BITS") else None


def _stats_param_index(cls: ast.ClassDef) -> Optional[int]:
    """Positional index of an optional ``stats`` parameter, if the class
    has one — either in an explicit ``__init__`` or as a dataclass field."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            names = [arg.arg for arg in item.args.args[1:]]  # drop self
            if "stats" in names:
                return names.index("stats")
            return None
    if not _has_dataclass_decorator(cls):
        return None
    fields = [
        item.target.id
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    if "stats" in fields:
        return fields.index("stats")
    return None


def _has_dataclass_decorator(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_component_class(cls: ast.ClassDef) -> bool:
    if cls.name.startswith("_"):
        return False
    if any(cls.name.endswith(suffix) for suffix in _VALUE_SUFFIXES):
        return False
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name in _VALUE_BASES or name.endswith(("Error", "Exception")):
            return False
    return True


def path_matches(rel: str, patterns: Iterable[str]) -> bool:
    """True if any pattern occurs as a path fragment of ``rel``.

    Patterns are plain posix fragments ("repro/sim/", "benchmarks/"); a
    trailing slash anchors on directory boundaries.  This deliberately
    matches both "src/repro/sim/x.py" and "repro/sim/x.py" layouts.
    """
    probe = "/" + rel
    for pattern in patterns:
        if not pattern:
            continue
        if pattern in probe or probe.endswith("/" + pattern.rstrip("/")):
            return True
    return False


def collect_files(paths: Sequence[Path], root: Path) -> List[Path]:
    """Expand files/directories into the sorted list of lintable modules.

    Skip names match whole path components *below* each lint path, so a
    checkout that itself sits under e.g. ``mirror.git/`` is still linted.
    Finding no module at all is an error, never a silent pass.
    """
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if not path.exists():
            raise LintError(f"path does not exist: {path}")
        candidates = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for candidate in candidates:
            if any(
                part in _SKIP_DIRS or part.endswith(".egg-info")
                for part in candidate.relative_to(path).parts
            ):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    if not out:
        where = ", ".join(path.as_posix() for path in paths) or root.as_posix()
        raise LintError(f"no Python files to lint under {where}")
    return out


def lint_sources(
    sources: List[SourceFile],
    root: Path,
    rules: Iterable,
    options: Dict[str, object],
    project: Optional[Project] = None,
) -> Tuple[List[Finding], int]:
    """Run ``rules`` over parsed sources.

    Returns ``(active_findings, suppressed_count)`` — suppressed findings
    are dropped, everything else is sorted by location.  ``project`` is
    the already-indexed :class:`Project` over ``sources``, built here
    when not given.
    """
    if project is None:
        project = Project(root=root, files=sources)
        project.index()
    active: List[Finding] = []
    suppressed = 0
    for src in sources:
        for rule in rules:
            for finding in rule.check(src, project, options):
                if src.suppressed(finding):
                    suppressed += 1
                else:
                    active.append(finding)
    active.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return active, suppressed


def lint_paths(
    paths: Sequence[Path],
    root: Path,
    rules: Iterable,
    options: Dict[str, object],
) -> Tuple[List[Finding], int, Project]:
    """Collect, parse once, index, lint.

    Returns ``(findings, suppressed_count, project)``; the project holds
    the parsed files.
    """
    sources = [SourceFile.parse(path, root) for path in collect_files(paths, root)]
    project = Project(root=root, files=sources)
    project.index()
    findings, suppressed = lint_sources(sources, root, rules, options, project)
    return findings, suppressed, project
