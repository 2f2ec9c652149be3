"""The source-text guards of the simulator's contracts.

DESIGN.md ("Contracts and their guards") gives each of the ten
contracts FsEncr's argument rests on exactly one guard: a type, a
run-time check, an end-to-end digest, or one of the short walks below
over every module of ``src/repro`` and ``benchmarks``.  Each walk lists
the exact sites it finds; an allowed site is named here with its
reason, so adding one is a reviewed edit to this file.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.mem.stats import StatsRegistry

ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def _modules() -> Dict[str, ast.Module]:
    """Every module, parsed once, keyed by its path relative to
    ``src/repro`` (benchmarks keep their ``benchmarks/`` prefix)."""
    trees = {}
    for base, prefix in ((ROOT / "src" / "repro", ""), (ROOT / "benchmarks", "benchmarks/")):
        for path in sorted(base.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            trees[prefix + path.relative_to(base).as_posix()] = ast.parse(text, str(path))
    return trees


def _walk(skip: Tuple[str, ...] = ()) -> Iterator[Tuple[str, ast.AST]]:
    for rel, tree in _modules().items():
        if not rel.startswith(skip):
            for node in ast.walk(tree):
                yield rel, node


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else None
    return None


def _callee(node: ast.AST) -> Optional[str]:
    """The last name of a call's target: ``f`` for ``f()`` and ``a.b.f()``."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def test_no_contract_in_an_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # silently stops checking; src/ raises ValueError/RuntimeError.
    asserts = [f"{rel}:{node.lineno}" for rel, node in _walk(skip=("benchmarks/",))
               if isinstance(node, ast.Assert)]
    assert asserts == []


# -- the Python floor: pyproject.toml's requires-python ------------------

FLOOR = (3, 9)
#: ``dataclass``/``field`` keywords that raise ``TypeError`` before 3.10.
POST_FLOOR_KEYWORDS = {"slots", "kw_only"}


def test_src_parses_and_builds_dataclasses_on_the_floor():
    # Syntax newer than the floor fails to parse there; the dataclass
    # keywords parse fine but raise at import time on 3.9.
    unparsable, late_keywords = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), rel, feature_version=FLOOR)
        except SyntaxError as error:
            unparsable.append(f"{rel}:{error.lineno}")
            continue
        late_keywords += [f"{rel}:{node.lineno}" for node in ast.walk(tree)
                          if _callee(node) in ("dataclass", "field")
                          and {kw.arg for kw in node.keywords} & POST_FLOOR_KEYWORDS]
    assert unparsable == []
    assert late_keywords == []


# -- key hygiene (§III-E): raw key bytes stay in the key modules ---------

#: The AES key schedule and key wrapping, the OTT spill region's sealing,
#: and the machine transport's sealed key package.
REVEAL_MODULES = ("crypto/", "core/ott.py", "core/transport.py")
WEAK_HASHES = {"md5", "sha1"}


def test_secret_key_revealed_only_in_key_modules():
    reveals = [f"{rel}:{node.lineno}" for rel, node in _walk()
               if _callee(node) == "reveal" and isinstance(node.func, ast.Attribute)
               and not rel.startswith(REVEAL_MODULES)]
    assert reveals == []


def test_no_weak_hash_anywhere():
    weak = []
    for rel, node in _walk():
        if isinstance(node, ast.Attribute) and _dotted(node) in {"hashlib.md5", "hashlib.sha1"}:
            weak.append(f"{rel}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
            weak += [f"{rel}:{node.lineno}" for a in node.names if a.name in WEAK_HASHES]
        elif (isinstance(node, ast.Call) and _dotted(node.func) in {"hashlib.new", "hashlib.pbkdf2_hmac"}
              and node.args and isinstance(node.args[0], ast.Constant)
              and str(node.args[0].value).lower() in WEAK_HASHES):
            weak.append(f"{rel}:{node.lineno}")
    assert weak == []


# -- determinism: a run is a pure function of (config, workload, seed) ---

#: Every package a grid cell's call reaches, except the runner itself
#: (``exec/`` times cells with the host clock; its seeds come from the
#: cell's arguments, which the ``--jobs 1 == --jobs 2`` checks pin).
MODEL_PACKAGES = ("sim/", "secmem/", "mem/", "core/", "crypto/", "faults/",
                  "workloads/", "fs/", "kernel/", "analysis/")
HOST_MODULES = {"time", "datetime", "secrets", "uuid"}
HOST_OS_CALLS = {"urandom", "getrandom", "getpid"}


def _host_input(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in HOST_MODULES or (a.name == "random" and a.asname)
                   for a in node.names)
    if isinstance(node, ast.ImportFrom) and not node.level:
        root = (node.module or "").split(".")[0]
        return root in HOST_MODULES | {"random"} or (
            root == "os" and any(a.name in HOST_OS_CALLS for a in node.names))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return ((node.value.id == "os" and node.attr in HOST_OS_CALLS)
                or (node.value.id == "random" and node.attr != "Random"))
    if isinstance(node, ast.Call) and _dotted(node.func) == "random.Random":
        return not (node.args or node.keywords)
    return False


def test_model_reads_no_host_clock_or_entropy():
    # ``random`` only as ``random.Random(<seed>)``: no module-level
    # ``random.*`` draw, no ``SystemRandom``, no self-seeded ``Random()``.
    hits = [f"{rel}:{node.lineno}" for rel, node in _walk()
            if rel.startswith(MODEL_PACKAGES) and _host_input(node)]
    assert hits == []


# -- integer cycle accounting: counters are exact ints -------------------


def test_snapshot_rejects_a_non_int_counter():
    registry = StatsRegistry()
    bundle = registry.create("nvm")
    bundle.add("writes", 3)
    assert registry.snapshot() == {"nvm.writes": 3}
    bundle.counters["writes"] += 0.5  # how the interpreter flushes
    with pytest.raises(TypeError, match="'nvm.writes' holds float 3.5"):
        registry.snapshot()


# -- counter overflow (§II-C, §III-D): only CounterBlock moves counters --


def test_counter_fields_change_only_through_counter_block():
    # A store to ``.major``/``.minors`` (or into ``.minors[i]``) outside
    # secmem/counters.py skips bump()'s overflow path; a bump() whose
    # result is dropped loses the "re-encrypt the page now" signal.
    hits = []
    for rel, node in _walk():
        if rel == "secmem/counters.py":
            continue
        target = node.value if isinstance(node, ast.Subscript) else node
        if (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(target, ast.Attribute)
                and target.attr in {"major", "minors"}):
            hits.append(f"{rel}:{node.lineno}: .{target.attr} stored")
        elif isinstance(node, ast.Expr) and _callee(node.value) == "bump":
            hits.append(f"{rel}:{node.lineno}: bump() result discarded")
    assert hits == []


#: The persisted-line journal stands in for reading a crashed machine's
#: NVM counter lines back: the controller declares it and writes it on
#: each counter-line persist; faults/lifecycle.py, the crash model, lands
#: metadata flips in it and reboot installs the recovered lines.
JOURNAL_WRITERS = {("secmem/secure_controller.py", "__init__"),
                   ("secmem/secure_controller.py", "_journal_counter_persist")}


def test_persisted_line_journal_has_one_writer():
    # A second writer (an executor mirroring the journal, say) could
    # record a value no persist made durable, and recovery would start
    # its Osiris window from it.  Any mention counts: an alias is how
    # such a mirror would write.
    hits = []
    for rel, tree in _modules().items():
        if rel == "faults/lifecycle.py":
            continue
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and (rel, func.name) in JOURNAL_WRITERS
                   for node in ast.walk(func)}
        hits += [f"{rel}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "_persisted_lines"
                 and id(node) not in allowed]
    assert hits == []

# -- persist through the WPQ (§II, §VI): raw NVM lines stay in its path --

PERSIST_PATH = {"mem/controller.py", "mem/nvm.py", "secmem/secure_controller.py",
                "core/fsencr.py", "core/ott.py", "faults/lifecycle.py"}
RAW_NVM_EXCEPTIONS = {
    # The pre-DAX software stack has no secure controller (Figure 1(a)).
    ("fs/ecryptfs.py", "device.write"): 1,
    # Table I's pulled DIMM: the attacker reads ciphertext directly.
    ("analysis/security.py", "read_line"): 1,
}


def _raw_nvm_access(node: ast.AST) -> Optional[str]:
    """``read_line``/``write_line`` on the NVM store, an index into its
    ``_lines``, or a ``device.write`` that skips the controller."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        return "_lines[]" if node.value.attr == "_lines" else None
    name = _callee(node)
    if name in {"read_line", "write_line"}:
        return name
    if name == "write" and isinstance(node.func, ast.Attribute):
        owner = (_dotted(node.func.value) or "").rsplit(".", 1)[-1]
        return f"{owner}.write" if owner in {"device", "nvm", "dimm"} else None
    return None


def test_raw_nvm_lines_only_on_the_persist_path():
    found = Counter((rel, kind) for rel, node in _walk()
                    if rel not in PERSIST_PATH and (kind := _raw_nvm_access(node)))
    assert found == RAW_NVM_EXCEPTIONS


# -- a machine is wired from its config, in one place --------------------

#: Every class ``Machine.__init__`` or ``MachineConfig`` constructs.
WIRED_COMPONENTS = {
    "PlainMemoryController", "BaselineSecureController", "FsEncrController",
    "CacheHierarchy", "DaxFilesystem", "SoftwareEncryptionOverlay", "PageCache",
    "MMIORegisters", "WritePendingQueue", "OpenTunnelTable", "CrashDomain",
    "ShadowTable",
}
BUILDERS = {"sim/machine.py", "sim/config.py"}
WIRING_EXCEPTIONS = {
    # Standalone fallbacks: Machine injects the wired part.
    ("fs/ecryptfs.py", "PageCache"): 1,
    ("core/fsencr.py", "OpenTunnelTable"): 1,
    # Standalone controller images that no machine owns: Table I's
    # attack analysis and the receiving side of a machine transport.
    ("analysis/security.py", "FsEncrController"): 1,
    ("core/transport.py", "FsEncrController"): 1,
    # White-box ablation of the overflow path on a bare controller.
    ("benchmarks/bench_ablation_overflow.py", "BaselineSecureController"): 1,
}


def test_components_are_wired_only_by_the_machine():
    # Benchmarks construct configs, never components (sim/config.py);
    # nothing but Machine turns a config into parts.
    found = Counter((rel, _callee(node)) for rel, node in _walk()
                    if rel not in BUILDERS and _callee(node) in WIRED_COMPONENTS)
    assert found == WIRING_EXCEPTIONS


# -- per-access records carry no field that nothing reads ---------------

#: The records minted per access, translation or mapping, by module.
PER_ACCESS_RECORDS = {
    "mem/hierarchy.py": "AccessOutcome",
    "kernel/mmu.py": "TranslationResult",
    "kernel/page_table.py": "PageTableEntry",
    "mem/controller.py": "MemoryRequest",
    "mem/cache.py": "Eviction",
}


def _slots(tree: ast.Module, name: str) -> Tuple[str, ...]:
    """The names in class ``name``'s ``__slots__`` tuple."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and [_dotted(t) for t in stmt.targets] == ["__slots__"]):
                    return tuple(ast.literal_eval(stmt.value))
    raise AssertionError(f"{name} has no __slots__ tuple")


def test_per_access_fields_are_read_outside_their_module():
    """A field written on every access that no other module reads is
    per-access work nothing uses.

    The match is by attribute name, whatever the object: a field counts
    as read when any other ``src/`` module loads an attribute of that
    name.  So one record's field can mask another's:
    ``PageTableEntry.dirty`` would pass on the loads of
    ``Eviction.dirty``.
    """
    readers: Dict[str, set] = {}
    for rel, node in _walk(skip=("benchmarks/",)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            readers.setdefault(node.attr, set()).add(rel)
    modules = _modules()
    unread = [
        f"{name}.{slot}"
        for rel, name in PER_ACCESS_RECORDS.items()
        for slot in _slots(modules[rel], name)
        if not readers.get(slot, set()) - {rel}
    ]
    assert unread == []
