"""Source-tree fingerprint: the cache key's "which simulator" half.

A cached cell result is only valid for the exact simulator that produced
it — any edit to the model (a latency constant, a counter, a recovery
path) must invalidate every cached cell.  Rather than tracking which
modules a cell touches (fragile), the fingerprint hashes the whole
``src/repro`` tree: sha256 over the sorted (relative path, content hash)
pairs of every ``*.py`` file.  ~160 small files hash in a few
milliseconds, and the result is memoised per process.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

__all__ = ["file_fingerprint", "source_fingerprint", "reset_fingerprint_cache"]

#: Directory names never part of the simulator's behaviour.
_SKIP = {"__pycache__"}

_cached: Optional[str] = None


def _package_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parent.parent


def source_fingerprint(root: Optional[Path] = None) -> str:
    """Hex digest of the simulator source tree.

    ``root`` defaults to the installed ``repro`` package; passing an
    explicit root bypasses the per-process memo (tests use this to
    simulate a source change).
    """
    global _cached
    if root is None:
        if _cached is not None:
            return _cached
        digest = _fingerprint(_package_root())
        _cached = digest
        return digest
    return _fingerprint(Path(root))


def file_fingerprint(path: Path) -> str:
    """Hex digest of one file's bytes: the per-file half of the tree
    fingerprint."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fingerprint(root: Path) -> str:
    outer = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if any(part in _SKIP for part in path.parts):
            continue
        rel = path.relative_to(root).as_posix()
        outer.update(rel.encode())
        outer.update(b"\0")
        outer.update(bytes.fromhex(file_fingerprint(path)))
        outer.update(b"\0")
    return outer.hexdigest()


def reset_fingerprint_cache() -> None:
    """Drop the per-process memo (tests that edit sources need this)."""
    global _cached
    _cached = None
