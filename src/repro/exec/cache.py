"""Content-addressed on-disk result cache (``.repro-cache/``).

Entries are keyed by ``sha256(canonical cell spec + source fingerprint)``
— see :func:`repro.exec.spec.cell_key` — so a cache hit is a proof-by-
construction that the cached payload is what simulating the cell *now*
would produce: change a config knob, a seed, or any line of the
simulator and the key changes with it.  That makes eviction unnecessary
for correctness; ``clear()`` and ``gc()`` exist for disk hygiene only.

Layout: one JSON file per cell at ``<dir>/<key[:2]>/<key>.json`` (the
two-character fan-out keeps directories small on big grids).  Files are
written atomically (temp + rename) so a parallel runner's workers and a
concurrent second invocation can share one cache directory safely —
worst case two processes compute the same cell and one rename wins with
an identical payload.

Every entry written carries a ``checksum`` over its canonical payload
JSON, so corruption *after* the atomic rename — bit rot, a torn page,
a hand-edited file — is detected, not served: ``get`` treats a
mismatch as a miss, and ``verify`` moves the damaged file into
``<dir>/quarantine/`` for inspection.  ``gc`` sweeps the two kinds of
dead weight a cache accumulates: orphaned ``*.tmp.<pid>`` files from
killed writers, and entries whose recorded source fingerprint no longer
matches the current tree (unreachable forever, since their key embeds
the old fingerprint).  ``python -m repro cache stats|verify|gc`` fronts
all of this from the shell (docs/RUNNER.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

__all__ = ["DEFAULT_CACHE_DIR", "QUARANTINE_DIR", "ResultCache", "payload_checksum"]

DEFAULT_CACHE_DIR = ".repro-cache"
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload) -> str:
    """Hex digest of the canonical JSON form of a cell payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Get/put of cell payloads under one cache directory."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory or DEFAULT_CACHE_DIR)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def entry_path(self, key: str) -> Path:
        """Where the entry for ``key`` lives (exists or not)."""
        return self._path(key)

    def _quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIR

    def _live_entries(self) -> Iterator[Path]:
        """Every entry file, excluding the quarantine area."""
        if not self.directory.exists():
            return
        for path in sorted(self.directory.rglob("*.json")):
            if QUARANTINE_DIR in path.parts:
                continue
            yield path

    def _tmp_files(self) -> Iterator[Path]:
        """Orphaned atomic-write temporaries (``<key>.tmp.<pid>``)."""
        if not self.directory.exists():
            return
        for path in sorted(self.directory.rglob("*.tmp.*")):
            if QUARANTINE_DIR in path.parts:
                continue
            yield path

    def get(self, key: str) -> Optional[Dict]:
        """The cached entry for ``key``, or None.  A corrupt or
        truncated file (killed writer, disk trouble) is a miss, never an
        error — the cell is simply recomputed and rewritten.  An entry
        whose payload no longer matches its recorded checksum is equally
        a miss: a silently-garbled result must never be served."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            return None
        checksum = entry.get("checksum")
        if checksum is not None and checksum != payload_checksum(entry["payload"]):
            return None
        return entry

    def put(self, key: str, entry: Dict) -> None:
        """Atomically persist one entry (temp file + rename), stamping a
        payload checksum so later corruption is detectable."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if "payload" in entry and "checksum" not in entry:
            entry = dict(entry)
            entry["checksum"] = payload_checksum(entry["payload"])
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed.

        Also sweeps ``*.tmp.<pid>`` leftovers from interrupted writers —
        the one file kind an entry-keyed cache would otherwise leak
        forever — though only real entries count toward the total.
        """
        removed = 0
        if not self.directory.exists():
            return removed
        for path in self.directory.rglob("*.tmp.*"):
            try:
                path.unlink()
            except OSError:
                pass
        for path in self.directory.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for child in sorted(self.directory.iterdir()):
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
        return removed

    # -- tooling (python -m repro cache ...) ----------------------------

    def stats(self) -> Dict:
        """Entry counts, bytes, and age span — the ``cache stats`` view."""
        entries = 0
        total_bytes = 0
        mtimes = []
        for path in self._live_entries():
            try:
                info = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += info.st_size
            mtimes.append(info.st_mtime)
        tmp_files = sum(1 for _ in self._tmp_files())
        quarantined = 0
        if self._quarantine_dir().exists():
            quarantined = sum(1 for _ in self._quarantine_dir().glob("*.json"))
        now = time.time()
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
            "tmp_files": tmp_files,
            "quarantined": quarantined,
            "oldest_age_seconds": (now - min(mtimes)) if mtimes else 0.0,
            "newest_age_seconds": (now - max(mtimes)) if mtimes else 0.0,
        }

    def verify(self) -> Dict:
        """Re-check every entry's payload against its checksum.

        Unreadable JSON, a missing payload, and a checksum mismatch all
        classify as *corrupt*; corrupt files move to ``quarantine/`` so
        the evidence survives the recompute that would otherwise
        overwrite it.  Entries written before checksums existed count as
        *legacy* — valid, but unverifiable — and are left in place.
        """
        checked = ok = legacy = corrupt = 0
        quarantined = []
        for path in list(self._live_entries()):
            checked += 1
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                entry = None
            if not isinstance(entry, dict) or "payload" not in entry:
                corrupt += 1
                quarantined.append(self._quarantine(path))
                continue
            checksum = entry.get("checksum")
            if checksum is None:
                legacy += 1
                continue
            if checksum != payload_checksum(entry["payload"]):
                corrupt += 1
                quarantined.append(self._quarantine(path))
                continue
            ok += 1
        return {
            "checked": checked,
            "ok": ok,
            "legacy": legacy,
            "corrupt": corrupt,
            "quarantined": quarantined,
        }

    def _quarantine(self, path: Path) -> str:
        target_dir = self._quarantine_dir()
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        try:
            os.replace(path, target)
        except OSError:
            pass
        return path.name

    def gc(self, fingerprint: Optional[str] = None) -> Dict:
        """Remove orphaned temp files and stale-fingerprint entries.

        An entry whose recorded ``fingerprint`` differs from the current
        one can never hit again — its key embedded the old fingerprint —
        so it is pure dead weight.  Pass ``fingerprint=None`` to sweep
        temp files only.
        """
        tmp_removed = 0
        stale_removed = 0
        bytes_freed = 0
        kept = 0
        for path in list(self._tmp_files()):
            try:
                bytes_freed += path.stat().st_size
                path.unlink()
                tmp_removed += 1
            except OSError:
                pass
        for path in list(self._live_entries()):
            stale = False
            if fingerprint is not None:
                try:
                    entry = json.loads(path.read_text(encoding="utf-8"))
                    stale = (
                        isinstance(entry, dict)
                        and entry.get("fingerprint", fingerprint) != fingerprint
                    )
                except (OSError, ValueError):
                    stale = False  # corrupt files are verify()'s business
            if stale:
                try:
                    bytes_freed += path.stat().st_size
                    path.unlink()
                    stale_removed += 1
                except OSError:
                    pass
            else:
                kept += 1
        return {
            "tmp_removed": tmp_removed,
            "stale_removed": stale_removed,
            "bytes_freed": bytes_freed,
            "entries_kept": kept,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self._live_entries())
