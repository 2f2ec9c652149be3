"""The linter's one configuration table: what to lint and each rule's scope.

Rules read their path scopes and thresholds from :data:`DEFAULTS`, which
the CLI passes to every rule as ``options``.  There is no per-project
override: changing a scope is a reviewed edit to this table.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["DEFAULTS"]

DEFAULTS: Dict[str, object] = {
    # What to lint, relative to --root (paths absent from the root are
    # skipped).
    "paths": ["src", "benchmarks"],
    # Layers whose timing/crypto state must be a pure function of the
    # seed (no-wallclock-or-unseeded-rng).
    "deterministic-paths": [
        "repro/sim/",
        "repro/secmem/",
        "repro/mem/",
        "repro/core/",
        "repro/crypto/",
        "repro/faults/",
    ],
    # Worker-executed runner code: wall-timing is fine here, but seeds
    # must come from the cell spec (no-worker-seed-entropy's per-file check).
    "worker-paths": ["repro/exec/"],
    # Layers that handle key material (key-hygiene's per-file check).
    "crypto-paths": [
        "repro/crypto/",
        "repro/core/",
        "repro/secmem/",
        "repro/kernel/",
        "repro/fs/",
        "repro/faults/",
    ],
    # Layers allowed to write NVM-backed state (persist-through-wpq checks
    # that their writes reach the WPQ).
    "nvm-write-paths": ["repro/mem/", "repro/secmem/", "repro/core/", "repro/faults/"],
    # Where the config-not-component contract applies.
    "benchmark-paths": ["benchmarks/"],
    # The one module allowed to construct wired machine components
    # (builder-owns-wiring).
    "builder-paths": ["repro/sim/build.py"],
    # The one module allowed to touch CounterBlock fields directly.
    "counter-modules": ["repro/secmem/counters.py"],
    # Narrowest *_BITS width policed as a literal mask/shift.
    "mask-min-bits": 14,
    # Worker execution entry points ("module:qualname") for the call-graph
    # check of no-worker-seed-entropy.  execute_cell is the pure cell
    # evaluator; the runner's timing wrapper legitimately reads the host
    # clock *around* it, never inside it.
    "flow-entry-points": ["repro.exec.spec:execute_cell"],
    # Functions whose return value is raw key material (taint seeds for
    # key-hygiene; resolved against the call graph by bare name).
    "key-source-functions": [
        "generate_fek",
        "derive_fekek",
        "unwrap_key",
        "derive_file_key",
        "rotated_file_key",
    ],
}
