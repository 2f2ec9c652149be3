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
    # seed (no-wallclock-or-unseeded-rng): every module a worker's
    # execute_cell reaches, so a cell result is a function of its spec.
    "deterministic-paths": [
        "repro/sim/",
        "repro/secmem/",
        "repro/mem/",
        "repro/core/",
        "repro/crypto/",
        "repro/faults/",
        "repro/workloads/",
        "repro/fs/",
        "repro/kernel/",
        "repro/analysis/",
    ],
    # Worker-executed runner code: wall-timing is fine here, but seeds
    # must come from the cell spec (no-worker-seed-entropy's per-file check).
    "worker-paths": ["repro/exec/"],
    # Layers that handle key material (key-hygiene's repr/log/weak-hash
    # checks).
    "crypto-paths": [
        "repro/crypto/",
        "repro/core/",
        "repro/secmem/",
        "repro/kernel/",
        "repro/fs/",
        "repro/faults/",
    ],
    # The only modules that may touch NVM lines directly: the ones that
    # own the persist path (persist-through-wpq flags raw line access
    # everywhere else).
    "nvm-write-paths": [
        "repro/mem/controller.py",
        "repro/mem/nvm.py",
        "repro/secmem/secure_controller.py",
        "repro/core/fsencr.py",
        "repro/core/ott.py",
        "repro/faults/lifecycle.py",
    ],
    # The only modules that may call SecretKey.reveal(): the AES key
    # schedule and key wrapping, the OTT spill region's sealing, and the
    # machine-transport package (key-hygiene).
    "key-reveal-paths": [
        "repro/crypto/",
        "repro/core/ott.py",
        "repro/core/transport.py",
    ],
    # Where the config-not-component contract applies.
    "benchmark-paths": ["benchmarks/"],
    # The modules allowed to construct wired machine components: the
    # machine and its config's recovery-object builders
    # (builder-owns-wiring).
    "builder-paths": ["repro/sim/machine.py", "repro/sim/config.py"],
    # The one module allowed to touch CounterBlock fields directly.
    "counter-modules": ["repro/secmem/counters.py"],
    # Narrowest *_BITS width policed as a literal mask/shift.
    "mask-min-bits": 14,
}
