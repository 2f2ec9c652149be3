"""builder-owns-wiring — a machine is wired from its config, in one place.

The scheme-registry contract (docs/SCHEMES.md): a scheme column is a
declarative :class:`~repro.sim.schemes.SchemeSpec` that projects onto a
:class:`~repro.sim.config.MachineConfig`, and the *only* code that turns
a config into live components is ``Machine.__init__`` (plus the
config's own recovery-object builders).  Code elsewhere that calls
``FsEncrController(...)`` or ``DaxFilesystem(...)`` directly forks the
construction path: its machine silently stops matching what the
registry (and therefore every figure and sweep cell) describes the
moment the machine's wiring changes.

This rule flags direct constructor calls of the wired component set —
controllers, the filesystem/overlay pair, the MMIO channel, the WPQ,
the cache hierarchy, the OTT, the crash domain, and the recovery
objects (Osiris recovery, the Anubis shadow table) — anywhere outside
the wiring modules (``builder-paths``: ``repro/sim/machine.py`` and
``repro/sim/config.py``).  The passive :class:`~repro.mem.NVMDevice` is
deliberately not in the set: white-box unit tests and probes build bare
devices all the time, and a device carries no scheme-dependent wiring.
Deliberate white-box constructions (security proofs, transport probes,
ablation benchmarks) suppress inline with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, SourceFile, path_matches
from .base import Rule, register

#: Components whose construction *is* machine wiring.  One entry per
#: class ``Machine.__init__`` or ``MachineConfig`` constructs.
WIRED_COMPONENTS = frozenset(
    {
        "PlainMemoryController",
        "BaselineSecureController",
        "FsEncrController",
        "CacheHierarchy",
        "DaxFilesystem",
        "SoftwareEncryptionOverlay",
        "PageCache",
        "MMIORegisters",
        "WritePendingQueue",
        "OpenTunnelTable",
        "CrashDomain",
        "OsirisRecovery",
        "ShadowTable",
    }
)


@register
class BuilderOwnsWiring(Rule):
    name = "builder-owns-wiring"
    summary = "machine components are wired from the config by Machine, nowhere else"
    contract = "docs/SCHEMES.md: construction lives in Machine.__init__"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        builder_paths = options.get(
            "builder-paths", ["repro/sim/machine.py", "repro/sim/config.py"]
        )
        if path_matches(src.rel, builder_paths):
            return
        if path_matches(src.rel, ["tests/"]):
            # Unit tests construct components white-box by design.
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in WIRED_COMPONENTS:
                continue
            yield self.finding(
                src,
                node,
                f"{name} constructed outside Machine.__init__; build a "
                f"Machine from a MachineConfig instead (or suppress with a "
                f"justification for white-box use)",
            )
