"""persist-through-wpq — NVM state mutates only inside the persist path.

Durability in the model, as on real hardware, is a property of the
memory controller's persist path: stores reach the PCM array through the
Write Pending Queue / ADR domain and — for secure schemes — through the
encryption engine that advances counters and reseals lines (PAPER §II,
DESIGN.md).  A workload or filesystem poking ciphertext directly into
the backing store bypasses counters, Merkle updates, wear tracking and
timing at once, producing results that silently disagree with the
crash-consistency model.  Outside ``nvm-write-paths`` — the six modules
that own the persist path: the memory controller, the NVM store, the
secure and FsEncr controllers, the OTT spill region and the crash
lifecycle — this rule flags:

* calls to ``*.write_line(...)`` (the ``NVMStore`` raw write);
* calls to ``*.read_line(...)`` — a raw ciphertext read outside the
  persist path bypasses decryption, Merkle verification and the read
  timing path, so "read" results silently skip the model's latency and
  integrity machinery (legitimate attacker-view reads carry an inline
  suppression);
* subscript assignment into a ``._lines`` backing dict;
* direct ``device.write(...)`` / ``nvm.write(...)`` timing calls that
  skip the controller.

The scope is per module, not per layer: a new ``mem/`` module that writes
lines is flagged until it is reviewed into the table, so a write the
crash sweep cannot see never lands silently.  Deliberately functional
stores (the attacker's DIMM view, golden-state replay) carry an inline
suppression explaining why the WPQ model must not see them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Project, SourceFile, path_matches
from .base import Rule, attr_chain, register

_DEVICE_NAMES = {"device", "nvm", "dimm"}


@register
class PersistThroughWpq(Rule):
    name = "persist-through-wpq"
    summary = "NVM lines are read and written raw only by the modules that own the persist path"
    contract = "PAPER §II, §VI / DESIGN.md: persists flow store -> WPQ/encryption engine -> PCM"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        if path_matches(src.rel, options.get("nvm-write-paths", [])):
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr == "write_line":
                    yield self.finding(
                        src,
                        node,
                        "raw NVMStore.write_line outside the persist path bypasses "
                        "encryption counters and the WPQ; go through the memory controller",
                    )
                elif attr == "read_line":
                    yield self.finding(
                        src,
                        node,
                        "raw NVMStore.read_line outside the persist path bypasses "
                        "decryption, integrity verification and read timing; use "
                        "controller.read_data or Machine.load",
                    )
                elif attr == "write":
                    chain = attr_chain(node.func) or []
                    if len(chain) >= 2 and chain[-2] in _DEVICE_NAMES:
                        yield self.finding(
                            src,
                            node,
                            "direct NVM device write bypasses the controller persist path; "
                            "use Machine.store/persist or the controller API",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "_lines"
                    ):
                        yield self.finding(
                            src,
                            target,
                            "mutating a '._lines' NVM backing dict directly bypasses the "
                            "persist path; use the owning component's API",
                        )
