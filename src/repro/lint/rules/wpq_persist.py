"""persist-through-wpq — NVM state mutates only inside the controllers.

Durability in the model, as on real hardware, is a property of the
memory controller's persist path: stores reach the PCM array through the
Write Pending Queue / ADR domain and — for secure schemes — through the
encryption engine that advances counters and reseals lines (PAPER §II,
DESIGN.md).  A workload or filesystem poking ciphertext directly into
the backing store bypasses counters, Merkle updates, wear tracking and
timing at once, producing results that silently disagree with the
crash-consistency model.  Outside the controller layers this rule flags:

* calls to ``*.write_line(...)`` (the ``NVMStore`` raw write);
* calls to ``*.read_line(...)`` — a raw ciphertext read outside the
  controllers bypasses decryption, Merkle verification and the read
  timing path, so "read" results silently skip the model's latency and
  integrity machinery (legitimate attacker-view reads carry an inline
  suppression);
* subscript assignment into a ``._lines`` backing dict;
* direct ``device.write(...)`` / ``nvm.write(...)`` timing calls that
  skip the controller.

Inside the controller layers the rule checks the call graph instead
(PAPER §VI: crash behaviour is modelled by draining the WPQ at fault
time).  A line written by code that can never reach a
``WritePendingQueue`` enqueue/drain or a ``CrashDomain.record`` is
invisible to the crash sweep — it would survive or vanish for free.  Let
W be the functions that can (transitively) call a WPQ touch point; the
function containing every ``write_line`` call must be forward-reachable
from W — the write shares an ancestor with WPQ traffic, so a simulation
driving that ancestor exercises both.  Deliberately functional stores
(attacker's DIMM view, golden-state replay) carry an inline suppression
explaining why the WPQ model must not see them.  A program with no WPQ
touch point at all (a lone controller module) has no model to reach,
and the check stays silent there.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import Finding, Project, SourceFile, path_matches
from .base import Rule, attr_chain, register

_DEVICE_NAMES = {"device", "nvm", "dimm"}

#: WPQ/CrashDomain API tails that constitute "the WPQ model saw it".
_WPQ_TAILS = {"accept", "drain_all", "crash_drain", "record"}

#: Receiver spellings accepted when the call does not resolve (the
#: builder wires ``crash_domain`` through an Optional attribute, which
#: the type inference cannot always pierce).
_WPQ_RECEIVERS = {"wpq", "crash_domain", "domain"}

_WPQ_CLASSES = ("WritePendingQueue", "CrashDomain")


@register
class PersistThroughWpq(Rule):
    name = "persist-through-wpq"
    summary = "NVM state is written only via the controller persist path, and reaches the WPQ"
    contract = "PAPER §II, §VI / DESIGN.md: persists flow store -> WPQ/encryption engine -> PCM"

    def check(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        if path_matches(src.rel, options.get("nvm-write-paths", [])):
            return self._check_reaches_wpq(src, project, options)
        return self._check_bypass(src)

    def _check_bypass(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr == "write_line":
                    yield self.finding(
                        src,
                        node,
                        "raw NVMStore.write_line outside the controller layer bypasses "
                        "encryption counters and the WPQ; go through the memory controller",
                    )
                elif attr == "read_line":
                    yield self.finding(
                        src,
                        node,
                        "raw NVMStore.read_line outside the controller layer bypasses "
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

    def _check_reaches_wpq(self, src: SourceFile, project: Project, options) -> Iterator[Finding]:
        graph = project.flow(options).graph
        reachable = self._wpq_reachable(project, graph)
        if not reachable:
            return  # no WPQ model in the analysed program: nothing to reach
        for fnkey in graph.functions_by_rel.get(src.rel, ()):
            if fnkey in reachable:
                continue
            _summary, fn = graph.functions[fnkey]
            for call in fn.calls:
                if call["chain"][-1] == "write_line":
                    yield self.flow_finding(
                        src,
                        call,
                        f"NVM line write in {fnkey.split(':', 1)[1]} is unreachable from "
                        f"any code path that touches the write-pending queue; the "
                        f"crash sweep will never see this write",
                    )

    @staticmethod
    def _wpq_reachable(project: Project, graph) -> Set[str]:
        """Functions sharing a call path with WPQ traffic (cached on the
        project: the set is global, the rule runs per file)."""
        cached = getattr(project, "_wpq_reachable_cache", None)
        if cached is not None and cached[0] is graph:
            return cached[1]
        direct: Set[str] = set()
        for key, (_summary, fn) in graph.functions.items():
            for resolution, call in zip(graph.resolutions[key], fn.calls):
                chain = call["chain"]
                if chain[-1] not in _WPQ_TAILS or len(chain) < 2:
                    continue
                if chain[-2] in _WPQ_RECEIVERS or any(
                    cls in target for target in resolution.targets for cls in _WPQ_CLASSES
                ):
                    direct.add(key)
        ancestors = graph.callers_closure(direct)
        reachable = set(graph.forward_reachable(sorted(ancestors)))
        object.__setattr__(project, "_wpq_reachable_cache", (graph, reachable))
        return reachable
