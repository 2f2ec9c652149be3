"""The planted violations of the former whole-program lint checks.

Four rules once had a call-graph arm: key taint (key-hygiene), cell
reachability (no-worker-seed-entropy), WPQ reachability
(persist-through-wpq) and producer/consumer stats flow
(stats-registered).  Each planted violation below still fails, now in a
simpler place:

* key taint -> the :class:`~repro.crypto.keys.SecretKey` type (it
  redacts every rendering and refuses every implicit conversion) plus
  key-hygiene's per-file checks, including ``reveal()`` outside
  ``key-reveal-paths``;
* cell reachability -> no-wallclock-or-unseeded-rng over every layer a
  cell reaches (``deterministic-paths``), reachable or not;
* WPQ reachability -> persist-through-wpq's per-file bypass check
  everywhere but the six modules that own the persist path;
* stats flow -> the runtime checks: every bundle built is the
  registry's (``orphan_bundles``), and strict ``stat`` lookups.

The suppression edge cases live in ``test_lint_rules.py``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import textwrap
from pathlib import Path

import pytest

from repro.crypto import generate_fek
from repro.lint import RULES
from repro.lint.cli import main as lint_main
from repro.lint.config import DEFAULTS
from repro.lint.engine import SourceFile, lint_sources
from repro.mem.stats import StatCounters
from repro.sim import machine as machine_module
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.schemes import get_scheme


def lint_tree(tmp_path: Path, files: dict, rule: str = None):
    sources = []
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        sources.append(SourceFile.parse(target, tmp_path))
    rules = [RULES[rule]] if rule else list(RULES.values())
    findings, suppressed = lint_sources(sources, tmp_path, rules, dict(DEFAULTS))
    return findings, suppressed


def assert_hidden(text: str, key) -> None:
    raw = key.reveal()
    assert raw.hex() not in text and repr(raw) not in text
    assert "<redacted>" in text


# -- key-hygiene: the type carries what the taint check searched for ------


class _Report:
    """Stashes a key in an attribute and renders it two calls later."""

    def __init__(self, fek):
        self.fek = fek

    def line(self):
        return self._render()

    def _render(self):
        return f"fek={self.fek}"


def test_key_taint_flags_two_hop_fstring_leak(tmp_path):
    # Beyond the crypto paths nothing is searched for: the f-string two
    # hops from generate_fek renders no key bytes.
    fek = generate_fek(b"e")
    assert_hidden(_Report(fek).line(), fek)
    # Inside a crypto path the per-file check still flags the f-string.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/core/report.py": """
                from repro.crypto.keys import generate_fek

                def leak():
                    fek = generate_fek(b"e")
                    return f"fek={fek}"
            """,
        },
        rule="key-hygiene",
    )
    assert len(findings) == 1 and "f-string" in findings[0].message


def test_key_taint_flags_stats_and_exception_sinks():
    fek = generate_fek(b"e")
    with pytest.raises(TypeError):
        StatCounters("keys").add("keys", fek)
    with pytest.raises(ValueError) as excinfo:
        raise ValueError(fek)
    assert_hidden(str(excinfo.value), fek)


def test_key_taint_suppression_counts_at_sink_not_source(tmp_path):
    # Suppressing the *source* line must not hide the sink finding...
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/report.py": """
                def leak(entropy):
                    fek = generate_fek(entropy)  # repro-lint: disable=key-hygiene
                    return f"fek={fek}"
            """,
        },
        rule="key-hygiene",
    )
    assert len(findings) == 1 and suppressed == 0

    # ...while the same comment on the sink line suppresses it.
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/report.py": """
                def leak(entropy):
                    fek = generate_fek(entropy)
                    return f"fek={fek}"  # repro-lint: disable=key-hygiene
            """,
        },
        rule="key-hygiene",
    )
    assert findings == [] and suppressed == 1


def test_key_taint_allows_digest_declassification(tmp_path):
    # The sanctioned digest is the key's fingerprint; hashing the key
    # object directly is a TypeError, not a declassification.
    fek = generate_fek(b"e")
    assert fek.fingerprint() == hashlib.sha256(fek.reveal()).digest()[:8]
    with pytest.raises(TypeError):
        hashlib.sha256(fek)
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/fs/report.py": """
                from repro.crypto.keys import generate_fek

                def fingerprint():
                    fek = generate_fek(b"e")
                    return f"fp={fek.fingerprint().hex()}"
            """,
        },
        rule="key-hygiene",
    )
    assert findings == []


# -- cell determinism: every layer a cell reaches, per file --------------


SPEC = """
    from repro.sim.helper import step

    def execute_cell(spec):
        return step(spec)
"""


def test_worker_entropy_flags_transitive_clock_read(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": SPEC,
            "src/repro/sim/helper.py": """
                import time

                def step(spec):
                    return time.time()
            """,
        },
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/sim/helper.py"
    assert finding.rule == "no-wallclock-or-unseeded-rng"
    assert "host clock" in finding.message


def test_worker_entropy_suppressed_at_call_site(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": SPEC,
            "src/repro/sim/helper.py": """
                import time

                def step(spec):
                    return time.time()  # repro-lint: disable=no-wallclock-or-unseeded-rng
            """,
        },
    )
    assert findings == [] and suppressed == 1


def test_worker_entropy_allows_seeded_rng_and_unreachable_clock(tmp_path):
    # The model seeds its RNG from the spec; the runner reads the host
    # clock around execute_cell (never into a seed), which is allowed.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": SPEC,
            "src/repro/exec/runner.py": """
                import time

                from repro.exec.spec import execute_cell

                def timed_wrapper(spec):
                    start = time.perf_counter()
                    payload = execute_cell(spec)
                    return payload, time.perf_counter() - start
            """,
            "src/repro/sim/helper.py": """
                import random

                def step(spec):
                    rng = random.Random(spec)
                    return rng.random()
            """,
        },
    )
    assert findings == []


def test_model_layer_clock_read_flagged_even_when_unreachable(tmp_path):
    # Deliberately stricter than the reachability check it replaces: a
    # clock read in a model layer is flagged whether or not a cell
    # reaches it.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": SPEC,
            "src/repro/sim/helper.py": """
                import random
                import time

                def step(spec):
                    return random.Random(spec).random()

                def timed_wrapper():
                    return time.time()
            """,
        },
    )
    assert [(f.path, f.line, f.rule) for f in findings] == [
        ("src/repro/sim/helper.py", 9, "no-wallclock-or-unseeded-rng")
    ]


# -- persist-through-wpq: per file, outside the persist-path modules -----


WPQ_ENGINE = """
    class Engine:
        def __init__(self, wpq):
            self.wpq = wpq

        def tick(self, now):
            return self.wpq.accept(now)
"""

SNEAK = """
    class Device:
        def __init__(self, store):
            self.store = store

        def sneak(self, addr, data):
            self.store.write_line(addr, data){suppress}
"""

DRIVER = """
    def flush(engine, device):
        engine.tick(0)
        device.sneak(1, b"x")
"""


def test_persist_flags_write_disconnected_from_wpq(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {"src/repro/mem/engine.py": WPQ_ENGINE, "src/repro/mem/dev.py": SNEAK.format(suppress="")},
        rule="persist-through-wpq",
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/mem/dev.py"
    assert "write_line" in finding.message


def test_persist_allows_write_sharing_ancestor_with_wpq(tmp_path):
    # A write inside a module that owns the persist path is allowed.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/mem/controller.py": SNEAK.format(suppress=""),
            "src/repro/mem/driver.py": DRIVER,
        },
        rule="persist-through-wpq",
    )
    assert findings == []


def test_persist_flags_write_sharing_ancestor_outside_persist_modules(tmp_path):
    # Deliberately stricter than the reachability check it replaces: a
    # write in any other mem/ module is flagged even when a caller also
    # drives the WPQ.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/mem/dev.py": SNEAK.format(suppress=""),
            "src/repro/mem/driver.py": DRIVER,
        },
        rule="persist-through-wpq",
    )
    assert [f.path for f in findings] == ["src/repro/mem/dev.py"]


def test_persist_suppression_on_write_line(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/mem/dev.py": SNEAK.format(
                suppress="  # repro-lint: disable=persist-through-wpq"
            ),
        },
        rule="persist-through-wpq",
    )
    assert findings == [] and suppressed == 1


def test_persist_ignores_files_outside_nvm_write_paths(tmp_path):
    # Outside nvm-write-paths the raw write is exactly one bypass finding.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/analysis/probe.py": """
                class Probe:
                    def __init__(self, store):
                        self.store = store

                    def install(self, addr, data):
                        self.store.write_line(addr, data)
            """,
        },
        rule="persist-through-wpq",
    )
    assert len(findings) == 1
    assert "bypasses encryption counters and the WPQ" in findings[0].message


# -- stats: every bundle built is registered; every counter read exists --


class Widget:
    def __init__(self, stats=None):
        self.stats = stats or StatCounters("widget")

    def poke(self):
        self.stats.add("pokes")


def _build_with_widget(monkeypatch, registered: bool):
    """Build an fsencr machine whose hierarchy step also builds a Widget."""
    real = machine_module.CacheHierarchy

    def build_hierarchy(config, registry):
        stats = registry.create("widget") if registered else None
        Widget(stats=stats).poke()
        return real(config, registry=registry)

    monkeypatch.setattr(machine_module, "CacheHierarchy", build_hierarchy)
    return Machine(get_scheme("fsencr").configure(MachineConfig()))


def test_stats_flow_flags_unregistered_bundle(monkeypatch, orphan_bundles):
    machine = _build_with_widget(monkeypatch, registered=False)
    assert orphan_bundles(machine) == ["widget"]


def test_stats_flow_cleared_by_cross_module_registration(monkeypatch, orphan_bundles):
    machine = _build_with_widget(monkeypatch, registered=True)
    assert orphan_bundles(machine) == []


def test_stats_flow_checks_dotted_stat_consumers(monkeypatch):
    machine = _build_with_widget(monkeypatch, registered=True)
    result = machine.result("widgets")
    assert result.stat("widget.pokes") == 1
    with pytest.raises(KeyError, match="'widget.misses'.*keys under 'widget'"):
        result.stat("widget.misses")
    with pytest.raises(KeyError, match="'ghost.count'"):
        result.stat("ghost.count")


def test_stats_flow_suppressed_at_add_site(orphan_bundles):
    # The metadata cache's structural caches are private on purpose (their
    # construction sites carry the stats-registered suppression): a
    # partitioned build constructs them, and the runtime check exempts them.
    machine = Machine(get_scheme("fsencr+partitioned").configure(MachineConfig()))
    private = {cache.stats.name for cache in machine.controller.metadata_cache._caches.values()}
    assert len(private) > 1 and not private & set(machine.registry.names)
    assert orphan_bundles(machine) == []


# -- one parse per file ---------------------------------------------------


def test_each_file_is_parsed_once(tmp_path, monkeypatch, capsys):
    files = {
        "src/repro/crypto/report.py": """
            def leak(fek):
                return f"fek={fek}"
        """,
        "src/repro/sim/caller.py": """
            from repro.crypto.report import leak

            def show(fek):
                return leak(fek)
        """,
    }
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    code = lint_main(["--root", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["rule"] for f in payload["findings"]] == ["key-hygiene"]
    assert payload["summary"]["files"] == 2
    assert len(parses) == 2
