"""Whole-program flow analysis: the call-graph checks of the four rules
that have one, the one-parse contract (the flow graph reuses the ASTs
the engine parsed), and the flow statistics in the CLI's JSON summary.

Each call-graph check gets the same treatment: a positive fixture where
the offending flow crosses a module boundary, a suppressed variant (the
suppression must sit on the *sink* line — the source line does not
count), and a clean fixture exercising the sanctioned idiom.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.lint import RULES
from repro.lint.cli import main as lint_main
from repro.lint.config import DEFAULTS
from repro.lint.engine import SourceFile, lint_sources


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


# -- key-hygiene: taint check ---------------------------------------------


KEY_SOURCE = """
    def generate_fek():
        return b"\\x00" * 16
"""


def test_key_taint_flags_two_hop_fstring_leak(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                def leak():
                    fek = generate_fek()
                    return f"fek={fek}"
            """,
        },
        rule="key-hygiene",
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/sim/report.py"
    assert "generate_fek() key material" in finding.message
    assert "formatted string" in finding.message


def test_key_taint_flags_stats_and_exception_sinks(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                class Reporter:
                    def count(self):
                        fek = generate_fek()
                        self.stats.add("keys", fek)

                    def explode(self):
                        fek = generate_fek()
                        raise ValueError(fek)
            """,
        },
        rule="key-hygiene",
    )
    sinks = sorted(f.message.rsplit("into ", 1)[1] for f in findings)
    assert sinks == ["a StatCounters counter", "an exception message"]


def test_key_taint_suppression_counts_at_sink_not_source(tmp_path):
    # Suppressing the *source* line must not hide the sink finding...
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                def leak():
                    fek = generate_fek()  # repro-lint: disable=key-hygiene
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
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                def leak():
                    fek = generate_fek()
                    return f"fek={fek}"  # repro-lint: disable=key-hygiene
            """,
        },
        rule="key-hygiene",
    )
    assert findings == [] and suppressed == 1


def test_key_taint_allows_digest_declassification(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                import hashlib

                from repro.crypto.keys import generate_fek

                def fingerprint():
                    fek = generate_fek()
                    digest = hashlib.sha256(fek).hexdigest()
                    return f"fp={digest}"
            """,
        },
        rule="key-hygiene",
    )
    assert findings == []


# -- no-worker-seed-entropy: reachability check --------------------------


def test_worker_entropy_flags_transitive_clock_read(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": """
                from repro.sim.helper import step

                def execute_cell(spec):
                    return step(spec)
            """,
            "src/repro/sim/helper.py": """
                import time

                def step(spec):
                    return time.time()
            """,
        },
        rule="no-worker-seed-entropy",
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/sim/helper.py"
    assert "host clock" in finding.message
    assert "execute_cell -> step" in finding.message


def test_worker_entropy_suppressed_at_call_site(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": """
                from repro.sim.helper import step

                def execute_cell(spec):
                    return step(spec)
            """,
            "src/repro/sim/helper.py": """
                import time

                def step(spec):
                    return time.time()  # repro-lint: disable=no-worker-seed-entropy
            """,
        },
        rule="no-worker-seed-entropy",
    )
    assert findings == [] and suppressed == 1


def test_worker_entropy_allows_seeded_rng_and_unreachable_clock(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/exec/spec.py": """
                from repro.sim.helper import step

                def execute_cell(spec):
                    return step(spec)
            """,
            "src/repro/sim/helper.py": """
                import random
                import time

                def step(spec):
                    rng = random.Random(spec)
                    return rng.random()

                def timed_wrapper():
                    # Reads the clock but is not reachable from the entry.
                    return time.time()
            """,
        },
        rule="no-worker-seed-entropy",
    )
    assert findings == []


# -- persist-through-wpq: reachability check -----------------------------


WPQ_ENGINE = """
    class Engine:
        def __init__(self, wpq):
            self.wpq = wpq

        def tick(self, now):
            return self.wpq.accept(now)
"""


def test_persist_flags_write_disconnected_from_wpq(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/mem/dev.py": """
                class Device:
                    def __init__(self, store):
                        self.store = store

                    def sneak(self, addr, data):
                        self.store.write_line(addr, data)
            """,
        },
        rule="persist-through-wpq",
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/mem/dev.py"
    assert "Device.sneak" in finding.message
    assert "write-pending queue" in finding.message


def test_persist_allows_write_sharing_ancestor_with_wpq(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/mem/dev.py": """
                class Device:
                    def __init__(self, store):
                        self.store = store

                    def sneak(self, addr, data):
                        self.store.write_line(addr, data)
            """,
            "src/repro/mem/driver.py": """
                def flush(engine, device):
                    engine.tick(0)
                    device.sneak(1, b"x")
            """,
        },
        rule="persist-through-wpq",
    )
    assert findings == []


def test_persist_suppression_on_write_line(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/mem/engine.py": WPQ_ENGINE,
            "src/repro/mem/dev.py": """
                class Device:
                    def __init__(self, store):
                        self.store = store

                    def sneak(self, addr, data):
                        self.store.write_line(addr, data)  # repro-lint: disable=persist-through-wpq
            """,
        },
        rule="persist-through-wpq",
    )
    assert findings == [] and suppressed == 1


def test_persist_ignores_files_outside_nvm_write_paths(tmp_path):
    # Outside nvm-write-paths only the per-file check runs: the raw write
    # is one bypass finding, never an "unreachable from the WPQ" one.
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
    assert "write-pending queue" not in findings[0].message


# -- stats-registered: producer/consumer check ---------------------------


WIDGET = """
    from repro.mem.stats import StatCounters

    class Widget:
        def __init__(self):
            self.stats = StatCounters("widget")

        def poke(self):
            self.stats.add("pokes")
"""


def test_stats_flow_flags_unregistered_bundle(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {"src/repro/mem/widget.py": WIDGET},
        rule="stats-registered",
    )
    assert len(findings) == 1
    finding = findings[0]
    assert "Widget" in finding.message and "'widget'" in finding.message
    assert "never appear in a RunResult" in finding.message


def test_stats_flow_cleared_by_cross_module_registration(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/widget.py": WIDGET,
            "src/repro/sim/wiring.py": """
                def build(registry):
                    return registry.create("widget")
            """,
        },
        rule="stats-registered",
    )
    assert findings == []


def test_stats_flow_checks_dotted_stat_consumers(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/widget.py": WIDGET,
            "src/repro/sim/wiring.py": """
                def build(registry):
                    return registry.create("widget")
            """,
            "src/repro/analysis/readers.py": """
                def read_ok(result):
                    return result.stat("widget.pokes")

                def read_missing_counter(result):
                    return result.stat("widget.misses")

                def read_missing_bundle(result):
                    return result.stat("ghost.count")
            """,
        },
        rule="stats-registered",
    )
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "counter 'misses'" in messages[1]
    assert "bundle 'ghost'" in messages[0]


def test_stats_flow_suppressed_at_add_site(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/mem/widget.py": """
                from repro.mem.stats import StatCounters

                class Widget:
                    def __init__(self):
                        self.stats = StatCounters("widget")

                    def poke(self):
                        self.stats.add("pokes")  # repro-lint: disable=stats-registered
            """
        },
        rule="stats-registered",
    )
    assert findings == [] and suppressed == 1


# -- suppression edge cases ----------------------------------------------


def test_multi_rule_suppression_on_one_line(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                def leak():
                    fek = generate_fek()
                    return f"fek={fek}"  # repro-lint: disable=no-wallclock-or-unseeded-rng, key-hygiene
            """,
        },
        rule="key-hygiene",
    )
    assert findings == [] and suppressed == 1


def test_suppression_whitespace_variants(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                def tight():
                    fek = generate_fek()
                    return f"a={fek}"  #repro-lint:disable=key-hygiene

                def spaced():
                    fek = generate_fek()
                    return f"b={fek}"  #   repro-lint:   disable=key-hygiene
            """,
        },
        rule="key-hygiene",
    )
    assert findings == [] and suppressed == 2


def test_suppression_above_sink_covers_multiline_call(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/keys.py": KEY_SOURCE,
            "src/repro/sim/report.py": """
                from repro.crypto.keys import generate_fek

                def leak():
                    fek = generate_fek()
                    # repro-lint: disable=key-hygiene
                    return f"fek={fek}"
            """,
        },
        rule="key-hygiene",
    )
    assert findings == [] and suppressed == 1


# -- one parse per file, and the CLI's flow statistics -------------------


def _write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


TWO_HOP_LEAK = {
    "src/repro/crypto/keys.py": KEY_SOURCE,
    "src/repro/sim/report.py": """
        from repro.crypto.keys import generate_fek

        def leak():
            fek = generate_fek()
            return f"fek={fek}"
    """,
}


def test_each_file_is_parsed_once(tmp_path, monkeypatch, capsys):
    root = _write_tree(tmp_path, TWO_HOP_LEAK)
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    code = lint_main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    # The flow rule fired, so the whole-program graph was built...
    assert code == 1
    assert [f["rule"] for f in payload["findings"]] == ["key-hygiene"]
    # ...from the engine's ASTs: one parse per linted file, no more.
    assert payload["summary"]["files"] == 2
    assert len(parses) == 2


def test_cli_json_summary_carries_flow_stats(tmp_path, capsys):
    root = _write_tree(tmp_path, TWO_HOP_LEAK)
    code = lint_main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    flow = payload["summary"]["flow"]
    assert flow["modules"] == payload["summary"]["files"] == 2
    assert flow["resolved"] >= 1
