"""Whole-program flow analysis: the call-graph checks of the four rules
that have one, the incremental index cache, and the CLI satellites built
on top (``--format sarif``, ``--changed``, ``--prune-baseline``).

Each call-graph check gets the same treatment: a positive fixture where
the offending flow crosses a module boundary, a suppressed variant (the
suppression must sit on the *sink* line — the source line does not
count), and a clean fixture exercising the sanctioned idiom.
"""

from __future__ import annotations

import json
import subprocess
import textwrap
from pathlib import Path

from repro.lint import RULES
from repro.lint.baseline import Baseline
from repro.lint.cli import main as lint_main
from repro.lint.config import DEFAULTS
from repro.lint.engine import SourceFile, lint_sources
from repro.lint.flow import build_flow


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


# -- incremental index cache ---------------------------------------------


def _flow_options(tmp_path: Path) -> dict:
    options = dict(DEFAULTS)
    options["paths"] = ["src"]
    options["flow-index-dir"] = str(tmp_path / ".idx")
    return options


def _write_tree(tmp_path: Path) -> None:
    for rel, source in {
        "src/repro/a.py": "def one():\n    return 1\n",
        "src/repro/b.py": "from repro.a import one\n\ndef two():\n    return one() + 1\n",
    }.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def test_warm_flow_build_serves_from_index_cache(tmp_path):
    _write_tree(tmp_path)
    options = _flow_options(tmp_path)

    cold = build_flow(tmp_path, options, [])
    assert cold.cache_stats.misses == 2 and cold.cache_stats.hits == 0

    warm = build_flow(tmp_path, options, [])
    assert warm.cache_stats.hits == 2 and warm.cache_stats.misses == 0
    assert warm.graph.stats == cold.graph.stats


def test_incremental_rebuild_reparses_only_changed_file(tmp_path):
    _write_tree(tmp_path)
    options = _flow_options(tmp_path)
    build_flow(tmp_path, options, [])

    (tmp_path / "src/repro/a.py").write_text(
        "def one():\n    return 42\n", encoding="utf-8"
    )
    rebuilt = build_flow(tmp_path, options, [])
    assert rebuilt.cache_stats.hits == 1 and rebuilt.cache_stats.misses == 1


def test_index_cache_disabled_by_empty_dir_option(tmp_path):
    _write_tree(tmp_path)
    options = _flow_options(tmp_path)
    options["flow-index-dir"] = ""
    build_flow(tmp_path, options, [])
    again = build_flow(tmp_path, options, [])
    assert again.cache_stats.hits == 0 and again.cache_stats.misses == 2
    assert not (tmp_path / ".idx").exists()


# -- CLI satellites ------------------------------------------------------


def _violation_root(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import time\n\ndef now():\n    return time.time()\n", encoding="utf-8"
    )
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["src"]\n', encoding="utf-8"
    )
    return tmp_path


def test_cli_sarif_output(tmp_path, capsys):
    root = _violation_root(tmp_path)
    code = lint_main(["--root", str(root), "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    result = run["results"][0]
    assert result["ruleId"] == "no-wallclock-or-unseeded-rng"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/sim/bad.py"
    assert location["region"]["startLine"] == 4
    ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert ids == {"no-wallclock-or-unseeded-rng"}


def test_cli_sarif_marks_baselined_as_suppressed(tmp_path, capsys):
    root = _violation_root(tmp_path)
    assert lint_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    code = lint_main(["--root", str(root), "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    result = payload["runs"][0]["results"][0]
    assert result["suppressions"][0]["kind"] == "external"


def test_cli_prune_baseline_keeps_reasons_for_live_debt(tmp_path, capsys):
    root = _violation_root(tmp_path)
    extra = root / "src" / "repro" / "sim" / "worse.py"
    extra.write_text(
        "import time\n\ndef later():\n    return time.time()\n", encoding="utf-8"
    )
    assert lint_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()

    # Annotate both entries with reasons, as a maintainer would.
    baseline_path = root / str(DEFAULTS["baseline"])
    raw = json.loads(baseline_path.read_text(encoding="utf-8"))
    for item in raw["findings"]:
        item["reason"] = f"legacy clock read in {item['path']}"
    baseline_path.write_text(json.dumps(raw), encoding="utf-8")

    # Pay off one entry; prune must drop it and keep the other's reason.
    extra.write_text("def later(clock_ns):\n    return clock_ns\n", encoding="utf-8")
    assert lint_main(["--root", str(root), "--prune-baseline"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale entry" in out

    pruned = Baseline.load(baseline_path)
    assert sum(pruned.entries.values()) == 1
    (fingerprint,) = pruned.entries
    assert fingerprint[1] == "src/repro/sim/bad.py"
    assert pruned.reasons[fingerprint] == "legacy clock read in src/repro/sim/bad.py"
    assert lint_main(["--root", str(root), "--strict"]) == 0


def test_cli_write_baseline_preserves_reasons(tmp_path, capsys):
    root = _violation_root(tmp_path)
    assert lint_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    baseline_path = root / str(DEFAULTS["baseline"])
    raw = json.loads(baseline_path.read_text(encoding="utf-8"))
    raw["findings"][0]["reason"] = "known debt"
    baseline_path.write_text(json.dumps(raw), encoding="utf-8")

    assert lint_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    reloaded = Baseline.load(baseline_path)
    assert list(reloaded.reasons.values()) == ["known debt"]


def test_cli_stale_baseline_warning_mentions_prune(tmp_path, capsys):
    root = _violation_root(tmp_path)
    assert lint_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    (root / "src" / "repro" / "sim" / "bad.py").write_text(
        "def now(clock_ns):\n    return clock_ns\n", encoding="utf-8"
    )
    assert lint_main(["--root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "warning: stale-baseline" in out and "--prune-baseline" in out


def _git(root: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=root,
        check=True,
        capture_output=True,
    )


def test_cli_changed_lints_changed_files_and_dependents(tmp_path, capsys):
    root = tmp_path
    files = {
        "src/repro/base.py": "def base():\n    return 1\n",
        "src/repro/user.py": (
            "from repro.base import base\n\ndef use():\n    return base()\n"
        ),
        "src/repro/sim/lone.py": "import time\n\ndef now():\n    return time.time()\n",
    }
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    (root / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["src"]\n', encoding="utf-8"
    )
    _git(root, "init", "-q")
    _git(root, "add", ".")
    _git(root, "commit", "-qm", "seed")

    # Nothing changed: --changed lints nothing and passes even though
    # lone.py has a violation.
    code = lint_main(["--root", str(root), "--changed", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["summary"]["files"] == 0

    # Touch the leaf: the dependent is re-linted too, the unrelated
    # violating file still is not.
    (root / "src/repro/base.py").write_text(
        "def base():\n    return 2\n", encoding="utf-8"
    )
    code = lint_main(["--root", str(root), "--changed", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["summary"]["files"] == 2

    # Touch the violating file itself: now it fails.
    (root / "src/repro/sim/lone.py").write_text(
        "import time\n\ndef now():\n    return time.time() + 1\n", encoding="utf-8"
    )
    code = lint_main(["--root", str(root), "--changed", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {f["path"] for f in payload["findings"]} == {"src/repro/sim/lone.py"}


def test_cli_json_summary_carries_flow_stats(tmp_path, capsys):
    root = _violation_root(tmp_path)
    code = lint_main(
        ["--root", str(root), "--format", "json", "--select", "stats-registered"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    flow = payload["summary"]["flow"]
    assert flow["graph"]["modules"] >= 1
    assert flow["index_cache"]["files"] >= 1
