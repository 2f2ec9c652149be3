"""Per-rule unit tests for repro.lint.

Each rule gets at least one positive fixture (must flag) and one
negative fixture (must stay quiet), all as small inline sources written
into a scratch tree whose layout mirrors the real package (rules scope
themselves by path).  Inline suppressions and the CLI's exit codes are
round-tripped through its JSON output.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES
from repro.lint.cli import main as lint_main
from repro.lint.config import DEFAULTS
from repro.lint.engine import SourceFile, lint_sources


def lint_snippet(tmp_path: Path, rel: str, source: str, rule: str = None):
    """Write ``source`` at ``tmp_path/rel`` and lint it; returns findings."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    src = SourceFile.parse(target, tmp_path)
    rules = [RULES[rule]] if rule else list(RULES.values())
    findings, _ = lint_sources([src], tmp_path, rules, dict(DEFAULTS))
    return findings


def lint_tree(tmp_path: Path, files: dict, rule: str = None):
    """Write several files, lint them all together (cross-file rules)."""
    sources = []
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        sources.append(SourceFile.parse(target, tmp_path))
    rules = [RULES[rule]] if rule else list(RULES.values())
    findings, suppressed = lint_sources(sources, tmp_path, rules, dict(DEFAULTS))
    return findings, suppressed


def test_registry_has_all_ten_rules():
    assert set(RULES) == {
        "bit-width-bounds",
        "counter-overflow-handled",
        "no-wallclock-or-unseeded-rng",
        "no-worker-seed-entropy",
        "integer-cycle-accounting",
        "key-hygiene",
        "persist-through-wpq",
        "stats-registered",
        "config-not-component",
        "builder-owns-wiring",
    }
    for rule in RULES.values():
        assert rule.summary and rule.contract


# -- bit-width-bounds ----------------------------------------------------


def test_bit_width_flags_literal_mask_and_shift(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/core/x.py",
        """
        GROUP_ID_BITS = 18
        ident = 12345
        group = ident >> 14
        masked = ident & 0x3FFFF
        """,
        rule="bit-width-bounds",
    )
    messages = [f.message for f in findings]
    assert any("duplicates the GROUP_ID_BITS mask" in m for m in messages)
    # 14 is not declared anywhere in this scratch tree, so the shift is fine.
    assert not any("shift by literal 14" in m for m in messages)


def test_bit_width_flags_shift_by_declared_width(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/core/x.py",
        """
        FILE_ID_BITS = 14
        GROUP_ID_BITS = 18
        def pack(group_id, file_id):
            return (group_id << 14) | file_id
        """,
        rule="bit-width-bounds",
    )
    assert any("shift by literal 14 duplicates FILE_ID_BITS" in f.message for f in findings)


def test_bit_width_flags_oversized_id_literal(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/core/x.py",
        """
        FILE_ID_BITS = 14
        def make(cls):
            return cls(file_id=99999)
        """,
        rule="bit-width-bounds",
    )
    assert any("does not fit file_id" in f.message for f in findings)


def test_bit_width_quiet_when_constants_used(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/core/x.py",
        """
        GROUP_ID_BITS = 18
        FILE_ID_BITS = 14
        def pack(group_id, file_id):
            mask = (1 << GROUP_ID_BITS) - 1
            return ((group_id & mask) << FILE_ID_BITS) | file_id
        def make(cls):
            return cls(file_id=1, group_id=3)
        """,
        rule="bit-width-bounds",
    )
    assert findings == []


def test_bit_width_resolves_import_alias(tmp_path):
    """A width imported under a different *_BITS name still bounds IDs."""
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/core/defs.py": """
                SLOT_BITS = 21
                """,
            "src/repro/secmem/user.py": """
                from repro.core.defs import SLOT_BITS as TAG_BITS
                def make(cls):
                    return cls(tag=3000000)
                """,
        },
        rule="bit-width-bounds",
    )
    assert any(
        "does not fit tag" in f.message and "TAG_BITS = 21 bits" in f.message
        for f in findings
    )


def test_bit_width_resolves_assignment_alias(tmp_path):
    """``X_BITS = mod.Y_BITS`` re-bindings inherit the declared width."""
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/core/defs.py": """
                GROUP_ID_BITS = 18
                """,
            "src/repro/core/user.py": """
                from repro.core import defs
                TENANT_BITS = defs.GROUP_ID_BITS
                def make(cls):
                    return cls(tenant=300000)
                """,
        },
        rule="bit-width-bounds",
    )
    assert any(
        "does not fit tenant" in f.message and "TENANT_BITS = 18 bits" in f.message
        for f in findings
    )


def test_bit_width_alias_chain_is_file_order_independent(tmp_path):
    """Alias-of-alias resolves even when the alias file indexes first."""
    findings, _ = lint_tree(
        tmp_path,
        {
            # "a" sorts (and is written) before the defining module.
            "src/repro/core/a_user.py": """
                from repro.core.mid import WAY_BITS as LANE_BITS
                def make(cls):
                    return cls(lane=3000000)
                """,
            "src/repro/core/mid.py": """
                from repro.core.z_defs import SLOT_BITS as WAY_BITS
                """,
            "src/repro/core/z_defs.py": """
                SLOT_BITS = 21
                """,
        },
        rule="bit-width-bounds",
    )
    assert any("does not fit lane" in f.message for f in findings)


def test_bit_width_unresolvable_alias_stays_quiet(tmp_path):
    """An alias of an unknown constant neither crashes nor bounds anything."""
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/core/user.py": """
                from somewhere.else_ import MYSTERY_BITS as TAG_BITS
                def make(cls):
                    return cls(tag=3000000)
                """,
        },
        rule="bit-width-bounds",
    )
    assert findings == []


# -- counter-overflow-handled -------------------------------------------


def test_counter_overflow_flags_direct_minor_write(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/core/x.py",
        """
        def touch(block, i):
            block.minors[i] += 1
        """,
        rule="counter-overflow-handled",
    )
    assert any("bypasses the overflow path" in f.message for f in findings)


def test_counter_overflow_flags_ignored_bump_result(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/secmem/x.py",
        """
        def write(block, i):
            block.bump(i)
        """,
        rule="counter-overflow-handled",
    )
    assert any("result discarded" in f.message for f in findings)


def test_counter_overflow_quiet_for_consumed_bump_and_load(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/secmem/x.py",
        """
        def write(block, i, reencrypt):
            if block.bump(i):
                reencrypt()
        def restore(block, major, minors):
            block.load(major, minors)
        """,
        rule="counter-overflow-handled",
    )
    assert findings == []


def test_counter_overflow_allows_counters_module_itself(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/secmem/counters.py",
        """
        class CounterBlock:
            def reset(self):
                self.minors = [0] * 64
        """,
        rule="counter-overflow-handled",
    )
    assert findings == []


# -- no-wallclock-or-unseeded-rng ---------------------------------------


def test_determinism_flags_wallclock_and_global_rng(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import random
        import time
        def now():
            return time.time()
        def pick():
            return random.randint(0, 7)
        def fresh():
            return random.Random()
        """,
        rule="no-wallclock-or-unseeded-rng",
    )
    messages = " | ".join(f.message for f in findings)
    assert "time.time" in messages and "random.randint" in messages
    # An argument-less Random() seeds itself from the OS.
    assert "random.Random() reads ambient entropy" in messages
    assert len(findings) == 3


def test_determinism_flags_from_import_alias(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/mem/x.py",
        """
        from time import perf_counter as clock
        def now():
            return clock()
        """,
        rule="no-wallclock-or-unseeded-rng",
    )
    assert any("time.perf_counter" in f.message for f in findings)


def test_determinism_allows_seeded_rng_and_other_layers(tmp_path):
    quiet = lint_snippet(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import random
        def rng(seed):
            return random.Random(seed)
        """,
        rule="no-wallclock-or-unseeded-rng",
    )
    assert quiet == []
    # Outside the deterministic layers (the runner, which times cells)
    # wall clock is fine.
    elsewhere = lint_snippet(
        tmp_path,
        "src/repro/exec/x.py",
        """
        import time
        def stamp():
            return time.time()
        """,
        rule="no-wallclock-or-unseeded-rng",
    )
    assert elsewhere == []


@pytest.mark.parametrize("layer", ["workloads", "fs", "kernel", "analysis"])
def test_determinism_covers_every_layer_a_cell_reaches(tmp_path, layer):
    # execute_cell reaches workloads, the filesystem, the kernel model and
    # the analyses too: a clock read there is flagged per file, whether
    # or not any call path reaches it.
    findings = lint_snippet(
        tmp_path,
        f"src/repro/{layer}/x.py",
        """
        import time
        def unreachable_helper():
            return time.time()
        """,
        rule="no-wallclock-or-unseeded-rng",
    )
    assert len(findings) == 1 and "time.time" in findings[0].message


# -- no-worker-seed-entropy ---------------------------------------------


def test_worker_seed_flags_pid_and_time_derived_seeds(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/exec/x.py",
        """
        import datetime
        import os
        import random
        import secrets
        import time
        def bad_rng():
            return random.Random(os.getpid())
        def bad_assign():
            worker_seed = int(time.time()) ^ 0xBEEF
            return worker_seed
        def bad_keyword(run):
            return run(seed=time.time_ns())
        def bad_datetime():
            seed = datetime.datetime.now().microsecond
            return seed
        def bad_secrets():
            return random.Random(secrets.randbits(32))
        def bad_getrandom():
            return random.Random(os.getrandom(4))
        """,
        rule="no-worker-seed-entropy",
    )
    messages = " | ".join(f.message for f in findings)
    assert "os.getpid()" in messages
    assert "time.time()" in messages
    assert "time.time_ns()" in messages
    assert "datetime.datetime.now()" in messages
    assert "secrets.randbits()" in messages
    assert "os.getrandom()" in messages
    assert len(findings) == 6


def test_worker_seed_flags_from_import_alias(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/exec/x.py",
        """
        from os import getpid as pid
        import random
        def rng():
            return random.Random(pid())
        """,
        rule="no-worker-seed-entropy",
    )
    assert any("os.getpid()" in f.message for f in findings)


def test_worker_seed_allows_wall_timing_and_spec_seeds(tmp_path):
    # The runner's whole point is timing cells on the host clock — only
    # *seeding* from entropy is banned in worker paths.
    quiet = lint_snippet(
        tmp_path,
        "src/repro/exec/x.py",
        """
        import time
        import random
        def timed(spec, fn):
            start = time.perf_counter()
            rng = random.Random(spec.seed)
            payload = fn(rng)
            return payload, time.perf_counter() - start
        """,
        rule="no-worker-seed-entropy",
    )
    assert quiet == []
    # Outside worker paths the rule does not apply at all.
    elsewhere = lint_snippet(
        tmp_path,
        "src/repro/analysis/x.py",
        """
        import os
        import random
        def rng():
            return random.Random(os.getpid())
        """,
        rule="no-worker-seed-entropy",
    )
    assert elsewhere == []


# -- integer-cycle-accounting -------------------------------------------


def test_cycle_accounting_flags_float_increment(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/mem/x.py",
        """
        def charge(self, latency):
            self.stats.add("cycles", 2.5)
            self.stats.add("more", latency * 1.5)
        """,
        rule="integer-cycle-accounting",
    )
    assert len(findings) == 2
    assert all("integer-exact" in f.message for f in findings)


def test_cycle_accounting_quiet_for_ints_and_non_stats(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/mem/x.py",
        """
        def charge(self, seen):
            self.stats.add("hits")
            self.stats.add("lines", 4)
            seen.add(2.5)  # a plain set, not a StatCounters
        """,
        rule="integer-cycle-accounting",
    )
    assert findings == []


# -- key-hygiene ---------------------------------------------------------


def test_key_hygiene_flags_repr_fstring_and_weak_hash(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/crypto/x.py",
        """
        import hashlib
        from dataclasses import dataclass

        @dataclass
        class Entry:
            file_key: bytes

        def debug(key):
            return f"key is {key}"

        def digest(data):
            return hashlib.md5(data).digest()
        """,
        rule="key-hygiene",
    )
    messages = " | ".join(f.message for f in findings)
    assert "auto-repr would print it" in messages
    assert "f-string" in messages
    assert "hashlib.md5" in messages


def test_key_hygiene_quiet_for_hidden_fields_and_metadata(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/crypto/x.py",
        """
        import hashlib
        from dataclasses import dataclass, field

        @dataclass
        class Entry:
            file_key: bytes = field(repr=False)

        def check(key):
            # len(key) is derived metadata, not the key itself.
            raise ValueError(f"key must be 16 bytes, got {len(key)}")

        def digest(data):
            return hashlib.sha256(data).digest()
        """,
        rule="key-hygiene",
    )
    assert findings == []


def test_key_hygiene_reports_one_finding_per_leaking_line(tmp_path):
    # Each leaking line is reported once, so one suppression covers it.
    leak = """
        def leak(fek, file_key):
            print(fek){0}
            return f"key={{file_key}}"{0}
    """
    findings, suppressed = lint_tree(tmp_path, {"src/repro/crypto/x.py": leak.format("")})
    assert [(f.line, f.rule) for f in findings] == [(3, "key-hygiene"), (4, "key-hygiene")]
    assert suppressed == 0

    quiet, suppressed = lint_tree(
        tmp_path, {"src/repro/crypto/x.py": leak.format("  # repro-lint: disable=key-hygiene")}
    )
    assert quiet == [] and suppressed == 2


def test_key_hygiene_flags_reveal_outside_allowed_modules(tmp_path):
    leak = """
        def stash(fek):
            return fek.reveal()
    """
    for rel in ("src/repro/fs/x.py", "src/repro/sim/x.py", "benchmarks/bench_x.py"):
        findings = lint_snippet(tmp_path, rel, leak, rule="key-hygiene")
        assert len(findings) == 1, rel
        assert "reveal() outside key-reveal-paths" in findings[0].message
    for rel in ("src/repro/crypto/x.py", "src/repro/core/ott.py", "src/repro/core/transport.py"):
        assert lint_snippet(tmp_path, rel, leak, rule="key-hygiene") == [], rel
    # The sanctioned way to identify a key anywhere is its fingerprint.
    quiet = lint_snippet(
        tmp_path,
        "src/repro/fs/y.py",
        """
        def label(fek):
            return f"fp={fek.fingerprint().hex()}"
        """,
        rule="key-hygiene",
    )
    assert quiet == []


# Suppression edge cases on one per-file key-hygiene leak: an f-string
# of a key-ish name in a crypto path.


def test_multi_rule_suppression_on_one_line(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/crypto/report.py": """
                def leak(fek):
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
            "src/repro/crypto/report.py": """
                def tight(fek):
                    return f"a={fek}"  #repro-lint:disable=key-hygiene

                def spaced(fek):
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
            "src/repro/crypto/report.py": """
                import logging

                def leak(fek):
                    # repro-lint: disable=key-hygiene
                    logging.info(f"fek={fek}",
                                 "installed")
            """,
        },
        rule="key-hygiene",
    )
    assert findings == [] and suppressed == 1


def test_key_hygiene_ignores_non_crypto_layers(tmp_path):
    # Workload "keys" are KV-store keys, not key material.
    findings = lint_snippet(
        tmp_path,
        "src/repro/workloads/x.py",
        """
        def missing(key):
            return f"pre-filled key {key} missing"
        """,
        rule="key-hygiene",
    )
    assert findings == []


# -- persist-through-wpq -------------------------------------------------


def test_wpq_flags_raw_store_write_outside_controllers(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/workloads/x.py",
        """
        def poke(machine):
            machine.controller.store.write_line(0x1000, b"x" * 64)
            machine.controller.device.write(0x1000)
        """,
        rule="persist-through-wpq",
    )
    assert len(findings) == 2


def test_wpq_allows_controller_layer_reads_and_writes(tmp_path):
    quiet = lint_snippet(
        tmp_path,
        "src/repro/secmem/secure_controller.py",
        """
        def seal(self, addr, data):
            self.store.write_line(addr, data)

        def peek(self, addr):
            return self.store.read_line(addr)
        """,
        rule="persist-through-wpq",
    )
    assert quiet == []


@pytest.mark.parametrize(
    "rel", ["src/repro/mem/wpq.py", "src/repro/secmem/merkle.py", "src/repro/core/fecb.py"]
)
def test_wpq_scope_is_the_persist_path_modules_not_their_layers(tmp_path, rel):
    # Only the six modules that own the persist path may write lines; a
    # sibling module in the same layer is flagged like any other.
    findings = lint_snippet(
        tmp_path,
        rel,
        """
        def sneak(self, addr, data):
            self.store.write_line(addr, data)
        """,
        rule="persist-through-wpq",
    )
    assert len(findings) == 1 and "write_line" in findings[0].message


def test_wpq_flags_raw_reads_outside_controllers(tmp_path):
    # A raw ciphertext read outside the controller layer bypasses
    # decryption and integrity verification; deliberate attacker-view
    # reads carry an inline suppression.
    reads = lint_snippet(
        tmp_path,
        "src/repro/analysis/x.py",
        """
        def attacker_view(controller, addr):
            return controller.store.read_line(addr)
        """,
        rule="persist-through-wpq",
    )
    assert len(reads) == 1
    assert "read_line" in reads[0].message
    suppressed = lint_snippet(
        tmp_path,
        "src/repro/analysis/y.py",
        """
        def attacker_view(controller, addr):
            return controller.store.read_line(addr)  # repro-lint: disable=persist-through-wpq
        """,
        rule="persist-through-wpq",
    )
    assert suppressed == []


# -- stats-registered ----------------------------------------------------


def test_stats_registered_flags_orphan_component(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/comp.py": """
                class Widget:
                    def __init__(self, size, stats=None):
                        self.stats = stats
            """,
            "src/repro/sim/mach.py": """
                from ..mem.stats import StatsRegistry
                from ..mem.comp import Widget
                class Machine:
                    def __init__(self):
                        self.registry = StatsRegistry()
                        self.widget = Widget(4)
            """,
        },
        rule="stats-registered",
    )
    assert any("Widget constructed without a stats bundle" in f.message for f in findings)


def test_stats_registered_quiet_when_bundle_passed(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/comp.py": """
                class Widget:
                    def __init__(self, size, stats=None):
                        self.stats = stats
            """,
            "src/repro/sim/mach.py": """
                from ..mem.stats import StatsRegistry
                from ..mem.comp import Widget
                class Machine:
                    def __init__(self):
                        self.registry = StatsRegistry()
                        self.kw = Widget(4, stats=self.registry.create("w"))
                        self.pos = Widget(4, self.registry.create("w2"))
            """,
        },
        rule="stats-registered",
    )
    assert findings == []


def test_stats_registered_is_project_wide(tmp_path):
    # The rule runs everywhere, not only in modules that reference
    # StatsRegistry by name: orphan bundles are typically created in
    # helper modules *away* from the registry.
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/mem/comp.py": """
                class Widget:
                    def __init__(self, size, stats=None):
                        self.stats = stats
            """,
            "src/repro/kernel/other.py": """
                from ..mem.comp import Widget
                def helper():
                    return Widget(4)
            """,
        },
        rule="stats-registered",
    )
    assert any("Widget constructed without a stats bundle" in f.message for f in findings)


# -- config-not-component ------------------------------------------------


def test_config_not_component_flags_benchmark_construction(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/core/ott.py": """
                class OpenTunnelTable:
                    def __init__(self, banks=8):
                        self.banks = banks
            """,
            "benchmarks/bench_x.py": """
                from repro.core.ott import OpenTunnelTable
                def run():
                    return OpenTunnelTable(banks=1)
            """,
        },
        rule="config-not-component",
    )
    assert any("constructs component OpenTunnelTable" in f.message for f in findings)


def test_config_not_component_allows_configs_and_src_usage(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            "src/repro/core/ott.py": """
                class OpenTunnelTable:
                    def __init__(self, banks=8):
                        self.banks = banks
                class OTTConfig:
                    pass
            """,
            # Value/config types are fine in benchmarks...
            "benchmarks/bench_x.py": """
                from repro.core.ott import OTTConfig
                def run():
                    return OTTConfig()
            """,
            # ...and components are fine outside benchmark paths.
            "src/repro/sim/mach.py": """
                from ..core.ott import OpenTunnelTable
                def build():
                    return OpenTunnelTable()
            """,
        },
        rule="config-not-component",
    )
    assert findings == []


# -- builder-owns-wiring --------------------------------------------------


def test_builder_owns_wiring_flags_construction_outside_builder(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "src/repro/analysis/adhoc.py",
        """
        from ..core.fsencr import FsEncrController
        from ..secmem.anubis import ShadowTable
        def probe(layout):
            controller = FsEncrController(layout=layout)
            controller.anubis_shadow = ShadowTable(capacity=4, base_addr=0)
            return controller
        """,
        rule="builder-owns-wiring",
    )
    assert len(findings) == 2
    assert any("FsEncrController constructed outside" in f.message for f in findings)
    assert any("ShadowTable constructed outside" in f.message for f in findings)


def test_builder_owns_wiring_quiet_in_builder_tests_and_devices(tmp_path):
    findings, _ = lint_tree(
        tmp_path,
        {
            # The machine module is the sanctioned construction site.
            "src/repro/sim/machine.py": """
                from ..core.fsencr import FsEncrController
                from ..fs.dax import DaxFilesystem
                def build_controller(layout):
                    return FsEncrController(layout=layout)
                def build_filesystem(machine):
                    return DaxFilesystem(machine)
            """,
            # Unit tests construct components white-box by design.
            "tests/test_white_box.py": """
                from repro.secmem.anubis import ShadowTable
                def test_table():
                    assert ShadowTable(capacity=1, base_addr=0).occupancy == 0
            """,
            # NVMDevice is deliberately outside the wired set.
            "src/repro/analysis/probe.py": """
                from ..mem.nvm import NVMDevice
                def fresh_device():
                    return NVMDevice()
            """,
        },
        rule="builder-owns-wiring",
    )
    assert findings == []


# -- suppressions, CLI round-trip ----------------------------------------


def test_inline_suppression_same_line_and_line_above(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/sim/x.py": """
                import time
                def a():
                    return time.time()  # repro-lint: disable=no-wallclock-or-unseeded-rng
                def b():
                    # repro-lint: disable=all
                    return time.time()
                def c():
                    return time.time()
            """
        },
        rule="no-wallclock-or-unseeded-rng",
    )
    assert suppressed == 2
    assert len(findings) == 1 and findings[0].line == 9


def test_unrelated_suppression_does_not_hide(tmp_path):
    findings, suppressed = lint_tree(
        tmp_path,
        {
            "src/repro/sim/x.py": """
                import time
                def a():
                    return time.time()  # repro-lint: disable=key-hygiene
            """
        },
        rule="no-wallclock-or-unseeded-rng",
    )
    assert suppressed == 0 and len(findings) == 1


def _write_violation_tree(root: Path) -> Path:
    pkg = root / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import time\n\ndef now():\n    return time.time()\n", encoding="utf-8"
    )
    return root


def test_cli_json_report_round_trip(tmp_path, capsys):
    root = _write_violation_tree(tmp_path)

    # 1. The violation fails the run and shows up in the JSON stream.
    code = lint_main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["exit_code"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["no-wallclock-or-unseeded-rng"]
    assert payload["summary"]["findings"] == 1 and payload["summary"]["files"] == 1
    assert payload["version"] == 3
    assert set(payload["summary"]) == {"findings", "suppressed", "files"}

    # 2. Suppress it inline: the run is clean and counts the suppression.
    (root / "src" / "repro" / "sim" / "bad.py").write_text(
        "import time\n\ndef now():\n"
        "    return time.time()  # repro-lint: disable=no-wallclock-or-unseeded-rng\n",
        encoding="utf-8",
    )
    code = lint_main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["findings"] == []
    assert payload["summary"]["suppressed"] == 1


def test_cli_lints_a_checkout_below_a_skip_named_directory(tmp_path, capsys):
    # Skip names (.git, .venv, ...) match path components below the lint
    # path only; a checkout under "x.git-mirror/" must still be linted.
    root = _write_violation_tree(tmp_path / "x.git-mirror" / "repo")
    (root / "src" / "repro" / "sim" / "__pycache__").mkdir()
    (root / "src" / "repro" / "sim" / "__pycache__" / "stale.py").write_text(
        "import time\nTICK = time.time()\n", encoding="utf-8"
    )
    code = lint_main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["path"] for f in payload["findings"]] == ["src/repro/sim/bad.py"]


def test_cli_errors_exit_2(tmp_path, capsys):
    # A missing root, and a root with nothing to lint, are errors rather
    # than a silent pass over zero files.
    assert lint_main(["--root", str(tmp_path / "missing-dir")]) == 2
    assert lint_main(["--root", str(tmp_path)]) == 2
    (tmp_path / "src").mkdir()
    assert lint_main(["--root", str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--strict"],
        ["--changed"],
        ["--baseline", "-"],
        ["--format", "sarif"],
        ["--select", "x"],
        ["src"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_rejects_removed_options(tmp_path, argv):
    root = _write_violation_tree(tmp_path)
    with pytest.raises(SystemExit) as exc:
        lint_main(["--root", str(root), *argv])
    assert exc.value.code == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == set(RULES)
