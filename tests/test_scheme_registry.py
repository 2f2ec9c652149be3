"""Scheme registry: declarative columns, bit-identical machines.

Three contracts in one module:

1. **Bit-identity.**  How a machine is wired must be invisible in the
   numbers: machines built from registry configs produce results
   byte-for-byte equal to the seed implementation's, pinned here as
   sha256 digests of canonical result JSON.
2. **Column identity.**  ``compare_schemes`` canonicalises scheme
   spellings and rejects unregistered columns.
3. **Extension.**  ``fsencr+anubis`` and ``fsencr+partitioned`` exist
   purely as registry entries — these tests prove the declared columns
   build, run, crash, and recover end-to-end.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exec.spec import resolve_workload
from repro.faults.plan import FAULT_PROFILES, FaultPlan
from repro.faults.sweep import matrix_configs
from repro.sim.config import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.sim.schemes import (
    all_specs,
    canonical_scheme_name,
    comparison_pair,
    crash_matrix_names,
    get_scheme,
    motivation_pair,
    scheme_names,
    spec_for_config,
)
from repro.workloads import make_whisper_workload
from repro.workloads.base import compare_schemes, run_workload

LINE = 64

#: sha256 of the canonical result JSON of ``run_workload`` with
#: Hashmap/ops=300 on each legacy scheme's default config — captured on
#: the seed implementation.  Machine wiring must never move these.
GOLDEN_RUN_DIGESTS = {
    "conventional": "d6dd478e445a7e5a7ede87b21d432ff62b1dbf35c32ec7c242c8dfb960f47836",
    "ext4dax_plain": "4fced5c7f693d00c019f98d90510d1903f8a30b2df39089d351170a670dce13f",
    "software_encryption": "e5cc6e38f30f4980f59557b014c4d41f6b3baf0b1e2f7f8b0f81ff4c985f4cf1",
    "baseline_secure": "01f8732067f5ca3c4c35ab138439315f52c68683e4ec814222698c26e4e9744e",
    "fsencr": "9ef252c954f21f90d3841d1ea569704dd742ad058ab951d63257e041068e0857",
    # The variant columns, captured on the last tree that wired machines
    # through a separate builder layer.
    "fsencr+wpq": "5503bcc31151f487db4eb1b9d25954a01f0786fa55f436df88b5faa2e0fd391a",
    "fsencr+anubis": "9162a88d4429a2eed534724fd8ba6c3b658bad0500611b8e11125d89829a7e91",
    "fsencr+partitioned": "9ef252c954f21f90d3841d1ea569704dd742ad058ab951d63257e041068e0857",
}

def result_digest(scheme_name: str) -> str:
    config = get_scheme(scheme_name).configure(MachineConfig())
    result = run_workload(config, make_whisper_workload("Hashmap", ops=300))
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestRegistry:
    def test_legacy_columns_registered(self):
        assert set(GOLDEN_RUN_DIGESTS) <= set(scheme_names())

    def test_canonicalisation_accepts_name_enum_and_spec(self):
        assert canonical_scheme_name("fsencr") == "fsencr"
        assert canonical_scheme_name(" FsEncr ") == "fsencr"
        assert canonical_scheme_name(Scheme.BASELINE_SECURE) == "baseline_secure"
        assert canonical_scheme_name(get_scheme("fsencr+wpq")) == "fsencr+wpq"

    def test_unknown_scheme_lists_registered_names(self):
        with pytest.raises(ValueError, match="fsencr"):
            canonical_scheme_name("nvme-of")

    def test_roles_resolve_to_figure_pairs(self):
        assert comparison_pair() == ("baseline_secure", "fsencr")
        assert motivation_pair() == ("ext4dax_plain", "software_encryption")

    def test_crash_matrix_order_is_declared_not_hardcoded(self):
        assert crash_matrix_names() == (
            "fsencr",
            "baseline_secure",
            "fsencr+wpq",
            "fsencr+anubis",
        )
        assert [name for name, _cfg in matrix_configs()] == list(crash_matrix_names())

    def test_variant_pins_project_onto_base_config(self):
        base = MachineConfig()
        wpq = get_scheme("fsencr+wpq").configure(base)
        assert wpq.model_wpq and wpq.scheme is Scheme.FSENCR
        anubis = get_scheme("fsencr+anubis").configure(base)
        assert anubis.anubis_recovery
        # Anubis columns size the shadow to mirror the metadata cache.
        cache = anubis.metadata_cache
        assert anubis.anubis_shadow_lines == cache.size_bytes // cache.line_size
        part = get_scheme("fsencr+partitioned").configure(base)
        assert part.metadata_cache.partitioned
        # The plain column pins its identity *off* on variant bases.
        assert not get_scheme("fsencr").configure(anubis).anubis_recovery

    def test_spec_for_config_picks_most_specific_variant(self):
        assert spec_for_config(MachineConfig()).name == "fsencr"
        assert spec_for_config(get_scheme("fsencr+anubis").configure(None)).name == "fsencr+anubis"
        assert spec_for_config(MachineConfig(scheme=Scheme.CONVENTIONAL)).name == "conventional"


class TestBuilder:
    def test_every_registered_scheme_builds_and_runs(self):
        for spec in all_specs():
            machine = Machine(spec.configure(MachineConfig(functional=True)))
            assert spec_for_config(machine.config).name == spec.name
            machine.add_user(uid=1000, gid=100, passphrase="pw")
            handle = machine.create_file(
                "/pmem/f", uid=1000, encrypted=spec.scheme.has_file_encryption
            )
            base = machine.mmap(handle, pages=1)
            machine.store_bytes(base, b"\xab" * LINE)
            machine.persist(base, LINE)
            assert machine.load_bytes(base, LINE) == b"\xab" * LINE

    @pytest.mark.parametrize("scheme_name", sorted(GOLDEN_RUN_DIGESTS))
    def test_builder_machines_bit_identical_to_seed(self, scheme_name):
        assert result_digest(scheme_name) == GOLDEN_RUN_DIGESTS[scheme_name]


class TestCompareSchemesColumns:
    def test_compare_schemes_canonicalises_scheme_spellings(self):
        factory = resolve_workload("Hashmap", ops=20)
        by_enum = compare_schemes(factory, schemes=(Scheme.BASELINE_SECURE, "  FSENCR "))
        by_name = compare_schemes(factory, schemes=("baseline_secure", "fsencr"))
        assert list(by_enum.runs) == ["baseline_secure", "fsencr"]
        assert by_enum == by_name

    def test_compare_schemes_rejects_unregistered_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            compare_schemes(resolve_workload("Hashmap", ops=20), schemes=("fsencr+vapourware",))


def _staged_machine(scheme_name: str, stores: int = 41):
    """A functional machine with ``stores`` persisted line writes.

    41 deliberately: counter stop-loss is 4, and an exact multiple would
    persist the final update and retire every Anubis shadow entry —
    leaving nothing for recovery to prove anything about.
    """
    machine = Machine(get_scheme(scheme_name).configure(MachineConfig(functional=True)))
    machine.add_user(uid=1000, gid=100, passphrase="pw")
    handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
    base = machine.mmap(handle, pages=1)
    for i in range(stores):
        addr = base + (i % 8) * LINE
        machine.store_bytes(addr, bytes([1 + (i % 250)]) * LINE)
        machine.persist(addr, LINE)
    return machine


class TestAnubisColumn:
    def test_shadow_tracks_unpersisted_counters_at_runtime(self):
        machine = _staged_machine("fsencr+anubis")
        shadow = machine.controller.anubis_shadow
        assert shadow is not None
        assert shadow.occupancy > 0
        assert shadow.stats.stat("shadow_writes") > 0
        # Plain fsencr keeps the shadow entirely out of the machine.
        plain = Machine(get_scheme("fsencr").configure(MachineConfig(functional=True)))
        assert plain.controller.anubis_shadow is None

    def test_clean_drain_recovery_restores_from_shadow(self):
        machine = _staged_machine("fsencr+anubis")
        machine.crash(FaultPlan(seed=7, drain_fraction=1.0))
        report = machine.reboot()
        assert report.anubis_lines_restored > 0
        assert report.failed_lines == ()

        baseline = _staged_machine("fsencr")
        baseline.crash(FaultPlan(seed=7, drain_fraction=1.0))
        baseline_report = baseline.reboot()
        assert baseline_report.anubis_lines_restored == 0
        # Shadow-restored counters skip Osiris's upward trial search, so
        # the Anubis column recovers with strictly fewer trials.
        assert report.trials < baseline_report.trials

    def test_shadow_resets_and_machine_survives_reboot(self):
        machine = _staged_machine("fsencr+anubis")
        machine.crash(FaultPlan(seed=11, drain_fraction=1.0))
        machine.reboot()
        assert machine.controller.anubis_shadow.occupancy == 0
        assert machine.controller._anubis_counters == {}
        handle = machine.create_file("/pmem/g", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=1)
        machine.store_bytes(base, b"\x5a" * LINE)
        machine.persist(base, LINE)
        assert machine.load_bytes(base, LINE) == b"\x5a" * LINE

    def test_lossy_crash_accounts_every_line_loudly(self):
        """Anubis installs *live* counter values, so data writes dropped
        in flight (sealed under older counters) must fail ECC loudly —
        possibly with more explicit failures than Osiris-only fsencr,
        never with silent resurrection.  Every checked line lands in
        recovered-or-failed; none vanish from the accounting."""
        machine = _staged_machine("fsencr+anubis")
        machine.crash(FaultPlan(seed=7, drain_fraction=0.3, torn_probability=0.4))
        report = machine.reboot()
        assert report.lines_checked > 0
        assert report.lines_recovered + len(report.failed_lines) == report.lines_checked

    def test_sweep_audit_finds_no_silent_corruption(self):
        """The full line-by-line audit (sweep_workload reads back every
        line against recorded truth) on the fsencr+anubis column."""
        from repro.faults.sweep import sweep_workload
        from repro.workloads import make_dax_micro

        config = get_scheme("fsencr+anubis").configure(MachineConfig())
        sweep = sweep_workload(
            lambda: make_dax_micro("DAX-3", iterations=200),
            config,
            plan=FAULT_PROFILES["mixed"].with_seed(0xC0FFEE),
            max_points=2,
            name="DAX-3",
        )
        assert len(sweep.points) == 2
        assert sweep.silent_corruptions == 0
        assert sweep.scheme == "fsencr"  # column label lives in the matrix key
