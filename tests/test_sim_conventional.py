"""The conventional (pre-DAX) scheme: Figure 1(a)'s access path."""

import pytest

from repro.mem import PAGE_SIZE
from repro.sim import Machine, MachineConfig, Scheme
from repro.workloads import compare_schemes, make_whisper_workload


def make_machine(scheme=Scheme.CONVENTIONAL):
    machine = Machine(MachineConfig(scheme=scheme))
    machine.add_user(uid=1000, gid=100, passphrase="pw")
    return machine


class TestSchemeProperties:
    def test_no_dax_no_encryption(self):
        assert Scheme.CONVENTIONAL.uses_page_cache
        assert not Scheme.CONVENTIONAL.has_file_encryption

    def test_overlay_present_and_unencrypted(self):
        machine = make_machine()
        assert machine.overlay is not None
        assert machine.overlay.encrypted is False

    def test_software_scheme_overlay_is_encrypted(self):
        machine = make_machine(Scheme.SOFTWARE_ENCRYPTION)
        assert machine.overlay.encrypted is True


class TestAccessPath:
    def test_first_touch_pays_conventional_fault(self):
        machine = make_machine()
        handle = machine.create_file("/data/f", uid=1000)
        base = machine.mmap(handle, pages=1)
        machine.mark_measurement_start()
        machine.load(base, 8)
        result = machine.result("conv")
        # The fault includes the 4 KB device copy: 64 line reads.
        assert result.nvm_reads >= 64
        assert result.elapsed_ns >= machine.costs.conventional_fault_ns()

    def test_resident_access_cheap(self):
        machine = make_machine()
        handle = machine.create_file("/data/f", uid=1000)
        base = machine.mmap(handle, pages=1)
        machine.load(base, 8)  # fault in
        machine.mark_measurement_start()
        machine.load(base + 8, 8)
        assert machine.result("conv").nvm_reads == 0  # page-cache hit

    def test_no_crypto_charged(self):
        machine = make_machine()
        handle = machine.create_file("/data/f", uid=1000)
        base = machine.mmap(handle, pages=1)
        machine.load(base, 8)
        assert machine.overlay.stats.get("page_decryptions") == 0

    def test_df_never_set(self):
        machine = make_machine()
        handle = machine.create_file("/data/f", uid=1000)
        base = machine.mmap(handle, pages=1)
        machine.load(base, 8)
        assert machine.mmu.page_table.lookup(base // PAGE_SIZE).df is False


class TestDaxBenefit:
    def test_dax_beats_conventional(self):
        """The paper's premise: DAX removes the software bottleneck."""
        comparison = compare_schemes(
            lambda: make_whisper_workload("Hashmap", ops=400),
            schemes=(Scheme.EXT4DAX_PLAIN, Scheme.CONVENTIONAL),
        )
        row = comparison.against(Scheme.EXT4DAX_PLAIN, Scheme.CONVENTIONAL)
        assert row.slowdown > 1.05  # conventional is slower than DAX

    def test_software_encryption_worse_than_conventional(self):
        """Ordering: dax < conventional < conventional+crypto."""
        comparison = compare_schemes(
            lambda: make_whisper_workload("CTree", ops=400),
            schemes=(Scheme.CONVENTIONAL, Scheme.SOFTWARE_ENCRYPTION),
        )
        row = comparison.against(Scheme.CONVENTIONAL, Scheme.SOFTWARE_ENCRYPTION)
        assert row.slowdown > 1.0
