"""The machine model: mapping, faulting, timing accesses, functional IO."""

import pytest

from repro.fs import AccessDenied
from repro.kernel import PageFault
from repro.mem import PAGE_SIZE
from repro.sim import Machine, MachineConfig, Scheme


def make_machine(scheme: Scheme = Scheme.FSENCR, functional: bool = False, **overrides) -> Machine:
    machine = Machine(MachineConfig(scheme=scheme, functional=functional, **overrides))
    machine.add_user(uid=1000, gid=100, passphrase="fixture-pass")
    return machine


class TestFileLifecycle:
    def test_create_open_mmap(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=4)
        assert base % PAGE_SIZE == 0
        assert m.elapsed_ns > 0  # syscall costs charged

    def test_regions_do_not_overlap(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000)
        a = m.mmap(h, pages=4)
        b = m.mmap(h, pages=4)
        assert abs(a - b) >= 4 * PAGE_SIZE

    def test_permissions_enforced_via_machine(self):
        m = make_machine()
        m.users.add_user(2000, 200)
        m.keyring.login(2000, "bob")
        m.create_file("/pmem/priv", uid=1000, mode=0o600)
        with pytest.raises(AccessDenied):
            m.open_file("/pmem/priv", uid=2000)

    def test_unlink_and_chmod(self):
        m = make_machine()
        m.create_file("/pmem/f", uid=1000)
        m.chmod("/pmem/f", uid=1000, mode=0o600)
        m.unlink("/pmem/f", uid=1000)
        assert not m.fs.exists("/pmem/f")


class TestAccessPath:
    def test_access_outside_regions_faults(self):
        m = make_machine()
        with pytest.raises(PageFault):
            m.load(0xDEAD0000, 8)

    def test_first_touch_faults_once(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=2)
        m.load(base, 8)
        m.load(base + 64, 8)
        assert m.mmu.stats.get("faults") == 1
        m.load(base + PAGE_SIZE, 8)
        assert m.mmu.stats.get("faults") == 2

    def test_df_set_for_encrypted_files_under_fsencr(self):
        m = make_machine(Scheme.FSENCR)
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        m.load(base, 8)
        vpn = base // PAGE_SIZE
        assert m.mmu.page_table.lookup(vpn).df is True

    def test_df_clear_for_plain_files(self):
        m = make_machine(Scheme.FSENCR)
        h = m.create_file("/pmem/f", uid=1000, encrypted=False)
        base = m.mmap(h, pages=1)
        m.load(base, 8)
        assert m.mmu.page_table.lookup(base // PAGE_SIZE).df is False

    def test_df_never_set_under_baseline(self):
        m = make_machine(Scheme.BASELINE_SECURE)
        h = m.create_file("/pmem/f", uid=1000)
        base = m.mmap(h, pages=1)
        m.load(base, 8)
        assert m.mmu.page_table.lookup(base // PAGE_SIZE).df is False

    def test_file_mapping_faults_once_per_page(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000)
        base = m.mmap(h, pages=2)
        m.store(base, 64)
        m.load(base, 64)
        m.load(base + PAGE_SIZE, 8)
        assert m.mmu.stats.get("faults") == 2

    def test_multi_line_access_touches_all_lines(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000)
        base = m.mmap(h, pages=1)
        before = m.elapsed_ns
        m.load(base, 256)  # 4 lines
        assert m.elapsed_ns > before

    def test_compute_advances_clock_only(self):
        m = make_machine()
        t = m.elapsed_ns
        m.compute(123.0)
        assert m.elapsed_ns == t + 123.0


class TestPersistPath:
    def test_persist_costs_more_than_store(self):
        m1, m2 = make_machine(), make_machine()
        for m in (m1, m2):
            h = m.create_file("/pmem/f", uid=1000, encrypted=True)
            base = m.mmap(h, pages=1)
            m.load(base, 8)  # fault in
        t1 = m1.elapsed_ns
        m1.store(base, 64)
        cost_store = m1.elapsed_ns - t1
        t2 = m2.elapsed_ns
        m2.persist(base, 64)
        cost_persist = m2.elapsed_ns - t2
        assert cost_persist > cost_store

    def test_persist_reaches_device(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        writes_before = m.device.write_count
        m.persist(base, 64)
        assert m.device.write_count > writes_before

    def test_size_validation(self):
        m = make_machine()
        with pytest.raises(ValueError):
            m.load(0, 0)


class TestMeasurementWindow:
    def test_mark_excludes_setup(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        m.persist(base, 4096)
        m.mark_measurement_start()
        result = m.result("w")
        assert result.elapsed_ns == 0.0
        assert result.nvm_writes == 0
        m.load(base, 64)
        result = m.result("w")
        assert result.elapsed_ns > 0

    def test_result_carries_stats(self):
        m = make_machine()
        h = m.create_file("/pmem/f", uid=1000)
        base = m.mmap(h, pages=1)
        m.load(base, 8)
        result = m.result("w")
        assert result.scheme == "fsencr"
        assert any(k.startswith("nvm.") for k in result.stats)


class TestFunctionalIO:
    def test_store_load_roundtrip(self):
        m = make_machine(functional=True)
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        message = b"hello, encrypted DAX world! " * 3
        m.store_bytes(base + 10, message)
        assert m.load_bytes(base + 10, len(message)) == message

    def test_cross_line_write(self):
        m = make_machine(functional=True)
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        data = bytes(range(200))  # spans 4 lines
        m.store_bytes(base + 60, data)
        assert m.load_bytes(base + 60, 200) == data

    def test_dimm_residue_is_ciphertext(self):
        m = make_machine(functional=True)
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        secret = b"S" * 64
        m.store_bytes(base, secret)
        residue = b"".join(m.controller.store.scan().values())
        assert secret not in residue

    def test_plain_scheme_residue_is_plaintext(self):
        """Without encryption the attacker's scan finds the data —
        the contrast the quickstart example demonstrates."""
        m = make_machine(Scheme.EXT4DAX_PLAIN, functional=True)
        h = m.create_file("/pmem/f", uid=1000)
        base = m.mmap(h, pages=1)
        secret = b"S" * 64
        m.store_bytes(base, secret)
        residue = b"".join(m.controller.store.scan().values())
        assert secret in residue


class TestSoftwareSchemeRouting:
    def test_overlay_charges_faults(self):
        m = make_machine(Scheme.SOFTWARE_ENCRYPTION)
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=2)
        m.load(base, 8)
        assert m.overlay.stats.get("page_faults") == 1
        m.load(base + 8, 8)
        assert m.overlay.stats.get("page_faults") == 1  # resident now

    def test_no_df_bits_under_software_scheme(self):
        m = make_machine(Scheme.SOFTWARE_ENCRYPTION)
        h = m.create_file("/pmem/f", uid=1000, encrypted=True)
        base = m.mmap(h, pages=1)
        m.load(base, 8)
        assert m.mmu.page_table.lookup(base // PAGE_SIZE).df is False

    def test_overlay_absent_for_dax_schemes(self):
        assert make_machine(Scheme.FSENCR).overlay is None
        assert make_machine(Scheme.EXT4DAX_PLAIN).overlay is None
