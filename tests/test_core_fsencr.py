"""FsEncr controller: recognition, dual OTP, key life-cycle, crash paths."""

from dataclasses import replace

import pytest

from repro.cli import BATCHCHECK_WORKLOADS
from repro.core import FsEncrController, KeyUnavailableError, set_df
from repro.crypto import SecretKey
from repro.exec import resolve_workload
from repro.faults import FaultPlan
from repro.mem import MemoryRequest
from repro.mem.address import LINE_SIZE
from repro.secmem import IntegrityError, MetadataLayout, SecureControllerConfig
from repro.secmem.counters import MINOR_BITS
from repro.sim import BatchRunner, Machine, MachineConfig, get_scheme
from repro.workloads.base import Workload, run_workload


def functional_controller():
    return FsEncrController(
        layout=MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024),
        config=SecureControllerConfig(functional=True),
    )


def timing_controller(**kwargs):
    return FsEncrController(
        layout=MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024),
        config=SecureControllerConfig(**kwargs),
    )


def open_file(ctl, group=5, file=42, page=3, fill=0x77):
    key = SecretKey(bytes([fill]) * 16)
    ctl.install_file_key(group_id=group, file_id=file, key=key)
    ctl.update_fecb(page=page, group_id=group, file_id=file)
    return key


class TestRecognition:
    def test_df_requests_counted(self):
        ctl = timing_controller()
        open_file(ctl)
        ctl.access(MemoryRequest(addr=set_df(3 * 4096), is_write=False))
        ctl.access(MemoryRequest(addr=0x9000, is_write=False))
        assert ctl.stats.get("dax_requests") == 1

    def test_non_df_requests_skip_file_path(self):
        ctl = timing_controller()
        open_file(ctl)
        before = ctl.metadata_cache.stats.get("fecb_misses") + ctl.metadata_cache.stats.get("fecb_hits")
        ctl.access(MemoryRequest(addr=0x9000, is_write=False))
        after = ctl.metadata_cache.stats.get("fecb_misses") + ctl.metadata_cache.stats.get("fecb_hits")
        assert after == before


class TestDualOtp:
    def test_roundtrip(self):
        ctl = functional_controller()
        open_file(ctl)
        addr = set_df(3 * 4096 + 128)
        ctl.write_data(addr, bytes(range(64)))
        assert ctl.read_data(addr) == bytes(range(64))

    def test_dax_line_sealed_differently_from_memory_line(self):
        """Same plaintext, same counters: a stamped page's ciphertext
        must differ from an unstamped page's (the file pad layer)."""
        ctl = functional_controller()
        open_file(ctl, page=3)
        line = bytes(64)
        ctl.write_data(set_df(3 * 4096), line)
        ctl.write_data(5 * 4096, line)
        dax_ct = ctl.store.read_line(3 * 4096)
        mem_ct = ctl.store.read_line(5 * 4096)
        assert dax_ct != mem_ct

    def test_memory_key_alone_cannot_decrypt_dax_line(self):
        """Defence-in-depth: stripping only the memory pad leaves the
        file pad in place."""
        from repro.crypto import OTPEngine, CounterIV, MEMORY_DOMAIN, xor_bytes

        ctl = functional_controller()
        open_file(ctl, page=3)
        plaintext = b"payroll!" * 8
        ctl.write_data(set_df(3 * 4096), plaintext)
        ciphertext = ctl.store.read_line(3 * 4096)
        major, minor = ctl.mecb.block(3).value_for(0)
        mem_pad = OTPEngine(ctl.keys.memory_key).pad_for(
            CounterIV(domain=MEMORY_DOMAIN, page_id=3, page_offset=0, major=major, minor=minor)
        )
        assert xor_bytes(ciphertext, mem_pad) != plaintext

    def test_unknown_key_read_raises(self):
        ctl = functional_controller()
        ctl.update_fecb(page=3, group_id=5, file_id=42)  # stamped, no key
        with pytest.raises(KeyUnavailableError):
            ctl.read_data(set_df(3 * 4096))


class TestKeyLifecycle:
    def test_install_logs_to_region(self):
        ctl = functional_controller()
        open_file(ctl)
        found, _ = ctl.ott_region.fetch(5, 42)
        assert found is not None

    def test_ott_spill_and_refill(self):
        from repro.core import OpenTunnelTable

        ctl = FsEncrController(
            layout=MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024),
            config=SecureControllerConfig(functional=True),
            ott=OpenTunnelTable(banks=1, entries_per_bank=2),
        )
        for file_id in (1, 2, 3):  # capacity 2: file 1 spills
            open_file(ctl, file=file_id, page=file_id)
        assert ctl.stats.get("ott_spills") >= 1
        # file 1's key must still be reachable (from the region).
        ctl.write_data(set_df(1 * 4096), bytes(64))
        assert ctl.read_data(set_df(1 * 4096)) == bytes(64)

    def test_revoke_secure_deletes(self):
        ctl = functional_controller()
        key = open_file(ctl)
        addr = set_df(3 * 4096)
        ctl.write_data(addr, b"\x42" * 64)
        ctl.revoke_file_key(5, 42)
        # Even re-installing the same key cannot decrypt: counters shredded.
        ctl.install_file_key(5, 42, key)
        ctl.update_fecb(page=3, group_id=5, file_id=42)
        assert ctl.read_data(addr) != b"\x42" * 64

    def test_page_recycled_to_new_file_resets_counters(self):
        ctl = functional_controller()
        open_file(ctl, file=42, page=3)
        ctl.install_file_key(5, 43, SecretKey(bytes([9]) * 16))
        ctl.update_fecb(page=3, group_id=5, file_id=43)
        assert ctl.stats.get("fecb_recycles") == 1
        blk = ctl.fecb.block(3)
        assert (blk.group_id, blk.file_id) == (5, 43)


class TestAdminLock:
    def test_first_login_enrolls(self):
        ctl = functional_controller()
        assert ctl.admin_login(b"c" * 32) is True
        assert not ctl.locked

    def test_wrong_credential_locks(self):
        ctl = functional_controller()
        ctl.admin_login(b"c" * 32)
        assert ctl.admin_login(b"x" * 32) is False
        assert ctl.locked

    def test_locked_engine_seals_file_data(self):
        ctl = functional_controller()
        ctl.admin_login(b"c" * 32)
        open_file(ctl)
        addr = set_df(3 * 4096)
        ctl.write_data(addr, b"\x21" * 64)
        ctl.admin_login(b"x" * 32)
        assert ctl.read_data(addr) != b"\x21" * 64
        ctl.admin_login(b"c" * 32)
        assert ctl.read_data(addr) == b"\x21" * 64

    def test_locked_engine_still_serves_plain_memory(self):
        ctl = functional_controller()
        ctl.admin_login(b"c" * 32)
        ctl.write_data(0x9000, b"\x33" * 64)
        ctl.admin_login(b"x" * 32)
        assert ctl.read_data(0x9000) == b"\x33" * 64


class TestIntegrityCoverage:
    def test_fecb_tamper_detected(self):
        ctl = functional_controller()
        open_file(ctl)
        addr = set_df(3 * 4096)
        ctl.write_data(addr, bytes(64))
        ctl.fecb.block(3).counters.minors[0] ^= 1
        with pytest.raises(IntegrityError):
            ctl.read_data(addr)

    def test_fecb_id_swap_detected(self):
        """Pointing a page's FECB at another file without authorisation
        must break integrity (the §VI File-ID protection argument)."""
        ctl = functional_controller()
        open_file(ctl, file=42, page=3)
        ctl.install_file_key(5, 43, SecretKey(bytes([1]) * 16))
        addr = set_df(3 * 4096)
        ctl.write_data(addr, bytes(64))
        ctl.fecb.block(3).file_id = 43  # out-of-band swap
        with pytest.raises(IntegrityError):
            ctl.read_data(addr)


class TestCrashRecovery:
    def test_ott_recovery_from_region(self):
        ctl = functional_controller()
        for file_id in (41, 42, 43):
            open_file(ctl, file=file_id, page=file_id % 8)
        recovered = ctl.recover_ott_after_crash()
        assert recovered == 3
        assert ctl.ott.lookup(5, 41) is not None

    def test_crash_flush_then_recover(self):
        ctl = functional_controller()
        open_file(ctl)
        ctl.crash_flush_ott()
        assert ctl.recover_ott_after_crash() >= 1

    def test_fecb_write_path_persists_via_osiris(self):
        ctl = timing_controller(stop_loss=2)
        open_file(ctl)
        addr = set_df(3 * 4096)
        for _ in range(4):
            ctl.access(MemoryRequest(addr=addr, is_write=True))
        assert ctl.stats.get("osiris_fecb_persists") == 2


HOT_WRITES = (1 << MINOR_BITS) + 2  # line 0's 7-bit FECB minor overflows once


class _HotLine(Workload):
    """Writes line 1 of an encrypted DAX page once, then line 0
    ``HOT_WRITES`` times: persisted stores on a timing machine, real
    bytes (value ``i`` on the i-th write) on a functional one."""

    name = "HotLine"

    def run(self, machine):
        handle = machine.create_file("/pmem/hot", uid=self.uid, encrypted=True)
        self.base = machine.mmap(handle, pages=1)
        machine.mark_measurement_start()
        for i, line in enumerate([1] + [0] * HOT_WRITES):
            addr = self.base + line * LINE_SIZE
            if machine.config.functional:
                machine.store_bytes(addr, bytes([0xA5 if line else i]) * LINE_SIZE)
            else:
                machine.persist(addr, LINE_SIZE)


def test_fecb_overflow_reencrypts_reads_back_and_executors_agree():
    config = get_scheme("fsencr").configure(MachineConfig())
    reference = run_workload(config, _HotLine())
    # One re-encryption for the MECB's overflow, one for the FECB's.
    assert reference.stat("controller.fecb_minor_overflows") == 1
    assert reference.stat("controller.overflow_fecb_persists") == 1
    assert reference.stat("controller.page_reencryptions") == 2

    # The interpreter runs the trace and hands the overflow to the
    # reference write path (FsEncrController._extra_write_path).
    runner = BatchRunner()
    batched = runner.run(config, _HotLine())
    assert None not in runner._compiled.values()
    assert batched.to_dict() == reference.to_dict()

    machine, workload = Machine(replace(config, functional=True)), _HotLine()
    workload.setup(machine)
    workload.run(machine)
    assert machine.result("HotLine").stat("controller.fecb_minor_overflows") == 1
    assert machine.load_bytes(workload.base, 2 * LINE_SIZE) == (
        bytes([HOT_WRITES]) * LINE_SIZE + bytes([0xA5]) * LINE_SIZE
    )



@pytest.mark.parametrize("scheme, trials, restored", [
    ("fsencr", 14, 0),
    ("fsencr+anubis", 2, 2),
])
def test_crash_after_both_counter_overflows_recovers_every_line(scheme, trials, restored):
    """Crash right after the MECB and the FECB minors overflowed: the
    overflow persist, the journal, the Anubis shadow and the reboot
    install must hand back both lines under major 1 in both layers."""
    config = replace(get_scheme(scheme).configure(MachineConfig()), functional=True)
    machine, workload = Machine(config), _HotLine()
    workload.setup(machine)
    workload.run(machine)
    machine.crash(FaultPlan(drain_fraction=1.0))
    report = machine.reboot()
    assert report.failed_lines == ()
    assert (report.trials, report.anubis_lines_restored) == (trials, restored)
    assert machine.load_bytes(workload.base, 2 * LINE_SIZE) == (
        bytes([HOT_WRITES]) * LINE_SIZE + bytes([0xA5]) * LINE_SIZE
    )
    controller = machine.controller
    [page] = [page for page, (gid, fid, *_) in controller.fecb.snapshot().items() if gid or fid]
    assert controller.mecb.peek(page).major == 1
    assert controller.fecb.peek(page).counters.major == 1

@pytest.mark.parametrize("workload, stamps", [("DAX-1", 12), ("Fillseq-S", 51), ("Hashmap", 108)])
def test_every_fecb_miss_on_the_pinned_grid_is_a_fault_time_stamp(workload, stamps):
    """At ``batchcheck`` sizes the pad path never misses the FECB: every
    FECB metadata-cache miss is ``update_fecb``'s write-allocate when a
    DAX fault stamps a page."""
    size, seed = BATCHCHECK_WORKLOADS[workload]
    factory = resolve_workload(workload, ops=size, iterations=size, seed=seed)
    result = run_workload(get_scheme("fsencr").configure(MachineConfig()), factory())
    misses = result.stat("metadata_cache.fecb_misses")
    assert misses == result.stat("controller.fecb_stamps") == stamps
