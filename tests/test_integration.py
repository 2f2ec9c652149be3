"""End-to-end scenarios: the paper's stories run on the full machine."""

import pytest

from repro.kernel import KeyringError
from repro.mem import PAGE_SIZE
from repro.sim import Machine, MachineConfig, Scheme


def functional_machine():
    machine = Machine(MachineConfig(scheme=Scheme.FSENCR, functional=True))
    machine.add_user(uid=1000, gid=100, passphrase="alice-pass")
    machine.add_user(uid=2000, gid=200, passphrase="bob-pass")
    return machine


class TestMultiUserStory:
    """§VI 'Protecting Files from Accidental Permission Changes'."""

    def test_chmod_777_does_not_expose_encrypted_file(self):
        m = functional_machine()
        m.create_file("/pmem/alice.db", uid=1000, mode=0o600, encrypted=True)
        handle = m.open_file("/pmem/alice.db", uid=1000, write=True)
        base = m.mmap(handle, pages=1)
        m.store_bytes(base, b"alice's private ledger entries.")

        # The fat-fingered chmod.
        m.chmod("/pmem/alice.db", uid=1000, mode=0o777)

        # Bob passes the mode check but his passphrase-derived FEKEK
        # cannot unwrap Alice's FEK: open is refused.
        with pytest.raises(KeyringError):
            m.open_file("/pmem/alice.db", uid=2000)

    def test_owner_still_opens_after_chmod(self):
        m = functional_machine()
        m.create_file("/pmem/alice.db", uid=1000, mode=0o600, encrypted=True)
        m.chmod("/pmem/alice.db", uid=1000, mode=0o777)
        handle = m.open_file("/pmem/alice.db", uid=1000)
        assert handle.inode.encrypted

    def test_unencrypted_file_is_exposed_by_chmod(self):
        """The contrast: without the key check, mode bits are the only
        defence, and chmod 777 hands the file over."""
        m = functional_machine()
        m.create_file("/pmem/notes.txt", uid=1000, mode=0o600, encrypted=False)
        m.chmod("/pmem/notes.txt", uid=1000, mode=0o777)
        handle = m.open_file("/pmem/notes.txt", uid=2000)  # no refusal
        assert not handle.inode.encrypted


class TestColdBootStory:
    """§VI 'Protecting Files from Internal Attacks': DIMM pull / OS swap."""

    def test_dimm_scan_sees_only_ciphertext(self):
        m = functional_machine()
        handle = m.create_file("/pmem/secret", uid=1000, encrypted=True)
        base = m.mmap(handle, pages=1)
        secret = b"PAYROLL ROW 42: salary=123456"
        m.store_bytes(base, secret)
        residue = b"".join(m.controller.store.scan().values())
        assert secret not in residue
        assert b"PAYROLL" not in residue

    def test_failed_admin_login_locks_file_engine(self):
        m = functional_machine()
        good = m.keyring.credential_digest("root-pw")
        ok, _ = m.mmio.admin_login(good)
        assert ok

        handle = m.create_file("/pmem/secret", uid=1000, encrypted=True)
        base = m.mmap(handle, pages=1)
        m.store_bytes(base, b"classified")

        # Intruder boots with a different OS / wrong credential.
        bad = m.keyring.credential_digest("guess")
        ok, _ = m.mmio.admin_login(bad)
        assert not ok
        assert m.controller.locked
        assert m.load_bytes(base, 10) != b"classified"

        # Rightful admin returns.
        m.mmio.admin_login(good)
        assert m.load_bytes(base, 10) == b"classified"


class TestSecureDeletionStory:
    def test_unlink_shreds_data(self):
        m = functional_machine()
        handle = m.create_file("/pmem/doomed", uid=1000, encrypted=True)
        base = m.mmap(handle, pages=1)
        m.store_bytes(base, b"ephemeral")
        pfn = handle.inode.extents[0]
        m.unlink("/pmem/doomed", uid=1000)
        # The physical line still holds ciphertext, but the controller's
        # FECB for the page is invalidated: no way back to the plaintext.
        residue = m.controller.store.read_line(pfn * PAGE_SIZE)
        assert residue != bytes(64)
        fecb = m.controller.fecb.peek(pfn)
        assert fecb is None or not fecb.stamped


class TestCrashRecoveryStory:
    def test_ott_survives_crash_via_encrypted_region(self):
        m = functional_machine()
        for i in range(5):
            m.create_file(f"/pmem/f{i}", uid=1000, encrypted=True)
        installed = len(m.controller.ott)
        recovered = m.controller.recover_ott_after_crash()
        assert recovered == installed

    def test_counters_recoverable_within_stop_loss(self):
        """Osiris end-to-end: ECC trial decryption recovers the counter
        value lost from the metadata cache at crash."""
        from repro.secmem import encode_line, recover_line
        from repro.crypto import OTPEngine, CounterIV, MEMORY_DOMAIN

        m = functional_machine()
        handle = m.create_file("/pmem/f", uid=1000, encrypted=False)
        base = m.mmap(handle, pages=1)
        plaintext = b"\x42" * 64
        m.store_bytes(base, plaintext)
        ecc = encode_line(plaintext)

        ctl = m.controller
        pfn = handle.inode.extents[0]
        ciphertext = ctl.store.read_line(pfn * PAGE_SIZE)
        true_minor = ctl.mecb.block(pfn).value_for(0)[1]
        persisted_minor = max(0, true_minor - 2)  # staleness within stop-loss

        engine = OTPEngine(ctl.keys.memory_key)

        def pad_for(candidate):
            return engine.pad_for(CounterIV(
                domain=MEMORY_DOMAIN, page_id=pfn, page_offset=0,
                major=0, minor=candidate,
            ))

        result = recover_line(ciphertext, ecc, [(persisted_minor, pad_for)], stop_loss=4)
        assert result.minors == (true_minor,)
        assert result.plaintext == plaintext


class TestFileCopySemantics:
    """§VI 'Copying or Moving Files Within Same Device'."""

    def test_copy_to_new_file_readable_and_distinctly_sealed(self):
        m = functional_machine()
        src = m.create_file("/pmem/src", uid=1000, encrypted=True)
        src_base = m.mmap(src, pages=1)
        content = b"copy me please, kernel!"
        m.store_bytes(src_base, content)

        dst = m.create_file("/pmem/dst", uid=1000, encrypted=True)
        dst_base = m.mmap(dst, pages=1)
        # Kernel copy loop: read through src mapping, write through dst.
        m.store_bytes(dst_base, m.load_bytes(src_base, len(content)))

        assert m.load_bytes(dst_base, len(content)) == content
        src_line = m.controller.store.read_line(src.inode.extents[0] * PAGE_SIZE)
        dst_line = m.controller.store.read_line(dst.inode.extents[0] * PAGE_SIZE)
        assert src_line != dst_line  # spatial uniqueness: different pads
