"""The DAX filesystem: namespace, permissions, crypto hooks, faults."""

import pytest

from repro.crypto import SecretKey
from repro.fs import AccessDenied, DaxFilesystem, FsError
from repro.kernel import Keyring, KeyringError, MMIORegisters
from repro.mem import PAGE_SIZE


class _RecordingTarget:
    def __init__(self):
        self.installed = {}
        self.revoked = []
        self.stamped = []

    def install_file_key(self, group_id, file_id, key):
        self.installed[(group_id, file_id)] = key

    def revoke_file_key(self, group_id, file_id):
        self.revoked.append((group_id, file_id))

    def update_fecb(self, page, group_id, file_id):
        self.stamped.append((page, group_id, file_id))

    def admin_login(self, credential_digest):
        return True


def make_fs(with_mmio=True, pmem_pages=64):
    target = _RecordingTarget()
    fs = DaxFilesystem(
        pmem_base=1024 * PAGE_SIZE,
        pmem_bytes=pmem_pages * PAGE_SIZE,
        mmio=MMIORegisters(target=target) if with_mmio else None,
    )
    fs.users.add_user(1000, 100)
    fs.users.add_user(2000, 200)
    fs.keyring.login(1000, "alice-pass")
    fs.keyring.login(2000, "bob-pass")
    return fs, target


class TestNamespace:
    def test_create_open_stat(self):
        fs, _ = make_fs()
        handle, _ = fs.create("/f", uid=1000)
        assert fs.exists("/f")
        assert fs.stat("/f").i_ino == handle.inode.i_ino
        opened, _ = fs.open("/f", uid=1000)
        assert opened.inode is handle.inode

    def test_duplicate_create_rejected(self):
        fs, _ = make_fs()
        fs.create("/f", uid=1000)
        with pytest.raises(FsError):
            fs.create("/f", uid=1000)

    def test_open_missing_rejected(self):
        fs, _ = make_fs()
        with pytest.raises(FsError):
            fs.open("/nope", uid=1000)

    def test_unlink_removes(self):
        fs, _ = make_fs()
        fs.create("/f", uid=1000)
        fs.unlink("/f", uid=1000)
        assert not fs.exists("/f")

    def test_inode_numbers_unique(self):
        fs, _ = make_fs()
        a, _ = fs.create("/a", uid=1000)
        b, _ = fs.create("/b", uid=1000)
        assert a.inode.i_ino != b.inode.i_ino


class TestPermissions:
    def test_other_user_cannot_open_private_file(self):
        fs, _ = make_fs()
        fs.create("/secret", uid=1000, mode=0o600)
        with pytest.raises(AccessDenied):
            fs.open("/secret", uid=2000)

    def test_world_readable_opens(self):
        fs, _ = make_fs()
        fs.create("/pub", uid=1000, mode=0o644)
        fs.open("/pub", uid=2000)  # read OK
        with pytest.raises(AccessDenied):
            fs.open("/pub", uid=2000, write=True)

    def test_chmod_owner_only(self):
        fs, _ = make_fs()
        fs.create("/f", uid=1000)
        with pytest.raises(AccessDenied):
            fs.chmod("/f", uid=2000, mode=0o777)
        fs.chmod("/f", uid=1000, mode=0o777)
        assert fs.stat("/f").mode == 0o777

    def test_chmod_777_opens_mode_but_not_key(self):
        """The paper's scenario: permissions botched, crypto holds."""
        fs, _ = make_fs()
        fs.create("/secret", uid=1000, mode=0o600, encrypted=True)
        fs.chmod("/secret", uid=1000, mode=0o777)
        # Bob passes the mode check but his FEKEK cannot unwrap the FEK.
        with pytest.raises(KeyringError):
            fs.open("/secret", uid=2000)


class TestEncryptionHooks:
    def test_create_installs_key(self):
        fs, target = make_fs()
        handle, _ = fs.create("/e", uid=1000, encrypted=True)
        ident = (handle.inode.i_gid, handle.inode.i_ino)
        assert ident in target.installed
        key = target.installed[ident]
        assert isinstance(key, SecretKey)
        assert handle.inode.encryption.key_fingerprint == key.fingerprint()

    def test_open_reinstalls_same_key(self):
        fs, target = make_fs()
        handle, _ = fs.create("/e", uid=1000, encrypted=True)
        ident = (handle.inode.i_gid, handle.inode.i_ino)
        created_key = target.installed[ident]
        target.installed.clear()
        fs.open("/e", uid=1000)
        assert target.installed[ident] == created_key

    def test_unlink_revokes(self):
        fs, target = make_fs()
        handle, _ = fs.create("/e", uid=1000, encrypted=True)
        fs.unlink("/e", uid=1000)
        assert (handle.inode.i_gid, handle.inode.i_ino) in target.revoked

    def test_plain_file_no_mmio_traffic(self):
        fs, target = make_fs()
        fs.create("/p", uid=1000, encrypted=False)
        assert target.installed == {}

    def test_encrypted_create_requires_session(self):
        fs, _ = make_fs()
        fs.users.add_user(3000, 300)  # never logged in
        with pytest.raises(KeyringError):
            fs.create("/e", uid=3000, encrypted=True)

    def test_key_fingerprint_recorded(self):
        fs, target = make_fs()
        handle, _ = fs.create("/e", uid=1000, encrypted=True)
        assert handle.inode.encryption.key_fingerprint


class TestFaultIn:
    def test_allocates_and_stamps(self):
        fs, target = make_fs()
        handle, _ = fs.create("/e", uid=1000, encrypted=True)
        pfn, df, latency = fs.fault_in(handle, file_page=0)
        assert df is True
        assert latency > 0
        assert (pfn, handle.inode.i_gid, handle.inode.i_ino) in target.stamped
        assert pfn >= 1024  # inside the PMEM region

    def test_repeat_fault_same_page(self):
        fs, _ = make_fs()
        handle, _ = fs.create("/f", uid=1000)
        pfn1, _, _ = fs.fault_in(handle, 0)
        pfn2, _, _ = fs.fault_in(handle, 0)
        assert pfn1 == pfn2

    def test_plain_file_no_df(self):
        fs, _ = make_fs()
        handle, _ = fs.create("/f", uid=1000)
        _, df, _ = fs.fault_in(handle, 0)
        assert df is False

    def test_no_mmio_means_no_df(self):
        fs, _ = make_fs(with_mmio=False)
        handle, _ = fs.create("/f", uid=1000)
        _, df, _ = fs.fault_in(handle, 0)
        assert df is False

    def test_size_grows_with_faults(self):
        fs, _ = make_fs()
        handle, _ = fs.create("/f", uid=1000)
        fs.fault_in(handle, 3)
        assert handle.inode.size == 4 * PAGE_SIZE


class TestAllocation:
    def test_enospc(self):
        fs, _ = make_fs(pmem_pages=2)
        handle, _ = fs.create("/f", uid=1000)
        fs.fault_in(handle, 0)
        fs.fault_in(handle, 1)
        with pytest.raises(FsError):
            fs.fault_in(handle, 2)

    def test_unlink_frees_pages(self):
        fs, _ = make_fs(pmem_pages=2)
        handle, _ = fs.create("/f", uid=1000)
        fs.fault_in(handle, 0)
        fs.fault_in(handle, 1)
        fs.unlink("/f", uid=1000)
        handle2, _ = fs.create("/g", uid=1000)
        fs.fault_in(handle2, 0)
        fs.fault_in(handle2, 1)  # space reclaimed

    def test_free_bytes_restored_after_churn(self):
        fs, _ = make_fs(pmem_pages=64)
        free_before = len(fs._free_pages)
        for i in range(12):
            handle, _ = fs.create(f"/f{i}", uid=1000, encrypted=(i % 2 == 0))
            for page in range(i % 4 + 1):
                fs.fault_in(handle, page)
        for i in range(0, 12, 3):
            fs.unlink(f"/f{i}", uid=1000)
        for i in range(12):
            if i % 3:
                fs.unlink(f"/f{i}", uid=1000)
        assert len(fs._free_pages) == free_before

    def test_misaligned_region_rejected(self):
        with pytest.raises(ValueError):
            DaxFilesystem(pmem_base=100, pmem_bytes=PAGE_SIZE)
