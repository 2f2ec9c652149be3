"""Kernel services: MMIO channel, keyring, page cache, cost model."""

import pytest

from repro.crypto import generate_fek
from repro.kernel import (
    Keyring,
    KeyringError,
    MMIORegisters,
    PageCache,
    PageCacheConfig,
    SoftwareCosts,
)


class _RecordingTarget:
    """A fake memory controller recording MMIO verbs."""

    def __init__(self):
        self.calls = []
        self.accept_admin = True

    def install_file_key(self, group_id, file_id, key):
        self.calls.append(("install", group_id, file_id, key))

    def revoke_file_key(self, group_id, file_id):
        self.calls.append(("revoke", group_id, file_id))

    def update_fecb(self, page, group_id, file_id):
        self.calls.append(("fecb", page, group_id, file_id))

    def admin_login(self, credential_digest):
        self.calls.append(("admin", credential_digest))
        return self.accept_admin


class TestMMIO:
    def test_install_reaches_target_and_charges(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        latency = mmio.install_file_key(1, 2, b"k" * 16)
        assert target.calls == [("install", 1, 2, b"k" * 16)]
        assert latency == 5 * mmio.write_latency_ns

    def test_revoke(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        latency = mmio.revoke_file_key(1, 2)
        assert target.calls == [("revoke", 1, 2)]
        assert latency == 3 * mmio.write_latency_ns

    def test_update_fecb(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        latency = mmio.update_fecb(9, 1, 2)
        assert target.calls == [("fecb", 9, 1, 2)]
        assert latency == 4 * mmio.write_latency_ns

    def test_admin_login_passthrough(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        ok, latency = mmio.admin_login(b"digest")
        assert ok is True and latency > 0
        target.accept_admin = False
        ok, _ = mmio.admin_login(b"digest")
        assert ok is False

    def test_stats(self):
        mmio = MMIORegisters(target=_RecordingTarget())
        mmio.install_file_key(1, 2, b"k" * 16)
        mmio.update_fecb(9, 1, 2)
        assert mmio.stats.get("install_key") == 1
        assert mmio.stats.get("update_fecb") == 1
        assert mmio.stats.get("register_writes") == 9


class TestKeyring:
    def test_login_session_wrap_unwrap(self):
        ring = Keyring()
        session = ring.login(1000, "hunter2")
        fek = generate_fek(b"e")
        assert session.unwrap(session.wrap(fek)) == fek

    def test_wrong_user_cannot_unwrap(self):
        ring = Keyring()
        alice = ring.login(1000, "alice-pass")
        mallory = ring.login(2000, "guessed-pass")
        wrapped = alice.wrap(generate_fek(b"e"))
        with pytest.raises(KeyringError):
            mallory.unwrap(wrapped)

    def test_same_passphrase_same_fekek(self):
        ring = Keyring()
        a = ring.login(1000, "pw")
        b = ring.login(1000, "pw")
        assert a.fekek == b.fekek

    def test_no_session_raises(self):
        with pytest.raises(KeyringError):
            Keyring().session(1000)


class TestPageCache:
    def test_insert_lookup(self):
        pc = PageCache(PageCacheConfig(capacity_pages=4))
        pc.insert(1, 0)
        assert pc.lookup(1, 0) is not None
        assert pc.lookup(1, 1) is None

    def test_lru_eviction(self):
        pc = PageCache(PageCacheConfig(capacity_pages=2))
        pc.insert(1, 0)
        pc.insert(1, 1)
        pc.lookup(1, 0)
        evicted = pc.insert(1, 2)
        assert (evicted.file_id, evicted.page_index) == (1, 1)

    def test_dirty_propagation(self):
        pc = PageCache(PageCacheConfig(capacity_pages=1))
        pc.insert(1, 0, dirty=True)
        evicted = pc.insert(1, 1)
        assert evicted.dirty

    def test_mark_dirty(self):
        pc = PageCache(PageCacheConfig(capacity_pages=2))
        pc.insert(1, 0)
        pc.mark_dirty(1, 0)
        evicted = pc.insert(1, 1) or pc.insert(1, 2)
        assert evicted.dirty


class TestSoftwareCosts:
    def test_page_costs_scale_with_page_size(self):
        costs = SoftwareCosts()
        assert costs.page_copy_ns == pytest.approx(4096 * costs.copy_ns_per_byte)
        assert costs.page_crypto_ns > costs.page_copy_ns

    def test_encrypted_fault_strictly_costlier(self):
        costs = SoftwareCosts()
        assert costs.encrypted_fault_ns() > costs.conventional_fault_ns()

    def test_dax_fault_much_cheaper_than_conventional(self):
        """Figure 1's point: DAX removes the copy and FS/driver layers."""
        costs = SoftwareCosts()
        assert costs.dax_fault_ns() < costs.conventional_fault_ns() / 1.5
