"""Anubis shadow tracking vs Osiris: the recovery-time trade."""

import pytest

from repro.secmem.anubis import ShadowTable


class TestShadowTable:
    def test_insert_tracks(self):
        shadow = ShadowTable(capacity_lines=4, base_addr=0x100000)
        shadow.note_insert(0x4000)
        assert shadow.tracked_lines() == {0x4000}
        assert shadow.occupancy == 1

    def test_evict_untracks_and_recycles(self):
        shadow = ShadowTable(capacity_lines=1, base_addr=0x100000)
        shadow.note_insert(0x4000)
        shadow.note_evict(0x4000)
        assert shadow.tracked_lines() == set()
        shadow.note_insert(0x5000)  # slot was recycled
        assert shadow.occupancy == 1

    def test_reinsert_updates_in_place(self):
        shadow = ShadowTable(capacity_lines=2, base_addr=0x100000)
        shadow.note_insert(0x4000)
        shadow.note_insert(0x4000)
        assert shadow.occupancy == 1
        assert shadow.stats.get("shadow_writes") == 2  # update wrote again

    def test_overflow_is_loud(self):
        shadow = ShadowTable(capacity_lines=1, base_addr=0x100000)
        shadow.note_insert(0x4000)
        with pytest.raises(RuntimeError):
            shadow.note_insert(0x5000)

    def test_evict_unknown_is_noop(self):
        shadow = ShadowTable(capacity_lines=1, base_addr=0x100000)
        shadow.note_evict(0x4000)
        assert shadow.occupancy == 0

    def test_write_hook_receives_region_addresses(self):
        written = []
        shadow = ShadowTable(
            capacity_lines=4, base_addr=0x100000, write_hook=written.append
        )
        shadow.note_insert(0x4000)
        shadow.note_evict(0x4000)
        assert all(0x100000 <= addr < 0x100000 + 4 * 64 for addr in written)
        assert len(written) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ShadowTable(capacity_lines=0, base_addr=0)


class TestShadowRecovery:
    """Reboot restores exactly ``shadow.tracked_lines()``; these pin what
    that set costs against Osiris's recovery work."""

    def test_osiris_vs_anubis_recovery_work(self):
        """Osiris recovery scales with the written footprint (every
        written line gets trial decryptions); Anubis with the cache."""
        from repro.secmem import encode_line, recover_line

        written_lines = 400
        cache_lines = 16
        stop_loss = 4

        # Osiris: every written line, up to stop_loss+1 trials each.
        plaintext = bytes(range(64))
        ecc = encode_line(plaintext)
        osiris_trials = sum(
            recover_line(plaintext, ecc, [(0, lambda candidate: bytes(64))], stop_loss).trials
            for _ in range(written_lines)
        )

        # Anubis: only the tracked (cache-resident) lines.
        shadow = ShadowTable(capacity_lines=cache_lines, base_addr=0x100000)
        resident = []
        for i in range(written_lines):
            addr = 0x4000 + i * 64
            if len(resident) == cache_lines:
                shadow.note_evict(resident.pop(0))
            shadow.note_insert(addr)
            resident.append(addr)
        anubis_lines = len(shadow.tracked_lines())

        assert anubis_lines < osiris_trials
        assert anubis_lines <= cache_lines

    def test_runtime_cost_is_the_other_side(self):
        """Anubis pays shadow writes at runtime; Osiris does not."""
        shadow = ShadowTable(capacity_lines=8, base_addr=0x100000)
        for i in range(8):
            shadow.note_insert(0x4000 + i * 64)
        assert shadow.stats.get("shadow_writes") == 8
