"""Property-based invariants over the composed system.

The heavyweight guarantees, checked with hypothesis over randomised
operation sequences:

* **functional consistency** — arbitrary interleavings of writes and
  reads through the full machine always read back the latest data;
* **pad uniqueness** — across any write sequence, no (key, IV) pair is
  ever used twice by the controller's engines (THE counter-mode
  invariant; its violation is a catastrophic two-time pad);
* **allocator soundness** — live allocations never overlap, frees
  recycle without aliasing.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FsEncrController, set_df
from repro.crypto import OTPEngine, SecretKey
from repro.mem import PAGE_SIZE
from repro.secmem import MetadataLayout, SecureControllerConfig
from repro.sim import Machine, MachineConfig, Scheme


LAYOUT = MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024)


class _RecordingEngine(OTPEngine):
    """An OTP engine that logs every (key, packed-IV) it generates."""

    observed = None  # injected per test

    def pad_for(self, iv):
        key = self._cipher.key
        record = (key, iv.pack())
        bucket = _RecordingEngine.observed[key]
        bucket.append(iv.pack())
        return super().pad_for(iv)


class TestFunctionalConsistency:
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 30), st.binary(min_size=1, max_size=48)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_machine_reads_latest_write(self, writes):
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR, functional=True))
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        handle = machine.create_file("/pmem/prop", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=2)

        shadow = {}
        for slot, data in writes:
            addr = base + slot * 64
            machine.store_bytes(addr, data)
            shadow[slot] = (data, len(data))
        for slot, (data, length) in shadow.items():
            assert machine.load_bytes(base + slot * 64, length) == data

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 15), st.integers(1, 255)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_two_files_never_alias(self, ops):
        machine = Machine(MachineConfig(scheme=Scheme.FSENCR, functional=True))
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        handles = [
            machine.create_file(f"/pmem/f{i}", uid=1000, encrypted=True)
            for i in range(2)
        ]
        bases = [machine.mmap(h, pages=1) for h in handles]
        shadows = [dict(), dict()]
        for which_file, slot, fill in ops:
            index = int(which_file)
            data = bytes([fill]) * 32
            machine.store_bytes(bases[index] + slot * 64, data)
            shadows[index][slot] = data
        for index in range(2):
            for slot, data in shadows[index].items():
                assert machine.load_bytes(bases[index] + slot * 64, 32) == data


class TestPadUniqueness:
    def _instrumented_controller(self):
        observed = defaultdict(list)
        _RecordingEngine.observed = observed
        controller = FsEncrController(
            layout=LAYOUT, config=SecureControllerConfig(functional=True)
        )
        # Swap both engines for recording variants with the same keys.
        controller._memory_engine = _RecordingEngine(controller.keys.memory_key)
        controller._file_engine = _RecordingEngine(SecretKey(bytes(16)))
        return controller, observed

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=5,
            max_size=60,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_no_write_pad_reuse(self, ops):
        """Across any sequence of DAX/plain writes, the pads used for
        *sealing* never repeat per key.  (Read pads legitimately repeat
        — the same version is regenerated to decrypt.)"""
        controller, observed = self._instrumented_controller()
        controller.install_file_key(1, 5, SecretKey(bytes([9]) * 16))
        for page in range(4):
            controller.update_fecb(page=page, group_id=1, file_id=5)
        observed.clear()  # discard install-time region sealing pads

        for page, line in ops:
            addr = page * PAGE_SIZE + line * 64
            if page < 4:
                addr = set_df(addr)
            controller.write_data(addr, bytes([(page * 8 + line) % 256]) * 64)

        for key, ivs in observed.items():
            assert len(ivs) == len(set(ivs)), "two-time pad: IV reused under one key"


class TestAllocatorSoundness:
    @given(
        actions=st.lists(
            st.tuples(st.booleans(), st.integers(8, 200)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_live_allocations_never_overlap(self, actions):
        from repro.workloads import PersistentAllocator

        machine = Machine(MachineConfig(scheme=Scheme.BASELINE_SECURE))
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        handle = machine.create_file("/pmem/pool", uid=1000)
        base = machine.mmap(handle, pages=256)
        alloc = PersistentAllocator(machine, base, 256 * PAGE_SIZE)

        live = {}  # addr -> size
        for do_alloc, size in actions:
            if do_alloc or not live:
                addr = alloc.alloc(size)
                for other, other_size in live.items():
                    assert addr + size <= other or other + other_size <= addr, (
                        "allocations overlap"
                    )
                live[addr] = size
            else:
                addr, size = next(iter(live.items()))
                alloc.free(addr, size)
                del live[addr]
        assert alloc._allocated == len(live)
