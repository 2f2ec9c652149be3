"""Crash / reboot lifecycle: fault dispositions and the recovery paths.

Each test stages real writes on a functional FsEncr machine, crashes it
under a targeted :class:`FaultPlan`, reboots through the real recovery
paths, and audits the survivors line by line.  The contract under test
is the paper's crash-consistency story end to end: drained writes come
back verbatim, dropped writes roll back to the previous durable
version, and torn writes or media flips are *detected* — never returned
as silently wrong bytes.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.crypto.iv import FILE_DOMAIN, MEMORY_DOMAIN, CounterIV
from repro.crypto.keys import SecretKey
from repro.crypto.otp import OTPEngine, xor_bytes
from repro.faults import CrashDomain, FaultPlan, LineWrite, TEAR_BYTES
from repro.secmem.ecc import check_line, encode_line
from repro.secmem.osiris import _MINOR_LIMIT, recover_line
from repro.sim import Machine, MachineConfig, Scheme

LINE = 64


def make_machine(**overrides):
    config = MachineConfig(scheme=Scheme.FSENCR, functional=True, **overrides)
    machine = Machine(config)
    machine.add_user(uid=1000, gid=100, passphrase="pw")
    return machine


def stage_writes(machine, lines=4, encrypted=True, persist=True):
    """Write ``lines`` distinct cache lines into a fresh mapped file;
    returns {paddr: plaintext} for every staged line."""
    handle = machine.create_file("/pmem/f", uid=1000, encrypted=encrypted)
    base = machine.mmap(handle, pages=1)
    for i in range(lines):
        machine.store_bytes(base + i * LINE, bytes([i + 1]) * LINE)
        if persist:
            machine.persist(base + i * LINE, LINE)
    return dict(machine.controller._plaintext_shadow)


def read_back(machine, addr):
    """Post-reboot read through the full verify path, or the exception."""
    try:
        return machine.controller.read_data(addr)
    except Exception as exc:  # noqa: BLE001 - the exception *is* the answer
        return exc


class TestCrashDispositions:
    def test_all_drained_recovers_every_new_value(self):
        machine = make_machine()
        truth = stage_writes(machine)
        crash = machine.crash(FaultPlan(drain_fraction=1.0))
        assert crash.inflight == crash.drained == len(truth)
        assert crash.dropped == crash.torn == 0
        recovery = machine.reboot()
        assert recovery.failed_lines == ()
        assert recovery.lines_recovered == recovery.lines_checked > 0
        for addr, expected in truth.items():
            assert read_back(machine, addr) == expected

    def test_dropped_first_write_is_detected_not_silent(self):
        """A dropped *first* write rolls back to erased NVM with no ECC:
        the line must fail recovery loudly, not decrypt to garbage."""
        machine = make_machine()
        truth = stage_writes(machine, lines=2)
        crash = machine.crash(FaultPlan(drain_fraction=0.0, torn_probability=0.0))
        assert crash.dropped == len(truth)
        machine.reboot()
        for addr, expected in truth.items():
            got = read_back(machine, addr)
            assert got != expected  # the write genuinely never happened
            if isinstance(got, bytes):
                # If it decrypts at all, plaintext ECC must disown it.
                ecc = machine.controller.store.read_ecc(addr)
                assert ecc is None or not check_line(got, ecc)

    def test_dropped_overwrite_rolls_back_to_previous_version(self):
        # stop_loss=8 keeps the counter journal *behind* both versions:
        # with the default window a stop-loss write-through lands between
        # v1 and v2, and a persisted counter ahead of the rolled-back
        # seal is (correctly) a detection, not a rollback.
        machine = make_machine(stop_loss=8)
        handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=1)
        machine.store_bytes(base, b"\x11" * LINE)
        machine.persist(base, LINE)
        old = dict(machine.controller._plaintext_shadow)
        # Quiesce: the v1 tail is durable, only v2 is in flight at crash.
        machine.controller.crash_domain.drain_all()
        machine.store_bytes(base, b"\x22" * LINE)
        machine.persist(base, LINE)
        machine.crash(FaultPlan(drain_fraction=0.0, torn_probability=0.0))
        recovery = machine.reboot()
        (addr,) = old.keys()
        assert addr not in recovery.failed_lines
        assert read_back(machine, addr) == old[addr] == b"\x11" * LINE

    def test_torn_writes_never_read_back_silently_wrong(self):
        machine = make_machine()
        truth = stage_writes(machine, lines=4)
        crash = machine.crash(FaultPlan(seed=0xBAD, drain_fraction=0.0, torn_probability=1.0))
        assert crash.torn == len(truth)
        machine.reboot()
        detected = 0
        for addr, expected in truth.items():
            got = read_back(machine, addr)
            if not isinstance(got, bytes):
                detected += 1
                continue
            ecc = machine.controller.store.read_ecc(addr)
            if ecc is None or not check_line(got, ecc):
                detected += 1
                continue
            # A tear that happened to land all-old or all-new is a
            # consistent version, which is fine; anything else is not.
            fate = crash.line_fates[addr]
            assert got in (expected, fate.old_plain or bytes(LINE))
        assert detected > 0  # word-mixed lines must trip the ECC

    def test_media_bit_flip_is_detected(self):
        machine = make_machine()
        truth = stage_writes(machine, lines=2)
        crash = machine.crash(FaultPlan(drain_fraction=1.0, bit_flips=1))
        ((flip_addr, _),) = crash.bit_flips
        machine.reboot()
        got = read_back(machine, flip_addr)
        if isinstance(got, bytes):
            ecc = machine.controller.store.read_ecc(flip_addr)
            assert ecc is None or not check_line(got, ecc)
            assert got != truth[flip_addr]

    def test_ott_key_survives_via_spill_region(self):
        machine = make_machine()
        stage_writes(machine, encrypted=True)
        machine.crash(FaultPlan(drain_fraction=1.0))
        recovery = machine.reboot()
        assert recovery.ott_keys_recovered >= 1
        assert recovery.merkle_leaves_rebuilt > 0


class TestExpandedFaultVocabulary:
    def test_torn_burst_groups_contiguous_lines(self):
        machine = make_machine()
        truth = stage_writes(machine, lines=8)
        crash = machine.crash(
            FaultPlan(seed=0xB0, drain_fraction=0.0, torn_probability=1.0, torn_burst=4)
        )
        assert crash.torn == len(truth)
        # Bursts group lines: strictly fewer tear events than torn lines.
        assert 1 <= crash.torn_bursts < crash.torn
        machine.reboot()
        for addr, expected in truth.items():
            got = read_back(machine, addr)
            if not isinstance(got, bytes):
                continue  # detected outright
            ecc = machine.controller.store.read_ecc(addr)
            if ecc is None or not check_line(got, ecc):
                continue  # word-mixed line tripped the plaintext ECC
            fate = crash.line_fates[addr]
            assert got in (expected, fate.old_plain or bytes(LINE))

    def test_torn_burst_one_means_independent_tears(self):
        machine = make_machine()
        truth = stage_writes(machine, lines=4)
        crash = machine.crash(
            FaultPlan(seed=0xB1, drain_fraction=0.0, torn_probability=1.0, torn_burst=1)
        )
        assert crash.torn == len(truth)
        assert crash.torn_bursts == crash.torn  # every tear is its own event

    @pytest.mark.parametrize("scheme", [Scheme.FSENCR, Scheme.BASELINE_SECURE])
    def test_counter_region_flips_detected_or_recovered(self, scheme):
        config = MachineConfig(scheme=scheme, functional=True)
        machine = Machine(config)
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        truth = stage_writes(machine, lines=4)
        crash = machine.crash(
            FaultPlan(seed=0xCF, drain_fraction=1.0, torn_probability=0.0, counter_flips=3)
        )
        assert len(crash.metadata_flips) == 3
        machine.reboot()
        for addr, expected in truth.items():
            got = read_back(machine, addr)
            if isinstance(got, bytes) and got != expected:
                # Accepted bytes that differ from the only durable
                # version must fail the plaintext ECC — never silent.
                ecc = machine.controller.store.read_ecc(addr)
                assert ecc is None or not check_line(got, ecc)

    def test_merkle_node_flip_is_flagged_poisoned(self):
        machine = make_machine()
        stage_writes(machine, lines=2)
        machine.crash(FaultPlan(drain_fraction=1.0, torn_probability=0.0))
        level, index = machine.controller.merkle.stored_nodes()[0]
        machine.controller.merkle.flip_node_bit(level, index, bit=5)
        recovery = machine.reboot()
        assert recovery.merkle_nodes_poisoned >= 1
        assert machine.controller.stats.get("merkle_poisoned_nodes") >= 1

    def test_ott_slot_flip_rejects_key_not_garbage(self):
        machine = make_machine()
        stage_writes(machine, lines=2, encrypted=True)
        machine.crash(FaultPlan(drain_fraction=1.0, torn_probability=0.0))
        slot = machine.controller.ott_region.occupied_slots()[0]
        machine.controller.ott_region.flip_bit(slot, bit=17)
        recovery = machine.reboot()
        assert recovery.ott_slots_rejected >= 1
        assert machine.controller.stats.get("ott_recovery_rejects") >= 1


class TestCrashedMachineGuard:
    def test_accesses_on_crashed_machine_raise(self):
        machine = make_machine()
        handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
        base = machine.mmap(handle, pages=1)
        machine.store_bytes(base, b"\x42" * LINE)
        machine.persist(base, LINE)
        machine.crash(FaultPlan(drain_fraction=1.0))
        for access in (
            lambda: machine.load(base),
            lambda: machine.store(base),
            lambda: machine.persist(base, LINE),
            lambda: machine.store_bytes(base, b"\x43" * LINE),
            lambda: machine.load_bytes(base, LINE),
        ):
            with pytest.raises(RuntimeError, match="crashed"):
                access()
        machine.reboot()
        machine.load(base)  # alive again
        assert machine.load_bytes(base, LINE) == b"\x42" * LINE


class TestLifecycleProtocol:
    def test_reboot_without_crash_raises(self):
        machine = make_machine()
        with pytest.raises(RuntimeError, match="without a preceding crash"):
            machine.reboot()

    @pytest.mark.parametrize("scheme, functional", [
        (Scheme.FSENCR, False),  # timing mode: no ciphertext to audit
        (Scheme.EXT4DAX_PLAIN, True),  # no secure controller to recover
    ], ids=["timing-fsencr", "functional-ext4dax_plain"])
    def test_only_functional_secure_machines_crash(self, scheme, functional):
        machine = Machine(MachineConfig(scheme=scheme, functional=functional))
        machine.add_user(uid=1000, gid=100, passphrase="pw")
        handle = machine.create_file("/pmem/f", uid=1000)
        base = machine.mmap(handle, pages=1)
        machine.store(base, LINE)
        machine.persist(base, LINE)
        clock = machine.clock_ns
        with pytest.raises(ValueError, match="secure memory controller"):
            machine.crash(FaultPlan(drain_fraction=0.0))
        assert machine.last_crash_report is None and machine.clock_ns == clock
        machine.load(base, LINE)  # still up: no reboot needed
        with pytest.raises(RuntimeError):
            machine.reboot()

    def test_crash_twice_raises(self):
        machine = make_machine()
        stage_writes(machine, lines=1)
        machine.crash(FaultPlan())
        with pytest.raises(RuntimeError, match="already crashed"):
            machine.crash(FaultPlan())
        machine.reboot()  # and the cycle can restart
        machine.crash(FaultPlan())
        machine.reboot()

    def test_same_seed_is_deterministic(self):
        def run():
            machine = make_machine()
            truth = stage_writes(machine)
            crash = machine.crash(
                FaultPlan(seed=0x5EED, drain_fraction=0.25, torn_probability=0.5, bit_flips=2)
            )
            recovery = machine.reboot()
            reads = {addr: repr(read_back(machine, addr)) for addr in truth}
            return crash, recovery, reads

        assert run() == run()

    def test_wpq_entries_reported_lost(self):
        machine = make_machine(model_wpq=True)
        stage_writes(machine)
        crash = machine.crash(FaultPlan(drain_fraction=0.0, torn_probability=0.0))
        assert crash.wpq_entries_lost > 0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drain_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(torn_probability=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(bit_flips=-1)

    def test_plan_derive_varies_seed_only(self):
        plan = FaultPlan(seed=1, drain_fraction=0.5)
        derived = plan.derive(7)
        assert derived.seed != plan.seed
        assert derived.drain_fraction == plan.drain_fraction
        assert plan.derive(7) == derived  # derivation itself is pure


class TestCrashDomainUnit:
    def _write(self, addr, old=b"o", new=b"n"):
        return dict(
            addr=addr,
            old_cipher=old * LINE,
            old_ecc=bytes(8),
            old_plain=old * LINE,
            new_cipher=new * LINE,
            new_ecc=bytes(8),
            new_plain=new * LINE,
        )

    def test_coalesces_same_address(self):
        domain = CrashDomain(depth=4)
        domain.record(**self._write(0x100, old=b"a", new=b"b"))
        domain.record(**self._write(0x100, old=b"b", new=b"c"))
        (entry,) = domain.inflight()
        assert entry.old_plain == b"a" * LINE  # oldest pre-image kept
        assert entry.new_plain == b"c" * LINE  # newest post-image kept

    def test_fifo_overflow_counts_as_drained(self):
        domain = CrashDomain(depth=2)
        for i in range(3):
            domain.record(**self._write(0x100 + i * LINE))
        assert len(domain) == 2
        assert domain.drained_writes == 1
        assert [w.addr for w in domain.inflight()] == [0x100 + LINE, 0x100 + 2 * LINE]

    def test_tear_granularity_is_device_word(self):
        assert TEAR_BYTES == 8
        assert LINE % TEAR_BYTES == 0


class _CountingEngine:
    """An OTP engine wrapper that counts pad computations per IV."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = Counter()

    def pad_for(self, iv):
        self.calls[iv.pack()] += 1
        return self._engine.pad_for(iv)

    def rekey(self, key):
        self._engine.rekey(key)


class _EngineHolder:
    """The two engine attributes the Osiris search reads off a controller."""

    def __init__(self, mem_key, file_key):
        self._memory_engine = _CountingEngine(OTPEngine(mem_key))
        self._file_engine = _CountingEngine(OTPEngine(file_key))


def _two_layer_search(holder, cipher, ecc, page, line_index,
                      mem_major, mem_minor, file_major, file_minor, stop_loss):
    """The one Osiris search over (MECB, FECB) through the holder's
    counting engines, in the naive reference's result shape."""
    def layer(engine, domain, major, minor):
        return minor, lambda candidate: engine.pad_for(CounterIV(
            domain=domain, page_id=page, page_offset=line_index,
            major=major, minor=candidate,
        ))

    found = recover_line(cipher, ecc, [
        layer(holder._memory_engine, MEMORY_DOMAIN, mem_major, mem_minor),
        layer(holder._file_engine, FILE_DOMAIN, file_major, file_minor),
    ], stop_loss)
    if found.minors is None:
        return None, found.trials
    return (*found.minors, found.plaintext), found.trials


def _naive_stamped_search(mem_key, file_key, cipher, ecc, page, line_index,
                          mem_major, mem_minor, file_major, file_minor, stop_loss):
    """Reference 2-D search: every in-range (MECB, FECB) lag pair, ordered
    by total lag then MECB lag, both pads recomputed for each trial."""
    pairs = sorted(
        ((m, f) for m in range(stop_loss + 1) for f in range(stop_loss + 1)),
        key=lambda pair: (pair[0] + pair[1], pair[0]),
    )
    mem_engine, file_engine = OTPEngine(mem_key), OTPEngine(file_key)
    trials = 0
    for mem_off, file_off in pairs:
        cand_mem, cand_file = mem_minor + mem_off, file_minor + file_off
        if cand_mem >= _MINOR_LIMIT or cand_file >= _MINOR_LIMIT:
            continue
        trials += 1
        mem_pad = mem_engine.pad_for(CounterIV(
            domain=MEMORY_DOMAIN, page_id=page, page_offset=line_index,
            major=mem_major, minor=cand_mem,
        ))
        file_pad = file_engine.pad_for(CounterIV(
            domain=FILE_DOMAIN, page_id=page, page_offset=line_index,
            major=file_major, minor=cand_file,
        ))
        plaintext = xor_bytes(xor_bytes(cipher, mem_pad), file_pad)
        if check_line(plaintext, ecc):
            return (cand_mem, cand_file, plaintext), trials
    return None, trials


def _stamped_cases(seed, count=24, stop_loss=4):
    """Seeded search inputs: lags inside the window, minors at the top of
    the 7-bit field (clipped windows), and lines with no match."""
    rng = random.Random(seed)
    mem_key, file_key = SecretKey(rng.randbytes(16)), SecretKey(rng.randbytes(16))
    for index in range(count):
        page, line_index = rng.randrange(1 << 20), rng.randrange(64)
        mem_major, file_major = rng.randrange(1 << 40), rng.randrange(1 << 20)
        near_ceiling, no_match = index % 2, index % 4 >= 2
        if near_ceiling:  # the window is clipped at the field's top
            mem_minor = _MINOR_LIMIT - 1 - rng.randrange(stop_loss)
            file_minor = _MINOR_LIMIT - 1 - rng.randrange(stop_loss)
        else:
            mem_minor = rng.randrange(_MINOR_LIMIT - stop_loss)
            file_minor = rng.randrange(_MINOR_LIMIT - stop_loss)
        plaintext = rng.randbytes(LINE)
        ecc = encode_line(plaintext)
        if no_match:  # no candidate decrypts to a line matching this ECC
            cipher = rng.randbytes(LINE)
        else:
            true_mem = rng.randrange(mem_minor, min(mem_minor + stop_loss, _MINOR_LIMIT - 1) + 1)
            true_file = rng.randrange(file_minor, min(file_minor + stop_loss, _MINOR_LIMIT - 1) + 1)
            cipher = xor_bytes(xor_bytes(plaintext, OTPEngine(mem_key).pad_for(CounterIV(
                domain=MEMORY_DOMAIN, page_id=page, page_offset=line_index,
                major=mem_major, minor=true_mem,
            ))), OTPEngine(file_key).pad_for(CounterIV(
                domain=FILE_DOMAIN, page_id=page, page_offset=line_index,
                major=file_major, minor=true_file,
            )))
        yield (mem_key, file_key, cipher, ecc, page, line_index,
               mem_major, mem_minor, file_major, file_minor, stop_loss)


class TestOsirisSearch:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stamped_search_matches_naive_reference(self, seed):
        kinds = Counter()
        for case in _stamped_cases(seed):
            mem_key, file_key, *args = case
            holder = _EngineHolder(mem_key, file_key)
            got = _two_layer_search(holder, *args)
            want = _naive_stamped_search(mem_key, file_key, *args)
            assert got == want
            stop_loss = args[-1]
            mem_minor, file_minor = args[5], args[7]
            window = (min(stop_loss + 1, _MINOR_LIMIT - mem_minor)
                      * min(stop_loss + 1, _MINOR_LIMIT - file_minor))
            clipped = window < (stop_loss + 1) ** 2
            if got[0] is None:
                assert got[1] == window  # an exhausted search tries the whole window
                kinds["miss, clipped" if clipped else "miss"] += 1
            else:
                kinds["found, clipped" if clipped else "found"] += 1
            # Each candidate's pad is computed at most once per line.
            for engine in (holder._memory_engine, holder._file_engine):
                assert engine.calls and max(engine.calls.values()) == 1
            assert len(holder._memory_engine.calls) <= stop_loss + 1
            assert len(holder._file_engine.calls) <= stop_loss + 1
        assert set(kinds) == {"found", "found, clipped", "miss", "miss, clipped"}

    def test_reboot_computes_each_candidate_pad_once(self):
        machine = make_machine()
        for path, encrypted in (("/pmem/enc", True), ("/pmem/plain", False)):
            handle = machine.create_file(path, uid=1000, encrypted=encrypted)
            base = machine.mmap(handle, pages=1)
            for i in range(4):
                machine.store_bytes(base + i * LINE, bytes([i + 1]) * LINE)
        # This plan drops two plain-page lines (their searches exhaust the
        # window) and recovers the other six.
        machine.crash(FaultPlan(seed=1, drain_fraction=0.75))
        controller = machine.controller
        controller._memory_engine = _CountingEngine(controller._memory_engine)
        controller._file_engine = _CountingEngine(controller._file_engine)
        recovery = machine.reboot()
        assert recovery.lines_recovered and recovery.failed_lines
        assert recovery.trials > recovery.lines_checked
        for engine in (controller._memory_engine, controller._file_engine):
            assert engine.calls and max(engine.calls.values()) == 1
