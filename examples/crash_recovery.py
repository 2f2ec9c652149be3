#!/usr/bin/env python3
"""Crash consistency: Osiris counter recovery and OTT reconstruction.

Simulates the §III-H story: the machine loses power with counter
updates still in the on-chip metadata cache (``Machine.crash``), then
reboots (``Machine.reboot``) through the real recovery paths —

1. **File keys via the encrypted OTT region** — every OTT install was
   write-through-logged to the Merkle-protected region; after the crash
   the on-chip table is rebuilt from it.
2. **Counters via Osiris** — a persisted counter is stale by at most
   ``stop_loss`` increments; trial decryption against each line's
   plaintext ECC finds the true value (two counter layers for a line of
   an encrypted DAX file).
3. **The Merkle root** — regenerated bottom-up from the recovered
   metadata and used to re-verify everything.

The example then reads both records back and exits non-zero if either
differs or the reboot did not rebuild the keys and the root.

Run:  python examples/crash_recovery.py
"""

import sys

from repro import Machine, MachineConfig, Scheme
from repro.crypto import MEMORY_DOMAIN, CounterIV, OTPEngine
from repro.secmem import recover_line


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> int:
    machine = Machine(MachineConfig(scheme=Scheme.FSENCR, functional=True, stop_loss=4))
    machine.add_user(uid=1000, gid=100, passphrase="crash-test-dummy")
    controller = machine.controller

    banner("Write persistent data through the encrypted path")
    wal = machine.create_file("/pmem/wal.log", uid=1000, encrypted=False)
    wal_base = machine.mmap(wal, pages=1)
    record = b"TXN 0001 COMMIT; balance=1000; checksum=ok; pad.".ljust(64, b".")
    for generation in range(7):  # several commits: the counter advances
        machine.store_bytes(wal_base, record)
    vault = machine.create_file("/pmem/vault.dat", uid=1000, encrypted=True)
    vault_base = machine.mmap(vault, pages=1)
    secret = b"dual-pad secret: OTP_mem XOR OTP_file;".ljust(64, b"!")
    for generation in range(5):
        machine.store_bytes(vault_base, secret)
    for i in range(3):
        machine.create_file(f"/pmem/enc{i}.dat", uid=1000, encrypted=True)
    pfn = wal.inode.extents[0]
    true_minor = controller.mecb.block(pfn).value_for(0)[1]
    keys_before = len(controller.ott)
    root_before = controller.merkle.root
    print(f"WAL record at pfn {pfn}, minor counter {true_minor}; "
          f"{keys_before} file keys installed")

    banner("CRASH: power fails, the in-cache counter increments are lost")
    crash = machine.crash()
    print(f"{crash.inflight} writes in flight: {crash.drained} drained, "
          f"{crash.dropped} dropped, {crash.torn} torn")

    banner("REBOOT: OTT region scan, Osiris trial decryption, Merkle rebuild")
    report = machine.reboot()
    print(f"OTT keys recovered from the sealed region: {report.ott_keys_recovered}")
    print(f"counters recovered on {report.lines_recovered}/{report.lines_checked} lines "
          f"after {report.trials} trial decryptions")
    print(f"Merkle leaves rebuilt: {report.merkle_leaves_rebuilt}; "
          f"recovery took {report.recovery_ns / 1000.0:.1f} us")

    banner("Check: the records read back and the keys and root are rebuilt")
    failures = []
    if machine.load_bytes(wal_base, 64) != record:
        failures.append("the WAL record did not read back")
    if machine.load_bytes(vault_base, 64) != secret:
        failures.append("the encrypted file's record did not read back")
    if report.failed_lines:
        failures.append(f"{len(report.failed_lines)} line(s) failed recovery")
    if report.ott_keys_recovered != keys_before or len(controller.ott) != keys_before:
        failures.append(f"OTT rebuilt {report.ott_keys_recovered} of {keys_before} keys")
    if controller.merkle.root != root_before:
        failures.append("the rebuilt Merkle root differs from the pre-crash root")
    controller.merkle.verify_leaf(controller.layout.mecb_addr(pfn))
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"data intact: {record[:24].decode()!r}..., {secret[:16].decode()!r}...")
    print(f"{keys_before} keys and the root rebuilt; WAL leaf re-verified")

    banner("Negative check: a counter outside the stop-loss window fails")
    engine = OTPEngine(controller.keys.memory_key)

    def pad_for(candidate: int) -> bytes:
        return engine.pad_for(CounterIV(
            domain=MEMORY_DOMAIN, page_id=pfn, page_offset=0, major=0, minor=candidate
        ))

    addr = pfn * 4096
    ciphertext, ecc = controller.store.read_line(addr), controller.store.read_ecc(addr)
    # One counter layer here: the line's MECB minor.  A file-stamped
    # FsEncr line adds its FECB minor as a second layer.
    beyond = recover_line(ciphertext, ecc, [(max(0, true_minor - 9), pad_for)], stop_loss=4)
    if beyond.minors is not None:
        print("FAIL: recovered from beyond the stop-loss window")
        return 1
    print(f"correctly refused after {beyond.trials} trials: no candidate fit the ECC")
    print("(this is why the stop-loss write-through bound exists)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
