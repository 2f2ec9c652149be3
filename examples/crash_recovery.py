#!/usr/bin/env python3
"""Crash consistency: Osiris counter recovery and OTT reconstruction.

Simulates the §III-H story: the machine loses power with counter
updates still in the on-chip metadata cache, then recovers —

1. **Counters via Osiris** — the persisted counter is stale by at most
   ``stop_loss`` increments; trial decryption against the line's
   plaintext ECC finds the true value.
2. **File keys via the encrypted OTT region** — every OTT install was
   write-through-logged to the Merkle-protected region; after the crash
   the on-chip table is rebuilt from it.
3. **The Merkle root** — regenerated bottom-up from the recovered
   metadata and used to re-verify everything.

Run:  python examples/crash_recovery.py
"""

from repro import Machine, MachineConfig, Scheme
from repro.crypto import MEMORY_DOMAIN, CounterIV, OTPEngine
from repro.secmem import encode_line, recover_line


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> None:
    machine = Machine(MachineConfig(scheme=Scheme.FSENCR, functional=True, stop_loss=4))
    machine.add_user(uid=1000, gid=100, passphrase="crash-test-dummy")

    banner("Write persistent data through the encrypted path")
    handle = machine.create_file("/pmem/wal.log", uid=1000, encrypted=False)
    base = machine.mmap(handle, pages=1)
    record = b"TXN 0001 COMMIT; balance=1000; checksum=ok; pad.".ljust(64, b".")
    for generation in range(8):  # several commits: the counter advances
        machine.store_bytes(base, record)
    ecc = encode_line(record)  # Osiris stores this with the line
    controller = machine.controller
    pfn = handle.inode.extents[0]
    print(f"record persisted at pfn {pfn}; ECC computed over plaintext")

    banner("CRASH: lose the in-cache counter increments")
    true_minor = controller.mecb.block(pfn).value_for(0)[1]
    stale_minor = max(0, true_minor - 3)  # within the stop-loss window
    print(f"true minor counter: {true_minor}; persisted (stale): {stale_minor}")
    ciphertext = controller.store.read_line(pfn * 4096)

    banner("Recovery 1: Osiris trial decryption against the ECC")
    engine = OTPEngine(controller.keys.memory_key)

    def pad_for(candidate: int) -> bytes:
        return engine.pad_for(CounterIV(
            domain=MEMORY_DOMAIN, page_id=pfn, page_offset=0, major=0, minor=candidate
        ))

    # One counter layer here: the line's MECB minor.  A file-stamped
    # FsEncr line adds its FECB minor as a second layer.
    result = recover_line(ciphertext, ecc, [(stale_minor, pad_for)], stop_loss=4)
    print(f"recovered counter = {result.minors[0]} "
          f"after {result.trials} trial decryptions")
    assert result.plaintext == record
    print(f"data intact: {result.plaintext[:24].decode()!r}...")

    banner("Recovery 2: rebuild the OTT from the encrypted region")
    for i in range(4):
        machine.create_file(f"/pmem/enc{i}.dat", uid=1000, encrypted=True)
    keys_before = len(controller.ott)
    recovered_keys = controller.recover_ott_after_crash()
    print(f"keys installed before crash: {keys_before}; "
          f"recovered from the sealed region: {recovered_keys}")
    assert recovered_keys == keys_before

    banner("Recovery 3: regenerate and re-verify the Merkle root")
    root = controller.merkle.rebuild_root()
    controller.merkle.verify_leaf(controller.layout.mecb_addr(pfn))
    print(f"root regenerated: {root.hex()[:24]}...; leaf re-verified")

    banner("Negative check: a counter outside the stop-loss window fails")
    beyond = recover_line(ciphertext, ecc, [(max(0, true_minor - 9), pad_for)], stop_loss=4)
    assert beyond.minors is None, "recovered from beyond the window"
    print(f"correctly refused after {beyond.trials} trials: no candidate fit the ECC")
    print("(this is why the stop-loss write-through bound exists)")

if __name__ == "__main__":
    main()
