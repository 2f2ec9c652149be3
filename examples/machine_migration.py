#!/usr/bin/env python3
"""Moving an encrypted filesystem to a new machine (§VI).

The DIMM is pulled from machine A and plugged into machine B.  Without
an authorised transport, B sees cipher-soup — the memory key, OTT key
and Merkle root never left A's processor.  With one, the admin seals
those secrets under a transport passphrase, carries them out-of-band,
and B authenticates both the package and the module before adopting it.

Also shown: the two refusal paths (wrong passphrase; module tampered in
transit).

Run:  python examples/machine_migration.py
"""

from repro.core import (
    FsEncrController,
    TransportError,
    export_machine,
    import_machine,
    set_df,
)
from repro.crypto import SecretKey
from repro.secmem import MetadataLayout, SecureControllerConfig


LAYOUT = MetadataLayout(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024)


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> None:
    banner("Machine A: an encrypted file lives on the DIMM")
    source = FsEncrController(layout=LAYOUT, config=SecureControllerConfig(functional=True))
    source.install_file_key(group_id=9, file_id=77, key=SecretKey(bytes(range(16))))
    source.update_fecb(page=5, group_id=9, file_id=77)
    addr = set_df(5 * 4096)
    payload = b"quarterly results: do not leak".ljust(64, b".")
    source.write_data(addr, payload)
    print(f"written on A: {payload[:30].decode()!r}")

    banner("Naive move: plug the DIMM into a fresh machine B")
    naive = FsEncrController(layout=LAYOUT, config=SecureControllerConfig(functional=True))
    naive_view = naive.store = source.store  # the physical module moved
    raw = source.store.read_line(5 * 4096)
    print(f"B's raw view of the line: {raw[:24].hex()}... (sealed)")
    print("B has neither the memory key nor the OTT key: unreadable.")

    banner("Authorised transport: export from A")
    package, dimm = export_machine(source, passphrase="migration-2026")
    print(f"sealed package: {package.sealed_keys.hex()[:32]}... "
          f"root={package.merkle_root.hex()[:16]}...")

    banner("Import on B with the right passphrase")
    dest = import_machine(LAYOUT, package, dimm, passphrase="migration-2026")
    recovered = dest.read_data(addr)
    print(f"B reads: {recovered[:30].decode()!r}")
    assert recovered == payload
    keys = dest.stats.get("transport_keys_recovered")
    print(f"file keys recovered from the encrypted OTT region: {keys}")

    banner("Refusal 1: wrong transport passphrase")
    try:
        import_machine(LAYOUT, package, dimm, passphrase="guessed")
    except TransportError as exc:
        print(f"refused: {exc}")

    banner("Refusal 2: module tampered in transit")
    package2, dimm2 = export_machine(source, passphrase="migration-2026")
    dimm2.fecb.block(5).counters.minors[0] ^= 1
    try:
        import_machine(LAYOUT, package2, dimm2, passphrase="migration-2026")
    except TransportError as exc:
        print(f"refused: {exc}")

    print("\nBoth refusal paths hold; the authorised path round-trips.")


if __name__ == "__main__":
    main()
