"""Machine migration (§VI): export, authenticate, adopt, and refuse."""

import pytest

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


def populated_controller():
    ctl = FsEncrController(layout=LAYOUT, config=SecureControllerConfig(functional=True))
    ctl.install_file_key(group_id=5, file_id=42, key=SecretKey(bytes([7]) * 16))
    ctl.update_fecb(page=3, group_id=5, file_id=42)
    ctl.write_data(set_df(3 * 4096), b"take me with you, processor!".ljust(64, b"."))
    ctl.write_data(0x9000, b"plain memory too".ljust(64, b"."))
    return ctl


class TestHappyPath:
    def test_roundtrip_preserves_file_data(self):
        src = populated_controller()
        package, dimm = export_machine(src, "transport-pass")
        dst = import_machine(LAYOUT, package, dimm, "transport-pass")
        assert dst.read_data(set_df(3 * 4096)).startswith(b"take me with you")
        assert dst.read_data(0x9000).startswith(b"plain memory too")

    def test_keys_recovered_into_new_ott(self):
        src = populated_controller()
        package, dimm = export_machine(src, "pw")
        dst = import_machine(LAYOUT, package, dimm, "pw")
        entry = dst.ott.lookup(5, 42)
        assert entry is not None and entry.key == SecretKey(bytes([7]) * 16)

    def test_destination_can_keep_writing(self):
        src = populated_controller()
        package, dimm = export_machine(src, "pw")
        dst = import_machine(LAYOUT, package, dimm, "pw")
        dst.write_data(set_df(3 * 4096 + 64), b"\x11" * 64)
        assert dst.read_data(set_df(3 * 4096 + 64)) == b"\x11" * 64

    def test_chip_keys_travel_sealed(self):
        src = populated_controller()
        package, _ = export_machine(src, "pw")
        assert src.keys.memory_key.reveal() not in package.sealed_keys
        assert src.keys.ott_key.reveal() not in package.sealed_keys


class TestRefusals:
    def test_wrong_passphrase_refused(self):
        src = populated_controller()
        package, dimm = export_machine(src, "right")
        with pytest.raises(TransportError):
            import_machine(LAYOUT, package, dimm, "wrong")

    def test_tampered_dimm_refused(self):
        src = populated_controller()
        package, dimm = export_machine(src, "pw")
        dimm.fecb.block(3).counters.minors[0] ^= 1  # in-transit tamper
        with pytest.raises(TransportError):
            import_machine(LAYOUT, package, dimm, "pw")

    def test_tampered_package_refused(self):
        src = populated_controller()
        package, dimm = export_machine(src, "pw")
        forged = type(package)(
            sealed_keys=bytes([package.sealed_keys[0] ^ 1]) + package.sealed_keys[1:],
            merkle_root=package.merkle_root,
            tag=package.tag,
        )
        with pytest.raises(TransportError):
            import_machine(LAYOUT, forged, dimm, "pw")

    def test_wrong_passphrase_import_never_yields_plaintext(self):
        """Even bypassing the tag, a wrong-passphrase unseal yields
        wrong keys that decrypt to noise — defence beyond the tag."""
        from repro.core.transport import _tag, _transport_pad
        from repro.crypto.otp import xor_bytes

        src = populated_controller()
        package, dimm = export_machine(src, "right")
        # Adversary recomputes a valid tag for their own passphrase.
        forged = type(package)(
            sealed_keys=package.sealed_keys,
            merkle_root=package.merkle_root,
            tag=_tag("wrong", package.sealed_keys, package.merkle_root),
        )
        from repro.core import KeyUnavailableError

        try:
            dst = import_machine(LAYOUT, forged, dimm, "wrong")
        except TransportError:
            return  # refused outright — fine
        # Wrong keys: either the OTT region fails its tags (no key at
        # all) or decryption yields noise — never the plaintext.
        try:
            recovered = dst.read_data(set_df(3 * 4096))
        except KeyUnavailableError:
            return
        assert not recovered.startswith(b"take me")
