"""Moving an encrypted filesystem to a new machine (§VI).

Hardware-rooted encryption normally pins a DIMM to its processor: the
memory key, OTT key, and Merkle root live on-chip, so a module plugged
into another socket is unreadable cipher-soup.  The paper's escape hatch
is an *authorised transport*: flush the OTT to its encrypted region,
seal {memory key, OTT key, integrity root} under a passphrase-derived
transport key, carry the package out-of-band, and have the destination
authenticate it before adopting the keys.

Two artefacts model that flow:

* :class:`DimmImage` — everything that physically travels on the module:
  the ciphertext store, both counter stores, the sealed OTT region
  lines, and the Merkle node array.
* :class:`TransportPackage` — the sealed on-chip secrets.

``export_machine`` produces both from a live controller;
``import_machine`` builds a new controller around them, verifying the
package tag (wrong passphrase => refusal) and the integrity root
(tampered DIMM => refusal).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional

from ..crypto.aes import AES128
from ..crypto.keys import KEY_SIZE, KeyHierarchy, SecretKey, derive_fekek
from ..crypto.otp import xor_bytes
from ..secmem.layout import MetadataLayout
from ..secmem.secure_controller import SecureControllerConfig
from .fsencr import FsEncrController

__all__ = ["TransportError", "TransportPackage", "DimmImage", "export_machine", "import_machine"]

_TRANSPORT_SALT = b"fsencr-transport-salt"


class TransportError(Exception):
    """Transport authentication or integrity verification failed."""


@dataclass(frozen=True)
class TransportPackage:
    """The sealed on-chip secrets: 2 keys + the root, under one pad.

    Sealed as ``(keys XOR pad, root, tag)`` where the pad derives from
    the transport passphrase and the tag authenticates everything; the
    root itself is not secret (it is a hash), only binding.
    """

    sealed_keys: bytes  # 32 bytes: memory key || ott key, padded
    merkle_root: bytes
    tag: bytes


@dataclass
class DimmImage:
    """References to the state that physically moves with the module."""

    store: object  # NVMStore
    mecb: object  # CounterStore
    fecb: object  # FECBStore
    ott_region_lines: dict
    ott_region_occupancy: dict
    merkle_nodes: dict
    merkle_touched: set


def _transport_pad(passphrase: str) -> bytes:
    """Two AES blocks of pad from the passphrase-derived transport key."""
    tkey = derive_fekek(passphrase, _TRANSPORT_SALT)
    cipher = AES128(tkey)
    return cipher.encrypt_block(b"fsencr-transprt0") + cipher.encrypt_block(
        b"fsencr-transprt1"
    )


def _tag(passphrase: str, sealed: bytes, root: bytes) -> bytes:
    tkey = derive_fekek(passphrase, _TRANSPORT_SALT)
    return hmac.new(
        tkey.reveal(), b"fsencr-transport" + sealed + root, hashlib.sha256
    ).digest()


def export_machine(
    controller: FsEncrController, passphrase: str
) -> "tuple[TransportPackage, DimmImage]":
    """Prepare a controller's filesystem for transport.

    Flushes the on-chip OTT into the encrypted region (so no key exists
    only in volatile on-chip state), then seals the chip secrets.
    """
    controller.crash_flush_ott()
    plaintext = controller.keys.memory_key.reveal() + controller.keys.ott_key.reveal()
    pad = _transport_pad(passphrase)
    sealed = xor_bytes(plaintext, pad)
    root = controller.merkle.root
    package = TransportPackage(
        sealed_keys=sealed, merkle_root=root, tag=_tag(passphrase, sealed, root)
    )
    dimm = DimmImage(
        store=controller.store,
        mecb=controller.mecb,
        fecb=controller.fecb,
        ott_region_lines=dict(controller.ott_region._lines),
        ott_region_occupancy=dict(controller.ott_region._occupancy),
        merkle_nodes=dict(controller.merkle._nodes),
        merkle_touched=set(controller.merkle._touched),
    )
    controller.stats.add("transports_exported")
    return package, dimm


def import_machine(
    layout: MetadataLayout,
    package: TransportPackage,
    dimm: DimmImage,
    passphrase: str,
    config: Optional[SecureControllerConfig] = None,
) -> FsEncrController:
    """Adopt a transported filesystem on a new processor.

    Raises :class:`TransportError` on a wrong passphrase (tag mismatch)
    or a DIMM whose metadata no longer matches the transported root.
    """
    expected = _tag(passphrase, package.sealed_keys, package.merkle_root)
    if not hmac.compare_digest(expected, package.tag):
        raise TransportError("transport authentication failed (wrong passphrase?)")

    pad = _transport_pad(passphrase)
    plaintext = xor_bytes(package.sealed_keys, pad)
    keys = KeyHierarchy(SecretKey(plaintext[:KEY_SIZE]), SecretKey(plaintext[KEY_SIZE:]))

    # Throwaway functional controller for the receiving machine; no
    # results registry exists here and no machine is being wired.
    controller = FsEncrController(
        layout=layout,
        keys=keys,
        config=config or SecureControllerConfig(functional=True),
        store=dimm.store,
    )
    controller.mecb = dimm.mecb
    controller.fecb = dimm.fecb
    controller.ott_region._lines = dict(dimm.ott_region_lines)
    controller.ott_region._occupancy = dict(dimm.ott_region_occupancy)
    controller.merkle.adopt_nodes(dimm.merkle_nodes, dimm.merkle_touched)

    # Authenticate the module: its metadata must hash to the root the
    # authorised transport carried.
    if controller.merkle.rebuild_root() != package.merkle_root:
        raise TransportError("DIMM integrity root mismatch: module was tampered")

    recovered = controller.recover_ott_after_crash()
    controller.stats.add("transports_imported")
    controller.stats.add("transport_keys_recovered", recovered)
    return controller
