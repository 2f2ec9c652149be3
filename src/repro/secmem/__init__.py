"""Secure-memory substrate: counter-mode encryption, BMT integrity, Osiris.

This package implements the paper's "Baseline Security" scheme — the
state-of-the-art secure NVM stack FsEncr layers on top of: split-counter
MECBs, an 8-ary Bonsai Merkle tree, the on-chip metadata cache, SEC-DED
ECC, and Osiris stop-loss counter crash consistency.
"""

from .anubis import ShadowTable
from .counters import CounterBlock, CounterStore, FECB_MAJOR_BITS, MECB_MAJOR_BITS, MINOR_BITS
from .ecc import EccMismatch, check_line, check_word, encode_line, encode_word
from .layout import MetadataLayout
from .merkle import BonsaiMerkleTree, IntegrityError
from .metadata_cache import MetadataCache, MetadataCacheConfig, MetadataKind
from .osiris import LineRecovery, OsirisTracker, recover_line
from .secure_controller import BaselineSecureController, SecureControllerConfig

__all__ = [
    "ShadowTable",
    "CounterBlock",
    "CounterStore",
    "MECB_MAJOR_BITS",
    "FECB_MAJOR_BITS",
    "MINOR_BITS",
    "EccMismatch",
    "encode_word",
    "check_word",
    "encode_line",
    "check_line",
    "MetadataLayout",
    "BonsaiMerkleTree",
    "IntegrityError",
    "MetadataCache",
    "MetadataCacheConfig",
    "MetadataKind",
    "OsirisTracker",
    "LineRecovery",
    "recover_line",
    "BaselineSecureController",
    "SecureControllerConfig",
]
