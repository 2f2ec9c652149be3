"""FsEncr core: the paper's hardware-assisted filesystem encryption.

Public surface of the contribution: the DF-bit address tagging, the
File Encryption Counter Blocks, the Open Tunnel Table (+ its encrypted
spill region), and the FsEncr memory controller that composes the
memory and file one-time pads.
"""

from ..mem.dfbit import (
    DF_BIT_POSITION,
    DF_MASK,
    PHYSICAL_ADDRESS_BITS,
    clear_df,
    has_df,
    set_df,
    strip,
)
from .fecb import FECBlock, FECBStore
from .fsencr import FsEncrController
from .transport import (
    DimmImage,
    TransportError,
    TransportPackage,
    export_machine,
    import_machine,
)
from .ott import (
    FILE_ID_BITS,
    GROUP_ID_BITS,
    EncryptedOTTRegion,
    KeyUnavailableError,
    OpenTunnelTable,
    OTTEntry,
)

__all__ = [
    "DF_BIT_POSITION",
    "DF_MASK",
    "PHYSICAL_ADDRESS_BITS",
    "set_df",
    "clear_df",
    "has_df",
    "strip",
    "FECBlock",
    "FECBStore",
    "FsEncrController",
    "TransportError",
    "TransportPackage",
    "DimmImage",
    "export_machine",
    "import_machine",
    "OpenTunnelTable",
    "OTTEntry",
    "EncryptedOTTRegion",
    "KeyUnavailableError",
    "GROUP_ID_BITS",
    "FILE_ID_BITS",
]
