"""Table I, executed: vulnerability of encrypted-NVM system designs.

The paper's Table I argues three system designs differ under key
compromise:

* **System A** — memory encryption only.
* **System B** — memory encryption + one filesystem-wide key.
* **System C** — memory encryption + a dedicated key per file (FsEncr).

Rather than restate the table, this module *runs* it: each system is a
functional controller with real pads; the attacker is a function that
holds the DIMM residue (ciphertext), the security metadata (counters are
not secret), and whichever keys the scenario reveals — and tries to
recover a known plaintext.  The matrix of successes reproduces Table I
row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..crypto.iv import FILE_DOMAIN, MEMORY_DOMAIN, CounterIV
from ..crypto.keys import SecretKey
from ..crypto.otp import OTPEngine, xor_bytes
from ..mem import dfbit
from ..mem.address import LINE_SIZE, page_number, page_offset_lines
from ..core.fsencr import FsEncrController
from ..secmem.layout import MetadataLayout
from ..secmem.secure_controller import SecureControllerConfig

__all__ = ["Scenario", "SystemDesign", "attacker_decrypt", "table1_matrix", "render_table1"]

_PLAINTEXT = b"TOP-SECRET PAYROLL RECORD #0042 -- do not disclose. padding.."
_LAYOUT = MetadataLayout(data_bytes=64 * 1024 * 1024, ott_region_bytes=64 * 1024)


@dataclass(frozen=True)
class Scenario:
    """Which keys the attacker has obtained (Table I's rows)."""

    memory_key: bool
    single_fs_key: bool
    all_file_keys: bool

    def label(self) -> str:
        parts = []
        if self.memory_key:
            parts.append("memory key")
        if self.single_fs_key:
            parts.append("filesystem key")
        if self.all_file_keys:
            parts.append("all file keys")
        return " + ".join(parts) if parts else "nothing"


#: Table I's three rows, top to bottom.
SCENARIOS: List[Scenario] = [
    Scenario(memory_key=True, single_fs_key=False, all_file_keys=False),
    Scenario(memory_key=True, single_fs_key=True, all_file_keys=False),
    Scenario(memory_key=True, single_fs_key=True, all_file_keys=True),
]


class SystemDesign:
    """One of the three designs, holding a functional machine image.

    ``file_keys`` maps file_id -> key.  System A has none; System B
    encrypts every file under one shared key; System C (FsEncr proper)
    gives each file its own key.
    """

    def __init__(self, name: str, per_file_keys: bool, any_file_keys: bool) -> None:
        self.name = name
        # Standalone functional image for the attack analysis; no
        # results registry exists and no machine is being wired.
        self.controller = FsEncrController(
            layout=_LAYOUT, config=SecureControllerConfig(functional=True)
        )
        self.file_keys: Dict[int, SecretKey] = {}
        self.addr_of_file: Dict[int, int] = {}
        file_ids = (10, 11)
        shared_key = SecretKey(bytes.fromhex("00112233445566778899aabbccddeeff"))
        for index, file_id in enumerate(file_ids):
            page = 4 + index
            if any_file_keys:
                key = SecretKey(bytes([file_id]) * 16) if per_file_keys else shared_key
                self.controller.install_file_key(group_id=1, file_id=file_id, key=key)
                self.controller.update_fecb(page=page, group_id=1, file_id=file_id)
                self.file_keys[file_id] = key
                addr = dfbit.set_df(page * 4096)
            else:
                addr = page * 4096
            self.addr_of_file[file_id] = addr
            payload = _PLAINTEXT[:LINE_SIZE].ljust(LINE_SIZE, b".")
            self.controller.write_data(addr, payload)

    def dimm_residue(self, file_id: int) -> bytes:
        """What a pulled DIMM shows for the file's line."""
        # Deliberate raw ciphertext read: this *is* the attacker's view.
        return self.controller.store.read_line(dfbit.strip(self.addr_of_file[file_id]))


def attacker_decrypt(system: SystemDesign, scenario: Scenario, file_id: int) -> bool:
    """Can the attacker recover the plaintext of ``file_id``'s line?

    The attacker reconstructs pads exactly the hardware would: counters
    and FECB identities are integrity-protected but not confidential, so
    they are taken straight from the controller's metadata; only *keys*
    gate the pads.
    """
    controller = system.controller
    addr = system.addr_of_file[file_id]
    raw = dfbit.strip(addr)
    ciphertext = system.dimm_residue(file_id)
    page = page_number(raw)
    line_index = page_offset_lines(raw)

    pads: List[bytes] = []
    if scenario.memory_key:
        major, minor = controller.mecb.block(page).value_for(line_index)
        iv = CounterIV(
            domain=MEMORY_DOMAIN, page_id=page, page_offset=line_index,
            major=major, minor=minor,
        )
        pads.append(OTPEngine(controller.keys.memory_key).pad_for(iv))

    fecb = controller.fecb.peek(page)
    file_encrypted = fecb is not None and fecb.stamped
    if file_encrypted:
        key = None
        if scenario.all_file_keys:
            key = system.file_keys.get(file_id)
        elif scenario.single_fs_key and len(set(system.file_keys.values())) == 1:
            # The shared filesystem key is exactly the one key in use.
            key = next(iter(system.file_keys.values()), None)
        if key is None:
            return False  # missing the file layer's key
        major, minor = fecb.counters.value_for(line_index)
        iv = CounterIV(
            domain=FILE_DOMAIN, page_id=page, page_offset=line_index,
            major=major, minor=minor,
        )
        pads.append(OTPEngine(key).pad_for(iv))

    if not scenario.memory_key:
        return False  # the memory layer always stands in the way

    pad = pads[0]
    for extra in pads[1:]:
        pad = xor_bytes(pad, extra)
    recovered = xor_bytes(ciphertext, pad)
    return recovered.startswith(b"TOP-SECRET")


def _build_systems() -> List[SystemDesign]:
    return [
        SystemDesign("System A (memory encryption only)", per_file_keys=False, any_file_keys=False),
        SystemDesign("System B (single filesystem key)", per_file_keys=False, any_file_keys=True),
        SystemDesign("System C (per-file keys, FsEncr)", per_file_keys=True, any_file_keys=True),
    ]


def table1_matrix() -> List[Tuple[str, List[bool]]]:
    """Execute Table I.  Returns [(scenario_label, [vuln_A, vuln_B, vuln_C])].

    "Vulnerable" means the attacker recovers at least one file's
    plaintext under the scenario.  Expected (paper's Table I):

    ==============================  ====  ====  ====
    revealed                         A     B     C
    ==============================  ====  ====  ====
    memory key                      Yes   No    No
    memory key + filesystem key     Yes   Yes   No
    memory key + all file keys      Yes   Yes   Yes
    ==============================  ====  ====  ====
    """
    systems = _build_systems()
    matrix: List[Tuple[str, List[bool]]] = []
    for scenario in SCENARIOS:
        row: List[bool] = []
        for system in systems:
            vulnerable = any(
                attacker_decrypt(system, scenario, file_id)
                for file_id in system.addr_of_file
            )
            row.append(vulnerable)
        matrix.append((scenario.label(), row))
    return matrix


def render_table1() -> str:
    matrix = table1_matrix()
    lines = [
        "Table I: vulnerability of encrypted-NVM designs under key compromise",
        f"{'keys revealed':<38}{'System A':>10}{'System B':>10}{'System C':>10}",
        "-" * 68,
    ]
    for label, row in matrix:
        cells = "".join(f"{'Yes' if v else 'No':>10}" for v in row)
        lines.append(f"{label:<38}{cells}")
    return "\n".join(lines)
