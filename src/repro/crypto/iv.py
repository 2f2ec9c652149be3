"""Initialization-vector layout for counter-mode memory/file encryption.

The paper's Figure 2 defines the IV used by the state-of-the-art
counter-mode encryption that FsEncr builds on.  The IV carries

- a *page ID* (the physical page number) for spatial uniqueness,
- the *page offset* of the cache line inside the page,
- a *per-page major counter* bumped when any minor counter overflows, and
- a *per-line minor counter* bumped on every write to that line,

so that every (location, version) pair maps to a unique pad and OTPs are
never reused under a fixed key.  FsEncr reuses the same layout for the
file-encryption pads, only sourcing the counters from FECBs instead of
MECBs (and tagging the IV with a domain byte so the memory pad and the
file pad for the same line can never collide even if keys were ever
shared).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IVLayout", "CounterIV", "MEMORY_DOMAIN", "FILE_DOMAIN", "OTT_DOMAIN"]

# Domain separators mixed into the IV so the three AES engines (memory,
# file, OTT-region) can never produce colliding pads even under equal keys.
MEMORY_DOMAIN = 0x01
FILE_DOMAIN = 0x02
OTT_DOMAIN = 0x03


@dataclass(frozen=True)
class IVLayout:
    """Bit widths of each IV field.  Defaults follow the paper.

    The packed IV must fit in one AES block (128 bits).  With the default
    widths the total is 8 + 40 + 6 + 64 + 7 = 125 bits, leaving slack.
    """

    domain_bits: int = 8
    page_id_bits: int = 40
    page_offset_bits: int = 6  # 64 cache lines per 4 KB page
    major_bits: int = 64
    minor_bits: int = 7

    def __post_init__(self) -> None:
        total = (
            self.domain_bits
            + self.page_id_bits
            + self.page_offset_bits
            + self.major_bits
            + self.minor_bits
        )
        if total > 128:
            raise ValueError(f"IV layout needs {total} bits; only 128 available")

    @property
    def total_bits(self) -> int:
        return (
            self.domain_bits
            + self.page_id_bits
            + self.page_offset_bits
            + self.major_bits
            + self.minor_bits
        )


DEFAULT_LAYOUT = IVLayout()


@dataclass(frozen=True)
class CounterIV:
    """A concrete IV instance: one (location, version) point.

    ``pack()`` serialises the IV into a 16-byte AES input block.  Packing
    is injective for in-range field values, which is what guarantees OTP
    uniqueness; out-of-range values are rejected rather than truncated,
    because silent truncation is exactly the counter-reuse bug
    counter-mode must avoid.
    """

    domain: int
    page_id: int
    page_offset: int
    major: int
    minor: int
    layout: IVLayout = DEFAULT_LAYOUT

    def __post_init__(self) -> None:
        checks = (
            ("domain", self.domain, self.layout.domain_bits),
            ("page_id", self.page_id, self.layout.page_id_bits),
            ("page_offset", self.page_offset, self.layout.page_offset_bits),
            ("major", self.major, self.layout.major_bits),
            ("minor", self.minor, self.layout.minor_bits),
        )
        for name, value, bits in checks:
            if value < 0 or value >= (1 << bits):
                raise ValueError(
                    f"IV field {name}={value} out of range for {bits} bits"
                )

    def pack(self) -> bytes:
        """Pack the IV fields into a 16-byte block, MSB-first."""
        layout = self.layout
        packed = self.domain
        packed = (packed << layout.page_id_bits) | self.page_id
        packed = (packed << layout.page_offset_bits) | self.page_offset
        packed = (packed << layout.major_bits) | self.major
        packed = (packed << layout.minor_bits) | self.minor
        # Left-align within the 128-bit block.
        packed <<= 128 - layout.total_bits
        return packed.to_bytes(16, "big")
