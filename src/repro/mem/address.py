"""Physical address arithmetic and the RoRaBaChCo DRAM/PCM address map.

Table III fixes the paper's memory organisation: 2 ranks per channel,
8 banks per rank, 1 KB row buffer, RoRaBaChCo interleaving (from MSB to
LSB: Row | Rank | Bank | Channel | Column).  This module turns a flat
physical line address into (channel, rank, bank, row, column) so the
device model can track per-bank row-buffer state.

It also centralises the line/page arithmetic (64 B lines, 4 KB pages)
used everywhere else, so off-by-one page math lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LINE_SIZE",
    "LINE_SHIFT",
    "LINE_MASK",
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "PAGE_MASK",
    "LINES_PER_PAGE",
    "line_address",
    "page_number",
    "page_offset_lines",
    "AddressMap",
    "BankAddress",
]

LINE_SIZE = 64
PAGE_SIZE = 4096
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

# Precomputed shift/mask forms of the two geometries.  The hot paths
# (MMU translate, cache walk, line iteration) use these instead of
# re-deriving ``// LINE_SIZE`` / ``% PAGE_SIZE`` arithmetic per access.
LINE_SHIFT = LINE_SIZE.bit_length() - 1
LINE_MASK = LINE_SIZE - 1
PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
PAGE_MASK = PAGE_SIZE - 1


def line_address(addr: int) -> int:
    """Align an address down to its cache-line base."""
    return addr & ~LINE_MASK


def page_number(addr: int) -> int:
    """Physical page number containing ``addr``."""
    return addr >> PAGE_SHIFT


def page_offset_lines(addr: int) -> int:
    """Index (0..63) of the cache line inside its 4 KB page."""
    return (addr & PAGE_MASK) >> LINE_SHIFT


@dataclass(frozen=True)
class BankAddress:
    """A decomposed device coordinate for one cache-line access."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class AddressMap:
    """RoRaBaChCo interleaving of line addresses onto device coordinates.

    Field widths are derived from the configuration rather than
    hard-coded, so the sensitivity suite can sweep channel/bank counts.
    All widths must be powers of two (true of every real DIMM geometry).
    """

    def __init__(
        self,
        channels: int = 1,
        ranks_per_channel: int = 2,
        banks_per_rank: int = 8,
        row_buffer_bytes: int = 1024,
        line_size: int = LINE_SIZE,
    ) -> None:
        for name, value in (
            ("channels", channels),
            ("ranks_per_channel", ranks_per_channel),
            ("banks_per_rank", banks_per_rank),
            ("row_buffer_bytes", row_buffer_bytes),
            ("line_size", line_size),
        ):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two, got {value}")
        if row_buffer_bytes < line_size:
            raise ValueError("row buffer must hold at least one line")
        self.channels = channels
        self.ranks_per_channel = ranks_per_channel
        self.banks_per_rank = banks_per_rank
        self.row_buffer_bytes = row_buffer_bytes
        self.line_size = line_size
        self.columns_per_row = row_buffer_bytes // line_size

    def decompose(self, addr: int) -> BankAddress:
        """Map a byte address to its (channel, rank, bank, row, column)."""
        if addr < 0:
            raise ValueError(f"negative address: {addr:#x}")
        line = addr // self.line_size
        column = line % self.columns_per_row
        line //= self.columns_per_row
        channel = line % self.channels
        line //= self.channels
        bank = line % self.banks_per_rank
        line //= self.banks_per_rank
        rank = line % self.ranks_per_channel
        line //= self.ranks_per_channel
        return BankAddress(channel=channel, rank=rank, bank=bank, row=line, column=column)

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank
