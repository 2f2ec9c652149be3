"""DDR-attached PCM device model: timing and backing store.

Two concerns live here, deliberately separated:

* :class:`NVMTiming` / :class:`NVMDevice` — the *performance* model.
  Per-bank open-row tracking with the paper's open-adaptive policy and
  Table III latencies (60 ns array read, 150 ns array write, tRCD 55 ns,
  tCL 12.5 ns, tBURST 5 ns).  Each access returns a latency in
  nanoseconds and bumps read/write counters — those counters are exactly
  what Figures 9/10/13/14 plot.

* :class:`NVMStore` — the *functional* backing store.  A sparse dict of
  64-byte lines holding whatever ciphertext the controller writes, so
  integration tests can pull the DIMM out (read raw lines), verify that
  file data at rest never appears in plaintext, and exercise crash
  recovery against real residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .address import LINE_SIZE, AddressMap, line_address
from .stats import StatCounters

__all__ = ["NVMTiming", "NVMDevice", "NVMStore"]


@dataclass(frozen=True)
class NVMTiming:
    """Latency constants, in nanoseconds (Table III, PCM row)."""

    read_ns: float = 60.0  # PCM array read (activate a closed row)
    write_ns: float = 150.0  # PCM array write (restore a dirty row)
    t_rcd_ns: float = 55.0
    t_cl_ns: float = 12.5
    t_burst_ns: float = 5.0

    def __post_init__(self) -> None:
        for name in ("read_ns", "write_ns", "t_rcd_ns", "t_cl_ns", "t_burst_ns"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"NVMTiming.{name} must be >= 0, got {value!r}")

    @property
    def row_hit_ns(self) -> float:
        """Latency to read/write a line already in the row buffer."""
        return self.t_cl_ns + self.t_burst_ns

    @property
    def row_miss_read_ns(self) -> float:
        """Closed-row read: array sensing + column access."""
        return self.read_ns + self.t_cl_ns + self.t_burst_ns

    @property
    def dirty_evict_ns(self) -> float:
        """Writing a dirty row buffer back to the PCM array."""
        return self.write_ns


@dataclass
class _BankState:
    open_row: Optional[int] = None
    dirty: bool = False
    consecutive_misses: int = 0


class NVMDevice:
    """Per-bank row-buffer timing model with an open-adaptive page policy.

    Open-adaptive: rows stay open after an access (open-page) but a bank
    that keeps missing closes its row eagerly so the next activate is not
    serialised behind a precharge.  The adaptation threshold is small and
    fixed; the policy detail matters far less here than the stable
    row-hit/row-miss latency split.
    """

    ADAPT_THRESHOLD = 4

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        timing: Optional[NVMTiming] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.address_map = address_map or AddressMap()
        self.timing = timing or NVMTiming()
        self.stats = stats or StatCounters("nvm")
        self._banks: Dict[tuple, _BankState] = {}
        # Every read and write runs through _locate and _access, so the
        # geometry and latencies they need are plain attributes.
        amap = self.address_map
        self._row_shift = amap.row_buffer_bytes.bit_length() - 1
        self._channel_bits = amap.channels.bit_length() - 1
        self._bank_bits = amap.banks_per_rank.bit_length() - 1
        self._bank_index_bits = amap.total_banks.bit_length() - 1
        self._bank_mask = amap.total_banks - 1
        self._bank_slots: List[Optional[_BankState]] = [None] * amap.total_banks
        self._row_hit_ns = self.timing.row_hit_ns
        self._row_miss_ns = self.timing.row_miss_read_ns
        self._dirty_evict_ns = self.timing.dirty_evict_ns
        self._counters = self.stats.counters

    def _bank(self, key: tuple) -> _BankState:
        state = self._banks.get(key)
        if state is None:
            state = _BankState()
            self._banks[key] = state
        return state

    def _locate(self, addr: int) -> Tuple[_BankState, int]:
        """``(bank state, row)`` of a byte address.

        The integer form of :meth:`AddressMap.decompose` plus
        :meth:`_bank`: every geometry is a power of two, so the
        (channel, bank, rank) fields are the low bits of the row-buffer
        index and the row is what lies above them.
        """
        if addr < 0:
            raise ValueError(f"negative address: {addr:#x}")
        line = addr >> self._row_shift
        index = line & self._bank_mask
        state = self._bank_slots[index]
        if state is None:
            channel_bits = self._channel_bits
            bank_bits = self._bank_bits
            channel = index & ((1 << channel_bits) - 1)
            bank = (index >> channel_bits) & ((1 << bank_bits) - 1)
            rank = index >> (channel_bits + bank_bits)
            state = self._bank((channel, rank, bank))
            self._bank_slots[index] = state
        return state, line >> self._bank_index_bits

    def _access(self, bank: _BankState, row: int, is_write: bool) -> float:
        counters = self._counters
        if bank.open_row == row:
            bank.consecutive_misses = 0
            counters["row_hits"] += 1
            if is_write:
                bank.dirty = True
            return self._row_hit_ns
        latency = 0.0
        bank.consecutive_misses += 1
        counters["row_misses"] += 1
        if bank.open_row is not None and bank.dirty:
            # Dirty row restore before the new activate.
            latency += self._dirty_evict_ns
            counters["dirty_row_writebacks"] += 1
        latency += self._row_miss_ns
        bank.open_row = row
        bank.dirty = False
        if bank.consecutive_misses >= self.ADAPT_THRESHOLD:
            # Adaptive close: the new activate leaves the buffer clean,
            # so closing it now costs no restore.
            bank.open_row = None
            bank.consecutive_misses = 0
            counters["adaptive_closes"] += 1
        if is_write:
            bank.dirty = bank.open_row is not None
        return latency

    def read(self, addr: int) -> float:
        """Read one line; returns latency in ns."""
        self._counters["reads"] += 1
        bank, row = self._locate(addr)
        return self._access(bank, row, False)

    def read_run(self, addr: int, lines: int) -> float:
        """Read ``lines`` consecutive lines from ``addr``; returns the
        summed latency in ns.

        Books exactly what ``lines`` calls of :meth:`read` would: same
        stats and bank state.  Each row-buffer run pays one
        :meth:`_access` for its first line; once that leaves the row
        open, the rest of the run are row hits booked in bulk
        (an adaptive close falls back to one line at a time).  The
        latency equals the per-line loop's exactly when the timings are
        multiples of 0.5 ns, as Table III's are: every partial sum is
        then exact in a float.
        """
        if addr < 0:
            raise ValueError(f"negative address: {addr:#x}")
        if lines < 0:
            raise ValueError(f"negative line count: {lines}")
        if lines == 0:
            return 0.0
        counters = self._counters
        counters["reads"] += lines
        shift = self._row_shift
        end = addr + lines * LINE_SIZE
        latency = 0.0
        while addr < end:
            run_end = min(((addr >> shift) + 1) << shift, end)
            run = -(-(run_end - addr) // LINE_SIZE)
            bank, row = self._locate(addr)
            addr += run * LINE_SIZE
            while run and bank.open_row != row:
                latency += self._access(bank, row, False)
                run -= 1
            if run:
                bank.consecutive_misses = 0
                counters["row_hits"] += run
                latency += run * self._row_hit_ns
        return latency

    def write(self, addr: int, persist: bool = False) -> float:
        """Write one line; ``persist`` forces the PCM array write now.

        Persist-path writes (clwb + fence) cannot linger in the
        row buffer: durability requires the cell write, which is why
        write-intensive persistent workloads hurt most in the paper.
        """
        self._counters["writes"] += 1
        bank, row = self._locate(addr)
        latency = self._access(bank, row, True)
        if persist:
            latency += self._dirty_evict_ns
            bank.dirty = False
            self._counters["persist_writes"] += 1
        return latency

    @property
    def read_count(self) -> int:
        return self.stats.get("reads")

    @property
    def write_count(self) -> int:
        return self.stats.get("writes")


class NVMStore:
    """Sparse functional backing store, 64-byte line granularity.

    ``read_line`` of a never-written line returns an "erased" pattern —
    deterministic so functional decryption of uninitialised memory is
    reproducible in tests.

    Alongside each data line the store can hold the line's 8-byte
    plaintext ECC (Osiris §II-D: ECC computed over plaintext, written
    with the ciphertext).  The ECC side-table is what post-crash counter
    recovery trial-decrypts against, and ``flip_bit`` is the
    fault-injection hook that corrupts ciphertext in place the way a
    failing PCM cell would.
    """

    ERASED = bytes(LINE_SIZE)

    def __init__(self) -> None:
        self._lines: Dict[int, bytes] = {}
        self._ecc: Dict[int, bytes] = {}

    def write_line(self, addr: int, data: bytes) -> None:
        if len(data) != LINE_SIZE:
            raise ValueError(f"line must be {LINE_SIZE} bytes, got {len(data)}")
        self._lines[line_address(addr)] = bytes(data)

    def read_line(self, addr: int) -> bytes:
        return self._lines.get(line_address(addr), self.ERASED)

    def write_ecc(self, addr: int, ecc: Optional[bytes]) -> None:
        """Store (or with ``None``, erase) a line's plaintext ECC byte-per-word."""
        line = line_address(addr)
        if ecc is None:
            self._ecc.pop(line, None)
            return
        if len(ecc) != LINE_SIZE // 8:
            raise ValueError(f"ecc must be {LINE_SIZE // 8} bytes, got {len(ecc)}")
        self._ecc[line] = bytes(ecc)

    def read_ecc(self, addr: int) -> Optional[bytes]:
        return self._ecc.get(line_address(addr))

    def scan_ecc(self) -> Dict[int, bytes]:
        """Every line that carries ECC — the recovery sweep's worklist."""
        return dict(self._ecc)

    def flip_bit(self, addr: int, bit: int) -> None:
        """Fault injection: flip one stored ciphertext bit in place."""
        if not 0 <= bit < LINE_SIZE * 8:
            raise ValueError(f"bit index {bit} out of line range")
        line = line_address(addr)
        data = bytearray(self._lines.get(line, self.ERASED))
        data[bit // 8] ^= 1 << (bit % 8)
        self._lines[line] = bytes(data)

    def __contains__(self, addr: int) -> bool:
        return line_address(addr) in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def scan(self) -> Dict[int, bytes]:
        """Attacker's view: every line currently stored on the DIMM."""
        return dict(self._lines)
