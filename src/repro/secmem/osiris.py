"""Osiris-style crash consistency for encryption counters.

The problem (§II-D): counters are cached on-chip and written back lazily;
a crash loses the in-cache increments, and decrypting with a stale
counter yields garbage (or worse, re-encrypting with a reused counter
value breaks counter-mode security).

Osiris's fix: bound the staleness.  A counter line may absorb at most
``stop_loss`` updates before being forced out to NVM ("stop-loss"); after
a crash the persisted value is therefore within ``stop_loss`` increments
of the true value, and the true value is found by trying each candidate
and testing the decryption against the line's plaintext ECC.

Two halves:

* :class:`OsirisTracker` — the run-time half: per-counter-line update
  distances, deciding when a counter write-through must be issued (the
  extra NVM writes the paper charges to both schemes).
* :func:`recover_line` — the post-crash half: the one candidate search
  over a line's counter layers (the MECB minor, plus the FECB minor on a
  file-stamped FsEncr page) with the ECC test, returning the recovered
  minors and the number of trials (the recovery-latency figure of merit
  in the Osiris paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..mem.stats import StatCounters
from .counters import MINOR_BITS
from .ecc import check_line

__all__ = ["OsirisTracker", "CounterLayer", "LineRecovery", "recover_line"]

DEFAULT_STOP_LOSS = 4

_MINOR_LIMIT = 1 << MINOR_BITS


class OsirisTracker:
    """Stop-loss bookkeeping for counter-line persistence.

    ``note_update(line_addr)`` is called on every counter increment;
    it returns True when the accumulated distance hits the stop-loss
    bound and the counter line must be persisted *now*.  The caller
    (secure controller) then issues the NVM write and the tracker
    resets the distance.
    """

    def __init__(self, stop_loss: int = DEFAULT_STOP_LOSS, stats: Optional[StatCounters] = None) -> None:
        if stop_loss < 1:
            raise ValueError("stop_loss must be >= 1")
        self.stop_loss = stop_loss
        self.stats = stats or StatCounters("osiris")
        self._distance: Dict[int, int] = {}

    def note_update(self, line_addr: int) -> bool:
        """Record one counter update; True => persist the counter line."""
        distance = self._distance.get(line_addr, 0) + 1
        counters = self.stats.counters
        counters["updates"] += 1
        if distance >= self.stop_loss:
            self._distance[line_addr] = 0
            counters["forced_persists"] += 1
            return True
        self._distance[line_addr] = distance
        return False

    def note_persisted(self, line_addr: int) -> None:
        """A counter line reached NVM for another reason (eviction)."""
        self._distance[line_addr] = 0

    def distance(self, line_addr: int) -> int:
        return self._distance.get(line_addr, 0)

    def reset(self) -> None:
        """Post-recovery: every counter line just got re-persisted."""
        self._distance.clear()


#: One counter layer of a line: its persisted minor, and the layer's
#: pad for a candidate minor.  A line's plaintext is its ciphertext
#: XOR every layer's pad.
CounterLayer = Tuple[int, Callable[[int], bytes]]


@dataclass(frozen=True)
class LineRecovery:
    """Outcome of one line's Osiris search.

    ``minors`` (one per layer) and ``plaintext`` are ``None`` when no
    candidate in the window fit the ECC: an exhausted window is reported,
    never guessed.  ``trials`` counts the decryptions tried either way.
    """

    trials: int
    minors: Optional[Tuple[int, ...]] = None
    plaintext: Optional[bytes] = None


@lru_cache(maxsize=None)
def _lag_order(layers: int, stop_loss: int) -> Tuple[Tuple[int, ...], ...]:
    """Every per-layer lag tuple in the window, by total lag then
    lexicographically: all layers' counters bump together on the write
    path, so the true minors are minimally ahead of the persisted ones."""
    return tuple(sorted(product(range(stop_loss + 1), repeat=layers),
                        key=lambda lags: (sum(lags), lags)))


def recover_line(
    cipher: bytes, ecc: bytes, layers: Sequence[CounterLayer], stop_loss: int
) -> LineRecovery:
    """Find the line's true minors within ``stop_loss`` of the persisted ones.

    A candidate past the minor field (``MINOR_BITS``) is never a real
    counter value — the minor would have overflowed and re-encrypted the
    page first — so it is skipped, not tried.  That is what makes a
    *flipped* persisted minor safe: near the top of the field few or no
    legal candidates remain.  A layer's pad depends only on its own
    candidate, so each is computed once and shared by every candidate
    tuple that uses it.
    """
    cipher_int = int.from_bytes(cipher, "little")
    pads: Tuple[Dict[int, int], ...] = tuple({} for _ in layers)
    trials = 0
    for lags in _lag_order(len(layers), stop_loss):
        minors = tuple(persisted + lag for (persisted, _), lag in zip(layers, lags))
        if max(minors) >= _MINOR_LIMIT:
            continue
        trials += 1
        value = cipher_int
        for (_, pad_for), cache, minor in zip(layers, pads, minors):
            pad = cache.get(minor)
            if pad is None:
                pad = cache[minor] = int.from_bytes(pad_for(minor), "little")
            value ^= pad
        plaintext = value.to_bytes(len(cipher), "little")
        if check_line(plaintext, ecc):
            return LineRecovery(trials, minors, plaintext)
    return LineRecovery(trials)
