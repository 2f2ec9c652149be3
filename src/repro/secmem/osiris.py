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

Two classes:

* :class:`OsirisTracker` — the run-time half: per-counter-line update
  distances, deciding when a counter write-through must be issued (the
  extra NVM writes the paper charges to both schemes).
* :class:`OsirisRecovery` — the post-crash half: candidate enumeration +
  ECC test, returning the recovered counter value and the number of
  trials (the recovery-latency figure of merit in the Osiris paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..mem.stats import StatCounters

__all__ = ["OsirisTracker", "OsirisRecovery", "RecoveryResult", "CounterRecoveryError"]

DEFAULT_STOP_LOSS = 4


class CounterRecoveryError(Exception):
    """No candidate counter within the stop-loss window fit the ECC."""


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
        self.stats.add("updates")
        if distance >= self.stop_loss:
            self._distance[line_addr] = 0
            self.stats.add("forced_persists")
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


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of recovering one counter after a crash."""

    recovered_value: int
    trials: int


class OsirisRecovery:
    """Post-crash counter recovery via ECC trial decryption.

    ``decrypt_with(candidate) -> bytes`` and ``ecc_ok(plaintext) -> bool``
    are supplied by the caller, keeping this class independent of the
    encryption engine's wiring.  Candidates are tried from the persisted
    value upward, matching Osiris's observation that the true counter is
    *ahead of* (never behind) the persisted one.
    """

    def __init__(self, stop_loss: int = DEFAULT_STOP_LOSS, stats: Optional[StatCounters] = None) -> None:
        self.stop_loss = stop_loss
        self.stats = stats or StatCounters("osiris_recovery")

    def recover_counter(
        self,
        persisted_value: int,
        decrypt_with: Callable[[int], bytes],
        ecc_ok: Callable[[bytes], bool],
        ceiling: Optional[int] = None,
    ) -> RecoveryResult:
        """Find the true counter within [persisted, persisted + stop_loss].

        ``ceiling`` clips the window to the counter field's width: a
        candidate above it can never be a real counter value (the minor
        would have overflowed and re-encrypted the page first), so the
        search stops there.  This is what makes a *flipped* persisted
        counter safe — a flip landing near the top of the field leaves
        few (or zero) legal candidates, and an exhausted window is an
        explicit :class:`CounterRecoveryError`, never a silent accept.
        """
        trials = 0
        for offset in range(self.stop_loss + 1):
            candidate = persisted_value + offset
            if ceiling is not None and candidate > ceiling:
                break
            trials += 1
            plaintext = decrypt_with(candidate)
            self.stats.add("trials")
            if ecc_ok(plaintext):
                self.stats.add("recovered")
                return RecoveryResult(recovered_value=candidate, trials=trials)
        self.stats.add("failures")
        raise CounterRecoveryError(
            f"no counter in [{persisted_value}, {persisted_value + self.stop_loss}] "
            f"{'(clipped to ' + str(ceiling) + ') ' if ceiling is not None else ''}"
            "satisfied the ECC check"
        )
