"""Statistics plumbing shared by every level of the memory model.

Every component (caches, NVM device, encryption engines, Merkle tree,
OTT, kernel) owns a :class:`StatCounters` bundle.  The machine model
aggregates them into one flat dictionary at the end of a run; the
benchmark harness then normalises against the baseline run exactly the
way the paper's figures do ("Normalized to the baseline").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable

__all__ = ["StatCounters", "StatsRegistry"]


@dataclass
class StatCounters:
    """A named bag of monotonically increasing counters.

    Per-access paths bump ``counters[key] += 1`` directly, sparing a
    method call per event; ``add`` is the call form for the rest.
    """

    name: str
    counters: Counter = field(default_factory=Counter)

    def add(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)

    def stat(self, key: str) -> int:
        """Strict lookup: raises on a counter this bundle never declared.

        Use from benchmarks and analysis code, where a silently-zero
        read of a renamed counter would fabricate a result; ``get``
        remains for hot-path model code probing optional counters.
        """
        # Counter.__getitem__ returns 0 for absent keys, so membership
        # must be checked explicitly for the lookup to be strict.
        if key not in self.counters:
            known = ", ".join(sorted(self.counters)) or "<none>"
            raise KeyError(
                f"unknown stat {key!r} in bundle {self.name!r} (known: {known})"
            )
        return self.counters[key]

    def merge(self, other: "StatCounters") -> None:
        self.counters.update(other.counters)

    def reset(self) -> None:
        self.counters.clear()

    def as_dict(self, prefix: str = "") -> Dict[str, int]:
        base = prefix or self.name
        return {f"{base}.{key}": value for key, value in sorted(self.counters.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"StatCounters({self.name}: {inner})"


class StatsRegistry:
    """Collects the :class:`StatCounters` of every component in a machine.

    Components register themselves at construction; ``snapshot`` returns a
    flat mapping suitable for result records and for computing the
    normalized reads/writes/slowdown series of Figures 8-14.
    """

    def __init__(self) -> None:
        self._bundles: Dict[str, StatCounters] = {}

    def register(self, bundle: StatCounters) -> StatCounters:
        if bundle.name in self._bundles:
            raise ValueError(f"duplicate stats bundle: {bundle.name}")
        self._bundles[bundle.name] = bundle
        return bundle

    def create(self, name: str) -> StatCounters:
        return self.register(StatCounters(name))

    def bundle(self, name: str) -> StatCounters:
        return self._bundles[name]

    @property
    def names(self) -> Iterable[str]:
        return self._bundles.keys()

    def reset(self) -> None:
        for bundle in self._bundles.values():
            bundle.reset()

    def snapshot(self) -> Dict[str, int]:
        """Every counter, flat.  Raises ``TypeError`` on a value that is
        not an ``int``: the figures normalise exact event counts, and a
        float counter compounds rounding error.  Checked here, once per
        result, rather than on every ``add`` (hot paths and the
        interpreter bump ``counters`` directly)."""
        merged: Dict[str, int] = {}
        for bundle in self._bundles.values():
            merged.update(bundle.as_dict())
        for key, value in merged.items():
            if type(value) is not int:
                raise TypeError(
                    f"counter {key!r} holds {type(value).__name__} {value!r}; "
                    f"counters are exact ints"
                )
        return merged
