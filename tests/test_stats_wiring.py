"""Every counter a machine produces reaches its StatsRegistry.

Building each scheme column records every ``StatCounters``
constructed, and each must *be* the registry's bundle of that name.
Functional builds add the crash domain and, for Anubis columns, the
shadow table; two crash/reboot cycles must leave no orphan either.  A
component that fell back to a private bundle fails here.  The consumer
side is strict: ``stat`` raises ``KeyError`` on a counter no component
produced (below, and in ``test_faults_sweep.py``).  The service run's
queue bundles are checked in ``test_sim_service.py``.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.mem.address import LINE_SIZE
from repro.mem.stats import StatCounters
from repro.sim import MachineConfig
from repro.sim import machine as machine_module
from repro.sim.machine import Machine
from repro.sim.schemes import CRASH_MATRIX, get_scheme, scheme_names


@pytest.mark.parametrize("functional", [False, True], ids=["timing", "functional"])
@pytest.mark.parametrize("scheme", scheme_names())
def test_every_bundle_built_is_registered(scheme, functional, orphan_bundles):
    machine = Machine(get_scheme(scheme).configure(MachineConfig(functional=functional)))
    assert orphan_bundles(machine) == []


CRASH_SCHEMES = sorted(
    set(CRASH_MATRIX)
    | {name for name in scheme_names() if get_scheme(name).configure().anubis_recovery}
)


@pytest.mark.parametrize("scheme", CRASH_SCHEMES)
def test_recovery_bundles_are_registered(scheme, orphan_bundles):
    machine = Machine(get_scheme(scheme).configure(MachineConfig(functional=True)))
    machine.add_user(uid=1000, gid=100, passphrase="pw")
    handle = machine.create_file("/pmem/f", uid=1000, encrypted=True)
    base = machine.mmap(handle, pages=1)
    for i in range(4):
        machine.store_bytes(base + i * LINE_SIZE, bytes([i + 1]) * LINE_SIZE)
        machine.persist(base + i * LINE_SIZE, LINE_SIZE)
    machine.crash(FaultPlan(drain_fraction=0.5))
    machine.reboot()
    machine.crash(FaultPlan(drain_fraction=1.0))
    machine.reboot()  # a second reboot registers no duplicate or orphan bundle
    assert orphan_bundles(machine) == []


class Widget:
    def __init__(self, stats=None):
        self.stats = stats or StatCounters("widget")

    def poke(self):
        self.stats.add("pokes")


def _build_with_widget(monkeypatch, registered: bool):
    """Build an fsencr machine whose hierarchy step also builds a Widget."""
    real = machine_module.CacheHierarchy

    def build_hierarchy(config, registry):
        stats = registry.create("widget") if registered else None
        Widget(stats=stats).poke()
        return real(config, registry=registry)

    monkeypatch.setattr(machine_module, "CacheHierarchy", build_hierarchy)
    return Machine(get_scheme("fsencr").configure(MachineConfig()))


def test_recorder_flags_an_unregistered_bundle(monkeypatch, orphan_bundles):
    machine = _build_with_widget(monkeypatch, registered=False)
    assert orphan_bundles(machine) == ["widget"]


def test_recorder_accepts_a_bundle_registered_in_another_module(monkeypatch, orphan_bundles):
    machine = _build_with_widget(monkeypatch, registered=True)
    assert orphan_bundles(machine) == []


def test_stat_lookup_of_an_unproduced_counter_raises(monkeypatch):
    machine = _build_with_widget(monkeypatch, registered=True)
    result = machine.result("widgets")
    assert result.stat("widget.pokes") == 1
    with pytest.raises(KeyError, match="'widget.misses'.*keys under 'widget'"):
        result.stat("widget.misses")
    with pytest.raises(KeyError, match="'ghost.count'"):
        result.stat("ghost.count")


def test_metadata_structural_caches_are_the_private_exception(orphan_bundles):
    # The metadata cache accounts its structural caches' hits and misses
    # per kind on its own registered bundle, so their bundles stay
    # private: a partitioned build constructs them, and the recorder
    # exempts them (PRIVATE_BUNDLES).
    machine = Machine(get_scheme("fsencr+partitioned").configure(MachineConfig()))
    private = {cache.stats.name for cache in machine.controller.metadata_cache._caches.values()}
    assert len(private) > 1 and not private & set(machine.registry.names)
    assert orphan_bundles(machine) == []
