"""Every counter a machine produces reaches its StatsRegistry.

Building each registered scheme records every ``StatCounters``
constructed, and each must *be* the registry's bundle of that name.
Functional builds add the crash domain and, for Anubis columns, the
shadow table; a crash/reboot cycle adds the recovery objects.  A
component that fell back to a private bundle fails here.  (The consumer
side, strict ``stat`` lookups of unproduced counters, is covered in
``test_lint_flow.py`` and ``test_faults_sweep.py``.)
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.mem.address import LINE_SIZE
from repro.sim import MachineConfig
from repro.sim.machine import Machine
from repro.sim.schemes import crash_matrix_names, get_scheme, scheme_names


@pytest.mark.parametrize("functional", [False, True], ids=["timing", "functional"])
@pytest.mark.parametrize("scheme", scheme_names())
def test_every_bundle_built_is_registered(scheme, functional, orphan_bundles):
    machine = Machine(get_scheme(scheme).configure(MachineConfig(functional=functional)))
    assert orphan_bundles(machine) == []


CRASH_SCHEMES = sorted(
    set(crash_matrix_names())
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
    machine.reboot()  # recovery bundles accumulate, never duplicate
    assert "osiris_recovery" in machine.registry.names
    assert orphan_bundles(machine) == []
