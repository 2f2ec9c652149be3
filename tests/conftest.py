"""Shared fixtures: small layouts and pre-wired controllers/machines.

Functional controllers use a deliberately small data region so the
Merkle tree stays shallow and pure-Python AES stays fast; nothing in the
semantics depends on region size.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core import FsEncrController
from repro.mem.stats import StatCounters
from repro.secmem import BaselineSecureController, MetadataLayout, SecureControllerConfig
from repro.sim import Machine, MachineConfig, Scheme


#: With ``CI`` set, a failing property test prints the blob that
#: reproduces it (``@reproduce_failure``) in the log.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


SMALL_LAYOUT_KWARGS = dict(data_bytes=16 * 1024 * 1024, ott_region_bytes=32 * 1024)


@pytest.fixture
def small_layout() -> MetadataLayout:
    return MetadataLayout(**SMALL_LAYOUT_KWARGS)


@pytest.fixture
def functional_config() -> SecureControllerConfig:
    return SecureControllerConfig(functional=True)


@pytest.fixture
def baseline_controller(small_layout, functional_config) -> BaselineSecureController:
    return BaselineSecureController(layout=small_layout, config=functional_config)


@pytest.fixture
def fsencr_controller(small_layout, functional_config) -> FsEncrController:
    return FsEncrController(layout=small_layout, config=functional_config)


@pytest.fixture
def timing_fsencr(small_layout) -> FsEncrController:
    return FsEncrController(layout=small_layout)


def make_machine(scheme: Scheme = Scheme.FSENCR, functional: bool = False, **overrides) -> Machine:
    config = MachineConfig(scheme=scheme, functional=functional, **overrides)
    machine = Machine(config)
    machine.add_user(uid=1000, gid=100, passphrase="fixture-pass")
    return machine


@pytest.fixture
def fsencr_machine() -> Machine:
    return make_machine(Scheme.FSENCR)


@pytest.fixture
def functional_machine() -> Machine:
    return make_machine(Scheme.FSENCR, functional=True)


@pytest.fixture
def orphan_bundles(monkeypatch):
    """Record every StatCounters constructed from here on.

    Returns ``orphans(owner)``: the names of the recorded bundles that
    are not ``owner.registry``'s bundle of that name (a machine's, or a
    service run's ``ServiceQueues``), i.e. counters no result will ever
    show.
    """
    built = []
    real_init = StatCounters.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(StatCounters, "__init__", recording_init)

    def orphans(owner):
        assert built, "no StatCounters constructed: the recorder saw nothing"
        registered = {name: owner.registry.bundle(name) for name in owner.registry.names}
        return [
            bundle.name
            for bundle in built
            if registered.get(bundle.name) is not bundle
        ]

    return orphans
