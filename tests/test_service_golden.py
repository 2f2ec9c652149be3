"""Golden digests for multi-stream service runs.

A service run interleaves several streams through the shared
memory-controller and OTT-port queues (``repro.sim.service``).  Its
whole record -- every stream's ``RunResult``, response-time histograms,
both queues' delay stats and the interleave digest -- is a pure
function of (config, workloads, policy).  Every case runs twice: with
streams on the compiled interpreter, and with them forced onto the
reference path (``TraceCursor`` replay); both must reproduce the digest
bit-for-bit.

The cases cover both secure schemes under both closed-loop window
depths and both open-loop gap distributions, the OTT-port-heavy
ManyFiles mix (hundreds of port requests, so per-access lookup counting
matters), and one Anubis mix (a machine outside the compiled
interpreter's envelope).  Regenerate with
``python tests/test_service_golden.py`` after a deliberate model change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.exec.spec import canonical_json
from repro.sim import batch
from repro.sim.config import MachineConfig
from repro.sim.schemes import get_scheme
from repro.sim.service import ClosedLoop, OpenLoop, run_service
from repro.workloads import ManyFilesWorkload
from repro.workloads.base import StreamSpec, stream_factories

_POLICIES = {
    "closed1": ClosedLoop(window=1),
    "closed4": ClosedLoop(window=4),
    "open-exp": OpenLoop(interarrival_ns=150.0),
    "open-fixed": OpenLoop(interarrival_ns=150.0, distribution="fixed"),
}


def _fillseq_mix():
    return [factory() for factory in stream_factories(
        [StreamSpec("Fillseq-S", count=3, ops=80)])]


def _many_files_mix():
    return [ManyFilesWorkload(num_files=96, seed=11 + 101 * index)
            for index in range(3)]


#: (mix, scheme, policy) -> (sha256 of canonical_json(to_dict()),
#: mc_queue requests, ott_queue requests).
GOLDEN = {
    ("3xFillseq-S", "baseline_secure", "closed1"): (
        "d3e5a2badd3be1c00d447a42fef70546722ba57db4927c46aa277bfc94a48437",
        2505, 0),
    ("3xFillseq-S", "baseline_secure", "closed4"): (
        "c8df01d2b1e43de8024a0e81ebdc18995274185f0bfd79882bd264e64f1b798a",
        2505, 0),
    ("3xFillseq-S", "baseline_secure", "open-exp"): (
        "ca0c8f7f3dc24c4acf07f3d8a68c45884a58a3749bc216a3ec5bbd2d46c2fb2b",
        2505, 0),
    ("3xFillseq-S", "baseline_secure", "open-fixed"): (
        "94ddcde079e01773e6cb7ffcaab685118c81354e3b71cdaa035e1ec5a4c67f80",
        2505, 0),
    ("3xFillseq-S", "fsencr", "closed1"): (
        "675f7c85df1c9028a6b44ff2be19b558347baa11d15a3fa5fc758f7de796f7a5",
        2505, 0),
    ("3xFillseq-S", "fsencr", "closed4"): (
        "f87cae3079c67144142066e2d14fc1271033e31338bb3867f1b1fce281455939",
        2505, 0),
    ("3xFillseq-S", "fsencr", "open-exp"): (
        "693333fa71652b9d68c78d2f355aef8444f9904f2b96a20010b1356b0502f5ad",
        2505, 0),
    ("3xFillseq-S", "fsencr", "open-fixed"): (
        "8593568eeeadf4197e937c1acacdd09bc8808c19925e3e801db1961de6a62902",
        2505, 0),
    ("3xManyFiles@96", "fsencr+partitioned", "closed1"): (
        "d55c50af2933ada27e5be873a55671e887df7543398cf180a9dd7ab9e5318389",
        2238, 817),
    ("3xFillseq-S", "fsencr+anubis", "closed1"): (
        "977efd32de61ffd141e22af2a3436abcae7791d45ea868f2cf3e14c894837eb7",
        2505, 0),
}

_MIXES = {"3xFillseq-S": _fillseq_mix, "3xManyFiles@96": _many_files_mix}


def _service_digest(mix: str, scheme: str, policy: str):
    config = get_scheme(scheme).configure(MachineConfig())
    result = run_service(config, _MIXES[mix](), _POLICIES[policy])
    blob = canonical_json(result.to_dict())
    return hashlib.sha256(blob.encode()).hexdigest(), result


def _executor_cases():
    # The compiled cases keep the bare (mix, scheme, policy) id.
    for key in sorted(GOLDEN):
        label = "-".join(key)
        yield pytest.param(*key, "compiled", id=label)
        yield pytest.param(*key, "reference", id=f"{label}-reference")


@pytest.mark.parametrize("mix,scheme,policy,executor", _executor_cases())
def test_service_run_bit_identical(mix, scheme, policy, executor, monkeypatch):
    if executor == "reference":
        monkeypatch.setattr(batch, "_supports_fast_path", lambda machine: False)
    digest, result = _service_digest(mix, scheme, policy)
    want_digest, want_mc, want_ott = GOLDEN[(mix, scheme, policy)]
    label = f"{mix}/{scheme}/{policy}"
    assert result.mc_queue["requests"] == want_mc, f"{label}: MC requests drifted"
    assert result.ott_queue["requests"] == want_ott, f"{label}: OTT-port requests drifted"
    assert digest == want_digest, f"{label}: the service record drifted"


if __name__ == "__main__":  # regenerate the golden table
    import sys

    sys.stdout.write("GOLDEN = {\n")
    for mix, scheme, policy in GOLDEN:
        digest, result = _service_digest(mix, scheme, policy)
        sys.stdout.write(
            f'    ("{mix}", "{scheme}", "{policy}"): (\n'
            f'        "{digest}",\n'
            f'        {result.mc_queue["requests"]}, '
            f'{result.ott_queue["requests"]}),\n'
        )
    sys.stdout.write("}\n")
