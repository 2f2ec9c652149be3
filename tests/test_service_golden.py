"""Golden digests for multi-stream service runs.

A service run interleaves several streams through the shared
memory-controller and OTT-port queues (``repro.sim.service``).  Its
whole record -- every stream's ``RunResult``, response-time histograms,
both queues' delay stats and the interleave digest -- is a pure
function of (config, workloads, policy).  These digests were captured
on the per-access reference path; any executor of service streams must
reproduce them bit-for-bit.

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
        "702ec15bcfee750d32b2aa45c0e9f9c1d6fde2e2d4341efec549762c40f2b70f",
        2505, 0),
    ("3xFillseq-S", "baseline_secure", "closed4"): (
        "d2b01e35903ea43f72b253eea98ade777c323b5173f1989c75ddc2bb34e4d329",
        2505, 0),
    ("3xFillseq-S", "baseline_secure", "open-exp"): (
        "7ea28714f88aac284042e2fb1461453de249c7268d9035312d73a39c751bc801",
        2505, 0),
    ("3xFillseq-S", "baseline_secure", "open-fixed"): (
        "5819f43077bfd1571d5558bfeae004525e47cc17824454c4c955c77c99fea50d",
        2505, 0),
    ("3xFillseq-S", "fsencr", "closed1"): (
        "ed0d548945e474de14e0192f9deac6d09a01b8a99d00b29103aa125e9f390ce5",
        2505, 0),
    ("3xFillseq-S", "fsencr", "closed4"): (
        "d87501eae9b09f318221f75a97ffdcb2ee9ea76488224d4c60198ffab737819c",
        2505, 0),
    ("3xFillseq-S", "fsencr", "open-exp"): (
        "57d3e20177399b5a084e63a2829a5ab7a358aff4b5f3a71ac6b95467d3f3bf0f",
        2505, 0),
    ("3xFillseq-S", "fsencr", "open-fixed"): (
        "df31b9e29e15c6e65596379816f4132311cdab52b73883ccca71901b1c27eb4d",
        2505, 0),
    ("3xManyFiles@96", "fsencr+partitioned", "closed1"): (
        "b51edb15075332c8e6e341f36a93c00234ec0d9be0db0d15da4b45f0809603e5",
        2238, 817),
    ("3xFillseq-S", "fsencr+anubis", "closed1"): (
        "7ef11669f8fc15368f203b193e860469b52c5ac2f04733ab8aba0953afa7a85d",
        2505, 0),
}

_MIXES = {"3xFillseq-S": _fillseq_mix, "3xManyFiles@96": _many_files_mix}


def _service_digest(mix: str, scheme: str, policy: str):
    config = get_scheme(scheme).configure(MachineConfig())
    result = run_service(config, _MIXES[mix](), _POLICIES[policy])
    blob = canonical_json(result.to_dict())
    return hashlib.sha256(blob.encode()).hexdigest(), result


@pytest.mark.parametrize("mix,scheme,policy", sorted(GOLDEN))
def test_service_run_bit_identical(mix, scheme, policy):
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
