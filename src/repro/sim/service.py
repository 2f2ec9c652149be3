"""Concurrent-traffic service model: N streams through shared queues.

The paper evaluates every scheme under one closed-loop access stream;
this module is the production-shaped counterpart.  A *service run*
takes N per-stream workloads, captures each into a trace, gives each
stream its own :class:`~repro.sim.machine.Machine` (own MMU, caches,
filesystem — like processes on separate sockets sharing one DIMM), and
interleaves the streams in virtual time through two shared contention
points:

* the **memory-controller queue** (:class:`MemoryControllerQueue`) —
  every miss fill, write-back, and persist-path write holds it for
  exactly the latency the machine charges for that access;
* the **OTT port queue** (:class:`OTTPortQueue`) — each file-key
  lookup a controller access performs holds the single 20-cycle
  lookup port (capped at the access's own charged latency).

The scheduler is event-driven over virtual time: at each step the
stream with the earliest ready time runs its next trace op to
completion (ties broken by stream id, so interleavings are total-order
deterministic).  The run's ``interleave_digest`` is one SHA-256 fed
once per scheduler turn (:func:`_hash_turn`): the stream id and the
turn's op count, then its completions as little-endian binary64, and
after a stream's last turn its op-code column.  A stream's ops run on
the compiled-trace interpreter in its stepping mode
(:func:`~repro.sim.batch.step_workload`), or on ``TraceCursor`` for
machines outside the interpreter's envelope.  Two arrival policies
gate *when* a measured op is ready:

* :class:`ClosedLoop` — a per-stream MLP window of ``window``
  outstanding requests: op ``i`` issues when op ``i - window``
  completes.  ``window=1`` is the classic think-time-free closed loop
  the paper's single-stream runs correspond to.
* :class:`OpenLoop` — a deterministic seeded inter-arrival process
  (exponential or fixed gaps).  Arrivals do not wait for completions,
  so offered load is an input and queueing delay shows up in the
  response times — this is what load-vs-percentile curves sweep.

Bit-identity contract: a 1-stream service run executes the exact seed
per-access semantics.  The shared queues charge zero wait to a lone
stream (each access's busy window ends at or before the clock the
stream leaves the access with), and ``0.0 + x == x`` exactly, so all
golden digests reproduce bit-for-bit.  See ``docs/SERVICE.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
import struct
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..core.ott import OTTPortQueue
from ..mem.controller import MemoryControllerQueue
from ..mem.stats import StatsRegistry
from .config import MachineConfig
from .histograms import LatencyHistogram
from .machine import Machine
from .results import RunResult
from .trace import MARK, PERSIST

__all__ = [
    "ClosedLoop",
    "OpenLoop",
    "ServiceQueues",
    "StreamServiceResult",
    "ServiceResult",
    "run_service",
]

#: A scheduler turn's header in the interleave digest: the stream id
#: and the turn's op count, little-endian unsigned 32-bit.
_TURN_HEADER = struct.Struct("<II")


def _hash_turn(update: Callable[[bytes], None], sid: int, completions: array,
               codes: bytes = b"") -> None:
    """Feed one scheduler turn to the interleave digest's ``update``.

    The turn's header, then its ops' completion times as little-endian
    IEEE-754 binary64 (``completions`` is an ``array('d')``, byteswapped
    in place on a big-endian host), then ``codes``: the stream's op-code
    column when this turn ends the stream, nothing otherwise.
    """
    update(_TURN_HEADER.pack(sid, len(completions)))
    if sys.byteorder == "big":
        completions.byteswap()
    update(completions)
    update(codes)


@dataclass(frozen=True)
class ClosedLoop:
    """Per-stream MLP window: at most ``window`` measured ops in flight.

    Op ``i`` issues when op ``i - window`` completes, so each sample is
    the stream's cycle time at that window depth.  ``window=1`` makes a
    1-stream run identical to the classic sequential replay.
    """

    window: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def describe(self) -> str:
        return f"closed(window={self.window})"


@dataclass(frozen=True)
class OpenLoop:
    """Seeded deterministic inter-arrival process (offered-load input).

    Each stream draws its own gap sequence from
    ``random.Random(seed * 1000003 + sid)``, so the arrival process is
    reproducible per (seed, stream) and independent of the other
    streams.  ``exponential`` draws scale linearly with
    ``interarrival_ns`` for a fixed seed — sweeping load re-uses the
    same underlying uniform sequence, which keeps load curves smooth.
    """

    interarrival_ns: float
    seed: int = 0xA221
    distribution: str = "exponential"

    def __post_init__(self) -> None:
        if not self.interarrival_ns > 0.0:
            raise ValueError(
                f"interarrival_ns must be positive, got {self.interarrival_ns!r}"
            )
        if self.distribution not in ("exponential", "fixed"):
            raise ValueError(
                f"distribution must be 'exponential' or 'fixed', "
                f"got {self.distribution!r}"
            )

    def describe(self) -> str:
        return (
            f"open(interarrival={self.interarrival_ns:g}ns, "
            f"{self.distribution}, seed={self.seed:#x})"
        )


ArrivalPolicy = Union[ClosedLoop, OpenLoop]


class ServiceQueues:
    """The shared contention points of one service run.

    One instance is attached to every stream's machine
    (:meth:`Machine.attach_service_queues`); the queue stat bundles
    register in the run's service-level registry, so their counters
    reach the run's ``service_stats`` like any machine component's.
    """

    def __init__(self) -> None:
        self.registry = StatsRegistry()
        self.mc = MemoryControllerQueue(stats=self.registry.create("mc_queue"))
        self.ott = OTTPortQueue(stats=self.registry.create("ott_queue"))

    def charge(self, arrival: float, charged: float, lookups: int,
               lookup_ns: float) -> float:
        """Queueing delay of one controller access; the caller adds it
        (plus ``charged``) to its clock.

        The access holds the memory-controller queue for exactly its
        ``charged`` latency, from ``arrival``.  Each of its ``lookups``
        OTT probes then holds the OTT port for ``lookup_ns``, capped at
        what is left of ``charged``, so the port is never busier than
        the access that used it.  Every busy window ends at or before
        the clock the stream leaves the access with, so a stream never
        queues behind itself.

        Under this rule the MC queue subsumes the port: the port windows
        start where the access's MC window starts and fit inside it, and
        MC windows never overlap, so a port request never waits (the
        ManyFiles service golden makes 817 port requests, none
        contended).  The port counts lookups and busy time only.
        Modelling the port outside the MC critical section, so lookups
        of different streams can collide there, is open work.
        """
        wait = self.mc.serve(arrival, charged)
        if lookups:
            port_budget = charged
            port_arrival = arrival + wait
            for _ in range(lookups):
                service = lookup_ns if lookup_ns <= port_budget else port_budget
                port_wait = self.ott.serve(port_arrival, service)
                wait += port_wait
                port_arrival += port_wait + service
                port_budget -= service
        return wait


class _Stream:
    """One stream's scheduling state between its turns."""

    __slots__ = (
        "sid", "workload_name", "codes", "steps", "index", "machine",
        "measuring", "samples", "histogram", "stats", "completions",
        "next_gap", "next_arrival_ns", "issue_ns", "mark_ns", "end_ns",
    )

    def __init__(
        self,
        sid: int,
        name: str,
        codes: bytes,
        steps: Iterator[None],
        machine: Machine,
        policy: ArrivalPolicy,
        registry: StatsRegistry,
    ) -> None:
        self.sid = sid
        self.workload_name = name
        self.codes = codes
        self.steps = steps
        self.index = 0
        self.machine = machine
        self.measuring = False
        self.samples: List[float] = []
        self.histogram = LatencyHistogram(name=f"stream{sid}")
        self.stats = registry.create(f"stream{sid}")
        # Closed loop: the last ``window`` completions.  Open loop: the
        # next inter-arrival gap, one call per arrival.
        self.completions: Optional[deque] = None
        self.next_gap: Optional[Callable[[], float]] = None
        if isinstance(policy, ClosedLoop):
            self.completions = deque(maxlen=policy.window)
        elif policy.distribution == "fixed":
            self.next_gap = itertools.repeat(policy.interarrival_ns).__next__
        else:
            rng = random.Random(policy.seed * 1000003 + sid)
            self.next_gap = partial(rng.expovariate, 1.0 / policy.interarrival_ns)
        self.next_arrival_ns = 0.0
        # When op ``index`` may issue: the clock, or for a measured op
        # its arrival (open loop) or window slot (closed loop).
        self.issue_ns = machine.clock_ns
        self.mark_ns = 0.0
        self.end_ns = 0.0


@dataclass
class StreamServiceResult:
    """One stream's view of a service run."""

    sid: int
    workload: str
    run: RunResult
    samples: List[float] = field(repr=False)
    histogram: LatencyHistogram = field(repr=False)
    measured_ops: int = 0
    mark_ns: float = 0.0
    end_ns: float = 0.0

    def to_dict(self) -> dict:
        return {
            "sid": self.sid,
            "workload": self.workload,
            "run": self.run.to_dict(),
            "measured_ops": self.measured_ops,
            "mark_ns": self.mark_ns,
            "end_ns": self.end_ns,
            "histogram": self.histogram.as_dict(),
        }


@dataclass
class ServiceResult:
    """Everything one concurrent service run produced."""

    name: str
    scheme: str
    policy: str
    streams: List[StreamServiceResult]
    mc_queue: dict
    ott_queue: dict
    interleave_digest: str
    service_stats: Dict[str, int]

    @property
    def samples(self) -> List[float]:
        """All streams' response-time samples, stream-major order."""
        pooled: List[float] = []
        for stream in self.streams:
            pooled.extend(stream.samples)
        return pooled

    @property
    def measured_ops(self) -> int:
        return sum(stream.measured_ops for stream in self.streams)

    @property
    def makespan_ns(self) -> float:
        """Measured-window span: first mark to last completion."""
        marked = [s for s in self.streams if s.measured_ops]
        if not marked:
            return 0.0
        return max(s.end_ns for s in marked) - min(s.mark_ns for s in marked)

    @property
    def throughput_ops_per_s(self) -> float:
        span = self.makespan_ns
        if span <= 0.0:
            return 0.0
        return self.measured_ops / span * 1e9

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scheme": self.scheme,
            "policy": self.policy,
            "streams": [stream.to_dict() for stream in self.streams],
            "measured_ops": self.measured_ops,
            "makespan_ns": self.makespan_ns,
            "throughput_ops_per_s": self.throughput_ops_per_s,
            "mc_queue": self.mc_queue,
            "ott_queue": self.ott_queue,
            "interleave_digest": self.interleave_digest,
            "service_stats": dict(self.service_stats),
        }


def run_service(
    config: MachineConfig,
    workloads: Sequence,
    policy: ArrivalPolicy,
) -> ServiceResult:
    """Run N workload streams concurrently through shared queues.

    Each entry of ``workloads`` must be a *fresh* workload instance (it
    is captured, then its ops replayed on the stream's machine).  The
    returned per-stream :class:`RunResult` for a 1-stream closed-loop
    run is bit-identical to ``run_workload`` under the same config.

    A turn is a maximal run of one stream's consecutive ops.  Each turn
    feeds the ``interleave_digest`` ``_TURN_HEADER`` (stream id, op
    count), then the ops' completion times as little-endian IEEE-754
    binary64; the turn that ends a stream then feeds the stream's
    op-code column (``codes``, one :data:`~repro.sim.batch.OP_NAMES`
    index per op).
    """
    from .batch import OP_NAMES, step_workload

    queues = ServiceQueues()
    streams: List[_Stream] = []
    for sid, workload in enumerate(workloads):
        machine = Machine(config)
        machine.attach_service_queues(queues)
        workload.setup(machine)
        stepped = step_workload(machine, workload)
        if stepped is None:
            raise ValueError(
                f"workload {workload.name!r} is not capturable; the service "
                "model only runs trace-expressible streams"
            )
        streams.append(_Stream(sid, *stepped, machine, policy, queues.registry))

    last_measured = OP_NAMES.index(PERSIST)  # codes <= this are measured
    mark = OP_NAMES.index(MARK)
    window = policy.window if isinstance(policy, ClosedLoop) else 0
    digest = hashlib.sha256()
    update = digest.update

    # Cached (ready_ns, sid) keys of the streams not running; only the
    # stream that runs changes its key.  A stream keeps the turn while
    # its key stays below every other stream's.
    heap = [(stream.machine.clock_ns, stream.sid) for stream in streams
            if stream.codes]
    heapq.heapify(heap)
    while heap:
        sid = heapq.heappop(heap)[1]
        rival = heap[0] if heap else None
        stream = streams[sid]
        machine = stream.machine
        codes = stream.codes
        last = len(codes) - 1
        step = stream.steps.__next__
        samples = stream.samples
        completions = stream.completions
        next_gap = stream.next_gap
        index = stream.index
        issue = stream.issue_ns
        measuring = stream.measuring
        turn = array("d")
        append_turn = turn.append
        while True:
            code = codes[index]
            if issue > machine.clock_ns:
                # The stream is idle until its request arrives (open
                # loop) or its window opens (closed loop).
                machine.clock_ns = issue
            step()
            completion = machine.clock_ns
            append_turn(completion)
            if measuring and code <= last_measured:
                samples.append(completion - issue)
                stream.end_ns = completion
                if completions is not None:
                    completions.append(completion)
                else:
                    stream.next_arrival_ns = issue + next_gap()
            elif code == mark:
                measuring = True
                stream.mark_ns = stream.end_ns = completion
                if next_gap is not None:
                    stream.next_arrival_ns = completion + next_gap()
            if index == last:
                _hash_turn(update, sid, turn, codes)
                stream.steps.close()  # flushes the interpreter's stats
                stream.stats.add("ops", len(codes))
                if samples:
                    stream.stats.add("measured_ops", len(samples))
                stream.histogram.record_many(samples)
                break
            index += 1
            # When the next op may issue: unmeasured ops (setup
            # preamble, compute think time, file management) as soon as
            # the clock reaches them.
            if not measuring or codes[index] > last_measured:
                issue = completion
            elif completions is None:
                issue = stream.next_arrival_ns  # may trail the clock
            elif len(completions) == window:
                # The window slot opened when op (i - window) completed;
                # that completion is the op's logical arrival time.
                issue = completions[0]
            else:
                issue = completion
            key = (issue if issue > completion else completion, sid)
            if rival is not None and key > rival:
                _hash_turn(update, sid, turn)
                stream.index = index
                stream.issue_ns = issue
                stream.measuring = measuring
                heapq.heappush(heap, key)
                break

    results = [
        StreamServiceResult(
            sid=stream.sid,
            workload=stream.workload_name,
            run=stream.machine.result(stream.workload_name),
            samples=stream.samples,
            histogram=stream.histogram,
            measured_ops=len(stream.samples),
            mark_ns=stream.mark_ns,
            end_ns=stream.end_ns,
        )
        for stream in streams
    ]
    return ServiceResult(
        name="+".join(stream.workload_name for stream in streams),
        scheme=config.scheme.value,
        policy=policy.describe(),
        streams=results,
        mc_queue=queues.mc.summary(),
        ott_queue=queues.ott.summary(),
        interleave_digest=digest.hexdigest(),
        service_stats=dict(queues.registry.snapshot()),
    )
