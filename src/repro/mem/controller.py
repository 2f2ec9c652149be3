"""Memory-controller interface and the plain (no-encryption) controller.

Every scheme the paper compares is, from the machine model's point of
view, just a memory controller with a different ``access`` cost:

* :class:`PlainMemoryController` (here) — raw ext4-dax with *no*
  encryption at all; used by the software-encryption study (Figure 3)
  as the thing eCryptfs is layered over.
* ``BaselineSecureController`` (``repro.secmem``) — counter-mode memory
  encryption + Bonsai Merkle tree; the paper's "Baseline Security".
* ``FsEncrController`` (``repro.core``) — the contribution: the baseline
  plus per-file encryption (FECB/OTT/dual-OTP).

They all implement the small :class:`MemoryControllerBase` surface so the
machine model and workloads are scheme-agnostic.
"""

from __future__ import annotations

from typing import Optional

from .nvm import NVMDevice, NVMStore
from .stats import StatCounters

__all__ = [
    "MemoryRequest",
    "MemoryControllerBase",
    "PlainMemoryController",
    "ServiceQueue",
    "MemoryControllerQueue",
]


class ServiceQueue:
    """A single-server FIFO contention point in virtual time.

    The concurrent-traffic service model (:mod:`repro.sim.service`)
    shares one of these per contended hardware resource across every
    stream's machine.  ``serve`` is the whole protocol: a request
    arriving at ``arrival_ns`` waits until the server frees up, then
    holds it for ``service_ns``.  The returned wait is the queueing
    delay the caller charges to its own clock — by construction a
    stream can never queue behind its *own* requests (each access's
    busy window ends at or before the clock value the stream leaves the
    access with), so a single-stream run takes zero delay everywhere
    and stays bit-identical to the seed path.

    Waits and busy time are accumulated as exact floats on the object
    (latencies are legitimately fractional); the registered
    :class:`StatCounters` bundle carries the integer event counts.
    """

    def __init__(self, name: str = "queue", stats: Optional[StatCounters] = None) -> None:
        # Standalone fallback; the service model injects a registered bundle.
        self.stats = stats or StatCounters(name)
        self.busy_until_ns = 0.0
        self.total_wait_ns = 0.0
        self.total_service_ns = 0.0
        self.max_wait_ns = 0.0

    def serve(self, arrival_ns: float, service_ns: float) -> float:
        """Admit one request; returns the queueing delay in ns."""
        if not arrival_ns >= 0.0 or not service_ns >= 0.0:
            raise ValueError(
                f"arrival and service must be non-negative, got "
                f"({arrival_ns!r}, {service_ns!r})"
            )
        wait = self.busy_until_ns - arrival_ns
        if wait <= 0.0:
            wait = 0.0
        else:
            self.stats.add("contended")
        self.busy_until_ns = arrival_ns + wait + service_ns
        self.stats.add("requests")
        self.total_wait_ns += wait
        self.total_service_ns += service_ns
        if wait > self.max_wait_ns:
            self.max_wait_ns = wait
        return wait

    def summary(self) -> dict:
        """JSON-safe queue-delay stats for result records."""
        requests = self.stats.get("requests")
        return {
            "requests": requests,
            "contended": self.stats.get("contended"),
            "total_wait_ns": self.total_wait_ns,
            "mean_wait_ns": self.total_wait_ns / requests if requests else 0.0,
            "max_wait_ns": self.max_wait_ns,
            "busy_ns": self.total_service_ns,
        }


class MemoryControllerQueue(ServiceQueue):
    """The memory-controller request queue — the primary contention
    point between concurrent streams.  Every controller-side access a
    stream's machine issues (miss fills, write-backs, persist-path
    writes) holds this queue for exactly the latency the machine
    charges for it."""

    def __init__(self, stats: Optional[StatCounters] = None) -> None:
        super().__init__(name="mc_queue", stats=stats)


class MemoryRequest:
    """One line-granularity request arriving at the controller.

    ``addr`` is the *full* physical address including the DF-bit (bit 51
    by default — see ``repro.mem.dfbit``); secure controllers strip and
    interpret it.  ``persist`` marks persist-path writes (clwb+fence).
    ``data`` optionally carries the 64 B plaintext line for functional
    runs — controllers running with real crypto seal it during the write
    so the counter used for the pad is exactly the counter a later read
    will see.

    A ``__slots__`` class rather than a dataclass: one of these is built
    for every memory-side access the machine model issues, so per-object
    construction cost and footprint are on the simulator's hot path.
    """

    __slots__ = ("addr", "is_write", "persist", "data")

    def __init__(
        self,
        addr: int,
        is_write: bool,
        persist: bool = False,
        data: Optional[bytes] = None,
    ) -> None:
        if addr < 0:
            raise ValueError(f"negative physical address {addr:#x}")
        if not is_write:
            if persist:
                raise ValueError("persist only applies to writes")
            if data is not None:
                raise ValueError("data payload only applies to writes")
        self.addr = addr
        self.is_write = is_write
        self.persist = persist
        self.data = data

    def __repr__(self) -> str:
        return (
            f"MemoryRequest(addr={self.addr:#x}, is_write={self.is_write}, "
            f"persist={self.persist}, data={'<64B>' if self.data is not None else None})"
        )


class MemoryControllerBase:
    """Common plumbing: the NVM device, functional store, and counters."""

    def __init__(
        self,
        device: Optional[NVMDevice] = None,
        store: Optional[NVMStore] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        # Standalone fallback; Machine injects a device with a registered bundle.
        self.device = device or NVMDevice()
        self.store = store or NVMStore()
        self.stats = stats or StatCounters(self.__class__.__name__.lower())

    def access(self, request: MemoryRequest) -> float:
        """Serve one request; returns total latency in nanoseconds."""
        raise NotImplementedError

    # Functional path — optional; controllers that encrypt override these.

    def write_data(self, addr: int, plaintext_line: bytes) -> None:
        """Functionally store one 64 B line (plaintext view from the CPU).

        Architectural state only — the attacker model and golden-state
        replay install lines directly, deliberately bypassing the WPQ
        timing model (there is no crash window to model for them).
        """
        self.store.write_line(addr, plaintext_line)

    def read_data(self, addr: int) -> bytes:
        """Functionally load one 64 B line back to the CPU."""
        return self.store.read_line(addr)


class PlainMemoryController(MemoryControllerBase):
    """No encryption, no integrity: each request is one device access."""

    def access(self, request: MemoryRequest) -> float:
        if request.is_write:
            self.stats.add("write_requests")
            if request.data is not None:
                # Functional payload lands as-is: no encryption here.
                self.store.write_line(request.addr, request.data)
            return self.device.write(request.addr, persist=request.persist)
        self.stats.add("read_requests")
        return self.device.read(request.addr)
