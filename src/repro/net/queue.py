"""Drop-tail queues: the model of a link's transmission buffer.

A :class:`DropTailQueue` serves packets FIFO at a fixed rate (packets per
second for full-sized packets) and drops arrivals once ``capacity`` packets
are queued, exactly like the output buffer of a router interface.  Losses in
the simulated networks arise from these overflows, as in the paper's
simulator.

The rate can change at run time (:meth:`DropTailQueue.set_rate`), and a
rate of 0 is a coverage outage: the wireless-client scenarios (§5) vary a
link's capacity as the user moves.

The ``arrivals``, ``departures`` and ``drops`` counters count up from
creation and are never reset: a measurement window is the difference of
two readings (:func:`repro.harness.experiment.measure`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim.simulation import Simulation
from .packet import Packet

__all__ = ["DropTailQueue"]


class DropTailQueue:
    """FIFO queue with finite buffer and a service rate.

    Parameters
    ----------
    sim:
        Owning simulation.
    rate_pps:
        Service rate in full-sized packets per second; 0 builds the queue
        stalled (see :meth:`set_rate`).
    capacity:
        Buffer size in packets (counts packets queued, including the one in
        transmission).
    name:
        Optional identifier for metrics and debugging.
    """

    #: Default service-time jitter (fraction of the nominal service time).
    #: Real links never serve packets with perfectly constant spacing
    #: (frame sizes, scheduling, interrupt coalescing all vary); a few
    #: percent of jitter reproduces that and prevents the artificial
    #: phase-locking of ACK clocks that perfectly deterministic service
    #: creates, which would skew drop-tail losses towards whichever flow
    #: grew its window that round-trip.
    DEFAULT_JITTER = 0.05

    __slots__ = (
        "sim",
        "rate_pps",
        "capacity",
        "name",
        "jitter",
        "trace",
        "_buffer",
        "_busy",
        "_post_in",
        "_rand",
        "arrivals",
        "departures",
        "drops",
        "drop_hook",
        "intercept",
    )

    def __init__(
        self,
        sim: Simulation,
        rate_pps: float,
        capacity: int,
        name: str = "",
        jitter: Optional[float] = None,
        trace=None,
    ):
        if not rate_pps >= 0:
            raise ValueError(f"queue rate must be >= 0, got {rate_pps!r}")
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.rate_pps = float(rate_pps)
        self.capacity = int(capacity)
        self.name = name
        self.jitter = self.DEFAULT_JITTER if jitter is None else float(jitter)
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        self.trace = sim.trace if trace is None else trace
        self._buffer: deque = deque()
        self._busy = False
        # Cached bound methods: service scheduling and jitter draws sit on
        # the per-packet hot path, and the attribute chains
        # (sim.scheduler.post_in, sim.rng.random) cost more than the work
        # they wrap.  post_in skips the EventHandle allocation entirely —
        # service completions are never cancelled.
        self._post_in = sim.scheduler.post_in
        self._rand = sim.rng.random
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        #: Optional callback invoked with each dropped packet.
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        #: Optional arrival interceptor (``repro.fault``): called with each
        #: arriving packet *before* any counting; returning True consumes
        #: the packet (the queue never sees it).
        self.intercept: Optional[Callable[[Packet], bool]] = None
        sim.register(self)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Packets currently queued (including the one being transmitted)."""
        return len(self._buffer)

    # Read-only aliases kept for perfbench/trace.py, which reads them.
    total_departures = property(lambda self: self.departures)
    total_drops = property(lambda self: self.drops)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if self.intercept is not None and self.intercept(packet):
            return
        self.arrivals += 1
        if len(self._buffer) >= self.capacity:
            self.drops += 1
            self._drop(packet)
            return
        self._buffer.append(packet)
        if self.trace.enabled:
            self._trace_enqueue(packet)
        if not self._busy and self.rate_pps:
            # _start_service inlined: an idle queue serves the arrival.
            self._busy = True
            service = packet.size / self.rate_pps
            if self.jitter:
                service *= 1.0 + self.jitter * (2.0 * self._rand() - 1.0)
            self._post_in(service, self._complete)

    def _trace_enqueue(self, packet: Packet) -> None:
        self.trace.emit(
            "pkt.enqueue",
            self.sim.now,
            queue=self.name,
            flow=getattr(packet.flow, "name", None),
            seq=getattr(packet, "seq", None),
            occ=len(self._buffer),
            dsn=getattr(packet, "dsn", None),
            size=packet.size,
        )

    def _drop(self, packet: Packet) -> None:
        if self.trace.enabled:
            self.trace.emit(
                "pkt.drop",
                self.sim.now,
                elem=self.name,
                kind="queue",
                flow=getattr(packet.flow, "name", None),
                seq=getattr(packet, "seq", None),
                occ=len(self._buffer),
            )
        if self.drop_hook is not None:
            self.drop_hook(packet)

    def set_rate(self, rate_pps: float) -> None:
        """Change the service rate; 0 (or negative) stalls the queue.

        A stalled queue still buffers arrivals (up to capacity) but serves
        nothing until the rate becomes positive again.  The change takes
        effect from the next packet; the packet in transmission completes
        at its old rate.
        """
        was_stalled = not self.rate_pps
        self.rate_pps = max(0.0, float(rate_pps))
        if was_stalled and self.rate_pps and self._buffer and not self._busy:
            self._start_service()

    def _start_service(self) -> None:
        packet = self._buffer[0]
        self._busy = True
        service = packet.size / self.rate_pps
        if self.jitter:
            # Mean-preserving uniform jitter; FIFO order is inherent
            # because there is a single server.
            service *= 1.0 + self.jitter * (2.0 * self._rand() - 1.0)
        self._post_in(service, self._complete)

    def _complete(self) -> None:
        buffer = self._buffer
        packet = buffer.popleft()
        self.departures += 1
        rate = self.rate_pps
        if buffer and rate:
            # _start_service inlined: the server stays busy with the next.
            service = buffer[0].size / rate
            if self.jitter:
                service *= 1.0 + self.jitter * (2.0 * self._rand() - 1.0)
            self._post_in(service, self._complete)
        else:
            self._busy = False
        # packet.forward() inlined: one service completion per packet per
        # queue makes this one of the hottest callbacks in the simulator.
        hop = packet.hop + 1
        packet.hop = hop
        packet.route[hop].receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, rate={self.rate_pps:.0f}pps, "
            f"occ={self.occupancy}/{self.capacity}, drops={self.drops})"
        )
