"""Drop-tail queues: the model of a link's transmission buffer.

A :class:`DropTailQueue` serves packets FIFO at a fixed rate (packets per
second for full-sized packets) and drops arrivals once ``capacity`` packets
are queued, exactly like the output buffer of a router interface.  Losses in
the simulated networks arise from these overflows, as in the paper's
simulator.

:class:`VariableRateQueue` extends this with run-time rate changes and
outages, used for the wireless-client scenarios (§5) where link capacity
varies as the user moves.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim.simulation import Simulation
from .packet import Packet

__all__ = ["DropTailQueue", "VariableRateQueue"]


class DropTailQueue:
    """FIFO queue with finite buffer and fixed service rate.

    Parameters
    ----------
    sim:
        Owning simulation.
    rate_pps:
        Service rate in full-sized packets per second.
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

    #: Subclasses that support a stalled (rate 0) state relax the
    #: constructor's positive-rate validation.
    _allow_stalled = False

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
        "_arrivals_offset",
        "_departures_offset",
        "_drops_offset",
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
        if rate_pps <= 0 and not (self._allow_stalled and rate_pps == 0):
            raise ValueError(f"queue rate must be positive, got {rate_pps!r}")
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
        # Consumed counts folded away by reset_counters(); the total_*
        # properties add them back so meters baselined before a reset
        # (e.g. a warmup re-baseline) never see counters go backwards.
        self._arrivals_offset = 0
        self._departures_offset = 0
        self._drops_offset = 0
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

    @property
    def loss_rate(self) -> float:
        """Fraction of arrivals dropped since the last counter reset."""
        if self.arrivals == 0:
            return 0.0
        return self.drops / self.arrivals

    @property
    def total_arrivals(self) -> int:
        """Arrivals since creation — monotonic across counter resets."""
        return self.arrivals + self._arrivals_offset

    @property
    def total_departures(self) -> int:
        """Departures since creation — monotonic across counter resets."""
        return self.departures + self._departures_offset

    @property
    def total_drops(self) -> int:
        """Drops since creation — monotonic across counter resets."""
        return self.drops + self._drops_offset

    def reset_counters(self) -> None:
        """Zero the since-reset arrival/departure/drop counters (not the
        buffer).  ``loss_rate`` and the public counters cover the window
        from this point; the ``total_*`` properties keep counting from
        queue creation, so rate/loss meters that baselined *before* the
        reset remain correct across it."""
        self._arrivals_offset += self.arrivals
        self._departures_offset += self.departures
        self._drops_offset += self.drops
        self.arrivals = 0
        self.departures = 0
        self.drops = 0

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
        if not self._busy:
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
        if buffer:
            # _start_service inlined: the server stays busy with the next.
            service = buffer[0].size / self.rate_pps
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


class VariableRateQueue(DropTailQueue):
    """Drop-tail queue whose service rate can change at run time.

    Setting the rate to 0 models a coverage outage: arrivals are still
    buffered (up to capacity) but nothing is served until the rate becomes
    positive again.  The rate change takes effect from the next packet; the
    packet currently in transmission completes at its old rate.

    Constructing with ``rate_pps=0`` starts the queue stalled.  The stalled
    state and the real rate (0.0) are in place *before* the base
    constructor registers the queue with the simulation, so registration
    watchers (invariant monitor, series probes) never observe a
    placeholder rate, and ``_start_service`` can never divide by a
    stale bookkeeping value: service is only ever started from a
    positive-rate transition.
    """

    _allow_stalled = True

    __slots__ = ("_stalled",)

    def __init__(self, sim, rate_pps, capacity, name="", jitter=None, trace=None):
        self._stalled = rate_pps <= 0
        super().__init__(
            sim, max(0.0, float(rate_pps)), capacity, name,
            jitter=jitter, trace=trace,
        )

    def set_rate(self, rate_pps: float) -> None:
        """Change the service rate; 0 (or negative) stalls the queue."""
        was_stalled = self._stalled
        self._stalled = rate_pps <= 0
        self.rate_pps = max(0.0, float(rate_pps))
        if was_stalled and not self._stalled and self._buffer and not self._busy:
            self._start_service()

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
        if not self._busy and not self._stalled:
            self._start_service()

    def _complete(self) -> None:
        packet = self._buffer.popleft()
        self.departures += 1
        self._busy = False
        if self._buffer and not self._stalled:
            self._start_service()
        hop = packet.hop + 1
        packet.hop = hop
        packet.route[hop].receive(packet)
