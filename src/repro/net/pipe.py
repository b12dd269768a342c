"""Propagation-delay pipes.

A :class:`Pipe` delivers every packet it receives to the next hop after a
fixed delay, with unlimited capacity — it models the speed-of-light latency
of a link, while the queueing behaviour lives in :class:`~repro.net.queue.
DropTailQueue`.

A pipe with ``loss_prob > 0`` additionally drops packets independently with
that probability.  This gives a controlled environment with a known loss
rate ``p``, which we use throughout the test suite to validate the paper's
equilibrium window formulae (e.g. regular TCP's ``w = sqrt(2/p)``), and to
model lossy wireless media (§5) whose losses are not congestion-induced.
"""

from __future__ import annotations

from ..sim.simulation import Simulation
from .packet import Packet

__all__ = ["Pipe"]


class Pipe:
    """Fixed propagation delay with infinite capacity, optionally lossy.

    Loss draws come from the simulation's seeded RNG, so runs are
    reproducible from the seed alone; a pipe with ``loss_prob == 0``
    never draws.
    """

    __slots__ = (
        "sim", "delay", "name", "loss_prob", "deliveries", "drops",
        "intercept", "_post_in", "_rand",
    )

    def __init__(
        self, sim: Simulation, delay: float, name: str = "",
        loss_prob: float = 0.0,
    ):
        if not delay >= 0:  # NaN fails this too
            raise ValueError(f"pipe delay must be >= 0, got {delay!r}")
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {loss_prob!r}")
        self.sim = sim
        self.delay = float(delay)
        self.name = name
        self.loss_prob = float(loss_prob)
        self.deliveries = 0
        self.drops = 0
        #: Optional arrival interceptor (``repro.fault``): returning True
        #: consumes the packet before normal processing.
        self.intercept = None
        # Cached hot-path scheduler entry point: deliveries are one event
        # per packet per pipe and are never cancelled, so they take the
        # handle-free post_in path.
        self._post_in = sim.scheduler.post_in
        self._rand = sim.rng.random
        sim.register(self)

    def receive(self, packet: Packet) -> None:
        if self.intercept is not None and self.intercept(packet):
            return
        if self.loss_prob and self._rand() < self.loss_prob:
            self._drop(packet)
        elif self.delay == 0.0:
            self._deliver(packet)
        else:
            self._post_in(self.delay, self._deliver, packet)

    def _drop(self, packet: Packet) -> None:
        self.drops += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                "pkt.drop",
                self.sim.now,
                elem=self.name,
                kind="pipe",
                flow=getattr(packet.flow, "name", None),
                seq=getattr(packet, "seq", None),
            )

    def _deliver(self, packet: Packet) -> None:
        self.deliveries += 1
        # packet.forward() inlined: one event per packet per pipe makes
        # this the single hottest callback in packet benchmarks.
        hop = packet.hop + 1
        packet.hop = hop
        packet.route[hop].receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, delay={self.delay * 1e3:.1f}ms)"
