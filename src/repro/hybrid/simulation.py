"""The hybrid simulation front-end.

:class:`HybridSimulation` subclasses :class:`~repro.sim.simulation.
Simulation` — the scheduler, seeded RNG, component registry, trace bus
and run loop are all the packet engine's — and adds a fluid tier stepped
on the same clock: flow classes (:class:`~repro.hybrid.flowclass.
FlowClass`) push aggregate rates onto fluid links (:class:`~repro.
hybrid.links.HybridLink`) wrapped around the scenario's own drop-tail
queues, and packet-level tracer flows attached the ordinary way ride
those queues under the aggregate load.

Because the constructor signature matches ``Simulation(seed, trace)``,
everything built for the packet engine — ``repro.exp`` point functions
(the ``"hybrid"`` row of :data:`repro.check.hooks.TIERS`, picked by
``CheckContext.simulation(tiers=("hybrid",))``), the invariant
monitor, the series recorder, the trace CLI — works unchanged.

The fluid stepper fires every ``dt`` once the first class is added:

1. links' fluid accumulators are zeroed;
2. every class deposits ``count·w/RTT`` onto each link of each path (at
   the RTTs its last advance read: nothing between step 4 and the next
   step 2 moves a link's queueing delay);
3. links measure tracer arrivals, integrate backlog, refresh
   loss/delay/served-fraction and re-couple the packet queues;
4. classes advance their windows against the fresh link prices;
5. optionally, ``hybrid.class_state`` / ``hybrid.link_state``
   snapshots are emitted on the trace bus.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..net.pipe import Pipe
from ..net.route import Route
from ..sim.simulation import Simulation
from .flowclass import ClassPath, FlowClass
from .links import HybridLink

__all__ = ["HybridSimulation"]


class HybridSimulation(Simulation):
    """Packet engine plus a fluid flow-class tier on the same scheduler.

    Parameters
    ----------
    seed, trace:
        Exactly as for :class:`~repro.sim.simulation.Simulation`.
    dt:
        Fluid integration step, seconds.  The stiffness guard inside
        :func:`~repro.fluid.dynamics.step_windows` halves internally when
        a step blows up, so ``dt`` trades accuracy against speed, not
        against safety.
    snapshot_every:
        Emit ``hybrid.class_state``/``hybrid.link_state`` trace snapshots
        every this many fluid steps (0 disables; snapshots are skipped
        entirely when tracing is off).
    """

    def __init__(self, seed: int = 1, trace=None, dt: float = 0.01,
                 snapshot_every: int = 0):
        super().__init__(seed=seed, trace=trace)
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        self.dt = float(dt)
        self.snapshot_every = int(snapshot_every)
        self.classes: List[FlowClass] = []
        self.hybrid_links: List[HybridLink] = []
        self._link_by_queue: Dict[int, HybridLink] = {}
        self._started = False
        self._steps = 0

    # ------------------------------------------------------------------
    def hybrid_link(self, queue) -> HybridLink:
        """The fluid view of ``queue`` (one per queue, created on demand)."""
        link = self._link_by_queue.get(id(queue))
        if link is None:
            link = HybridLink(self, queue)
            self._link_by_queue[id(queue)] = link
            self.hybrid_links.append(link)
        return link

    def add_class(
        self,
        routes: Sequence[Route],
        algorithm: str,
        count: int,
        name: str = "class",
        init_window: float = 2.0,
        rtt_scale: float = 1.0,
        a: Optional[float] = None,
    ) -> FlowClass:
        """Aggregate ``count`` flows running ``algorithm`` over ``routes``.

        Each route contributes one fluid path: its drop-tail queues are
        wrapped as hybrid links (shared with every other class and with
        the tracer flows), its propagation RTT becomes the path's base
        RTT (scaled by ``rtt_scale``, the hook for deterministic
        per-class RTT diversity), and the ``loss_prob`` of each
        :class:`~repro.net.pipe.Pipe` on the path contributes intrinsic
        random loss.
        """
        if not 0.0 < rtt_scale < math.inf:
            raise ValueError(
                f"rtt_scale must be finite and positive, got {rtt_scale!r}")
        paths = []
        for route in routes:
            links = [self.hybrid_link(q) for q in route.queues]
            survive = 1.0
            for elem in route.elements:
                if isinstance(elem, Pipe):
                    survive *= 1.0 - elem.loss_prob
            paths.append(ClassPath(
                links,
                base_rtt=route.rtt_floor * rtt_scale,
                extra_loss=1.0 - survive,
            ))
        fc = FlowClass(
            self, algorithm, paths, count, name=name,
            init_window=init_window, a=a,
        )
        self.classes.append(fc)
        self._ensure_started()
        return fc

    @property
    def aggregate_flows(self) -> int:
        """Flows represented by the fluid tier (sum of class counts)."""
        return sum(fc.count for fc in self.classes)

    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        if self.trace.enabled:
            self.trace.emit(
                "hybrid.attach",
                self.now,
                classes=len(self.classes),
                links=len(self.hybrid_links),
                flows=self.aggregate_flows,
                dt=self.dt,
            )
        self.scheduler.post_in(self.dt, self._step)

    def _step(self) -> None:
        dt = self.dt
        links = self.hybrid_links
        classes = self.classes
        for link in links:
            link.fluid_pps = 0.0
        for fc in classes:
            fc.deposit()
        for link in links:
            link.step(dt)
        for fc in classes:
            fc.advance(dt)
        self._steps += 1
        if (
            self.trace.enabled
            and self.snapshot_every
            and self._steps % self.snapshot_every == 0
        ):
            self._snapshot()
        self.scheduler.post_in(dt, self._step)

    def _snapshot(self) -> None:
        now = self.now
        for fc in self.classes:
            self.trace.emit(
                "hybrid.class_state",
                now,
                cls=fc.name,
                rate_pps=fc.throughput_pps(),
                windows=sum(fc.windows),
                delivered=fc.packets_delivered,
            )
        for link in self.hybrid_links:
            self.trace.emit(
                "hybrid.link_state",
                now,
                link=link.name,
                fluid_pps=link.fluid_pps,
                tracer_pps=link.tracer_pps,
                backlog=link.backlog,
                loss=link.loss,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HybridSimulation(seed={self.seed}, now={self.now:.3f}, "
            f"classes={len(self.classes)}, flows={self.aggregate_flows})"
        )
