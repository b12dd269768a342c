"""Flow classes: fluid aggregates of statistically-identical MPTCP flows.

A :class:`FlowClass` stands in for ``count`` flows that share one
congestion-control algorithm, one path set and one RTT profile.  Instead
of simulating ``count`` windows packet by packet, the class keeps a single
per-path window vector and advances it with the guarded fluid integrator
(:func:`repro.fluid.dynamics.step_windows`) — the deterministic limit the
paper's §4 equilibrium arguments are stated in.  The class's aggregate
rate on a path is ``count · w_r / RTT_r``; links see that rate, and the
class sees the links' loss and queueing delay in return (see
:class:`repro.hybrid.links.HybridLink`).

The per-path loss a class reacts to combines the path's intrinsic random
loss (``extra_loss``, extracted from :class:`~repro.net.pipe.LossyPipe`
elements so the fixed-loss validation routes work unchanged) with the
congestion loss of every fluid link on the path; the effective RTT adds
the links' fluid queueing delay to the propagation floor.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence

from ..fluid.dynamics import fluid_law, step_windows
from .links import HybridLink

__all__ = ["ClassPath", "FlowClass"]

_queue_delay = attrgetter("queue_delay")


class ClassPath:
    """One path of a flow class: fluid links plus path-level constants."""

    __slots__ = ("links", "base_rtt", "extra_loss")

    def __init__(
        self,
        links: Sequence[HybridLink],
        base_rtt: float,
        extra_loss: float = 0.0,
    ):
        if base_rtt <= 0:
            raise ValueError(f"base_rtt must be positive, got {base_rtt!r}")
        if not 0.0 <= extra_loss < 1.0:
            raise ValueError(
                f"extra_loss must be in [0, 1), got {extra_loss!r}"
            )
        self.links = tuple(links)
        self.base_rtt = float(base_rtt)
        self.extra_loss = float(extra_loss)

    @property
    def rtt(self) -> float:
        """Effective RTT: propagation floor plus fluid queueing delay."""
        return self.base_rtt + sum(map(_queue_delay, self.links))

    @property
    def served_fraction(self) -> float:
        """Fraction of offered fluid the path's links actually deliver."""
        frac = 1.0
        for link in self.links:
            frac *= link.served_fraction
        return frac

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassPath(links={len(self.links)}, base_rtt={self.base_rtt}, "
            f"extra_loss={self.extra_loss})"
        )


class FlowClass:
    """``count`` statistically-identical flows as one fluid state vector.

    The class exposes the counters the measurement harness expects from a
    flow (``packets_delivered``, fractional because it integrates a rate),
    so :func:`repro.harness.experiment.measure` works on a mixed dict of
    flow classes and packet-level tracer flows.
    """

    def __init__(
        self,
        sim,
        algorithm: str,
        paths: Sequence[ClassPath],
        count: int,
        name: str = "class",
        init_window: float = 2.0,
        floor: float = 1.0,
        a: Optional[float] = None,
    ):
        fluid_law(algorithm)  # raises for a name with no fluid model
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        if not paths:
            raise ValueError("a flow class needs at least one path")
        self.sim = sim
        self.algorithm = algorithm
        self.paths = tuple(paths)
        self.count = int(count)
        self.name = name
        self.floor = float(floor)
        self.a = a
        #: Per-path window of ONE representative flow (packets).
        self.windows: List[float] = [float(init_window)] * len(self.paths)
        #: Aggregate in-order deliveries across all ``count`` flows
        #: (fractional: integrates the delivered fluid rate).
        self.packets_delivered = 0.0
        #: Same, split per path.
        self.path_delivered: List[float] = [0.0] * len(self.paths)
        #: Per-path rates most recently deposited onto the links (set by
        #: :meth:`deposit`; consumed by :meth:`advance`).
        self._offered: List[float] = [0.0] * len(self.paths)
        sim.register(self)

    # ------------------------------------------------------------------
    def rates(self) -> List[float]:
        """Aggregate *offered* rate per path, pkt/s (count · w/RTT)."""
        return [
            self.count * w / p.rtt for w, p in zip(self.windows, self.paths)
        ]

    def throughput_pps(self) -> float:
        """Aggregate *delivered* rate over the last fluid step: the rates
        that step deposited against the served fractions they produced —
        what :meth:`advance` integrated, so summed over classes it never
        exceeds capacity.  (Post-step :meth:`rates` against those
        fractions would overshoot by one step of window growth.)

        Congestion drops ARE the served-fraction shortfall — a link that
        forwards ``min(1, C/total)`` of its offered fluid has thereby
        dropped the rest — so delivery discounts by the served fraction
        and by the path's *intrinsic* random loss only.  (The combined
        loss :meth:`advance` computes is what the window dynamics react
        to; using it here too would double-count every congestion drop.)"""
        return sum(
            offered * (1.0 - p.extra_loss) * p.served_fraction
            for offered, p in zip(self._offered, self.paths)
        )

    # ------------------------------------------------------------------
    def deposit(self) -> None:
        """Push this class's per-path rates onto the fluid links, and
        remember them: :meth:`advance` integrates delivered packets from
        exactly these rates, so summed over classes, delivered through a
        link is exactly ``served_fraction · fluid_pps ≤ capacity``."""
        self._offered = self.rates()
        for rate, p in zip(self._offered, self.paths):
            for link in p.links:
                link.add_fluid(rate)

    def advance(self, dt: float) -> None:
        """One fluid step: integrate the delivered counters from the
        deposited rates against the fresh served fractions, then let the
        windows react to the current link prices."""
        losses, rtts = [], []
        for r, p in enumerate(self.paths):
            # Served fraction (as ClassPath.served_fraction), combined
            # loss (intrinsic plus per-link congestion) and effective RTT
            # (as ClassPath.rtt) in one pass, with no property or
            # generator calls: this runs once per class-step.
            served = 1.0
            survive = 1.0 - p.extra_loss
            for link in p.links:
                served *= link.served_fraction
                survive *= 1.0 - link.loss
            # Intrinsic loss and served fraction only — congestion drops
            # are already the served-fraction shortfall (see
            # throughput_pps).
            delivered = self._offered[r] * (1.0 - p.extra_loss) * served * dt
            self.path_delivered[r] += delivered
            self.packets_delivered += delivered
            losses.append(1.0 - survive)
            rtts.append(p.base_rtt + sum(map(_queue_delay, p.links)))
        self.windows = step_windows(
            self.algorithm, self.windows, losses, rtts, dt,
            floor=self.floor, a=self.a,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowClass({self.name!r}, algo={self.algorithm}, "
            f"count={self.count}, paths={len(self.paths)})"
        )
