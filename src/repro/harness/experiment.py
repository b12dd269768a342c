"""Experiment plumbing shared by the point functions, tests and examples.

The evaluation methodology is the same everywhere: build a scenario, attach
flows (single- or multipath), run a warm-up period, then measure goodput
(in-order deliveries per second), the per-path split and link loss rates
over a measurement window.  :func:`make_flow` builds the flows and
:func:`measure` is the one window every point function and example reads
through; :func:`jain_index` is the fairness figure §3 reports over the
rates.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple, Union

from ..core.registry import make_controller
from ..mptcp.connection import MptcpFlow
from ..net.network import Link
from ..net.route import Route
from ..sim.simulation import Simulation
from ..tcp.sender import TcpFlow

__all__ = ["jain_index", "make_flow", "measure", "Measurement"]

Flow = Union[TcpFlow, MptcpFlow]


def make_flow(
    sim: Simulation,
    routes: Sequence[Route],
    algorithm: str,
    name: str = "flow",
    controller_kwargs: Optional[dict] = None,
    **flow_kwargs,
) -> Flow:
    """Build a flow on ``routes`` running ``algorithm``.

    One route gives a plain TCP flow; several give a multipath flow whose
    subflows share one controller of the requested algorithm.
    """
    controller = make_controller(algorithm, **(controller_kwargs or {}))
    if len(routes) == 1:
        return TcpFlow(sim, routes[0], controller, name=name, **flow_kwargs)
    return MptcpFlow(sim, routes, controller, name=name, **flow_kwargs)


class Measurement:
    """What one window of ``duration`` seconds saw: each flow's in-order
    deliveries (``delivered``; ``rates`` in pkt/s derive from them, and
    ``m[name]`` is ``m.rates[name]``), each multipath flow's per-subflow
    split, and each measured link's ``arrivals`` and ``loss`` (window
    drops / window arrivals, 0.0 when nothing arrived)."""

    def __init__(
        self,
        duration: float,
        delivered: Dict[str, float],
        subflow_rates: Dict[str, List[float]],
        link_counts: Dict[str, Tuple[int, int]],
    ):
        self.delivered = delivered
        self.rates = {name: count / duration
                      for name, count in delivered.items()}
        self.subflow_rates = subflow_rates
        self.arrivals = {name: n for name, (n, _) in link_counts.items()}
        self.loss = {name: drops / n if n else 0.0
                     for name, (n, drops) in link_counts.items()}

    def __getitem__(self, name: str) -> float:
        return self.rates[name]

    def total(self) -> float:
        return sum(self.rates.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = {k: round(v, 1) for k, v in self.rates.items()}
        return f"Measurement({shown})"


def measure(
    sim: Simulation,
    flows: Dict[str, Flow],
    warmup: float,
    duration: float,
    links: Collection[Link] = (),
) -> Measurement:
    """Run to ``warmup`` (scenario time: seconds after the run origin),
    then measure for ``duration`` seconds.

    Flows must already be started; any object with ``packets_delivered``
    measures (a managed flow, a fluid class).  Queue counters only count
    up, so the ``loss`` and ``arrivals`` of ``links`` are differences of
    two readings and cover the window alone.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    sim.run_until_elapsed(warmup)
    link_base = [(link, link.queue.arrivals, link.queue.drops)
                 for link in links]
    base = {name: flow.packets_delivered for name, flow in flows.items()}
    sub_base = {
        name: list(flow.subflow_delivered())
        for name, flow in flows.items()
        if isinstance(flow, MptcpFlow)
    }
    sim.run_until_elapsed(warmup + duration)
    delivered = {
        name: flow.packets_delivered - base[name]
        for name, flow in flows.items()
    }
    subflow_rates = {
        name: [(now - then) / duration
               for now, then in zip(flows[name].subflow_delivered(), before)]
        for name, before in sub_base.items()
    }
    link_counts = {link.name: (link.queue.arrivals - arrivals,
                               link.queue.drops - drops)
                   for link, arrivals, drops in link_base}
    return Measurement(duration, delivered, subflow_rates, link_counts)


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), in (0, 1], 1 = equal.

    §3 of the paper reports it over total flow rates on the torus: "0.99
    for the flow rates with COUPLED, 0.986 for MPTCP and 0.92 for EWTCP".

    >>> jain_index([1.0, 1.0, 1.0])
    1.0
    """
    if not rates:
        raise ValueError("need at least one rate")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    total = sum(rates)
    square_sum = sum(r * r for r in rates)
    if total == 0 or square_sum == 0.0:
        # All-zero allocations are (vacuously) equal; square_sum can also
        # underflow to 0.0 for subnormal rates where total does not.
        return 1.0
    return (total * total) / (len(rates) * square_sum)
