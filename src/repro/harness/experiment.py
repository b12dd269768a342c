"""Experiment plumbing shared by the point functions, tests and examples.

The evaluation methodology is the same everywhere: build a scenario, attach
flows (single- or multipath), run a warm-up period, then measure goodput
(in-order deliveries per second) and link loss rates over a measurement
window.  :func:`make_flow` and :func:`measure` capture that shape.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..core.registry import make_controller
from ..mptcp.connection import MptcpFlow
from ..net.route import Route
from ..obs.series import SeriesRecorder, cwnd_probe, queue_depth_probe, rtt_probe
from ..sim.simulation import Simulation
from ..tcp.sender import TcpFlow

__all__ = ["make_flow", "measure", "standard_series", "Measurement"]

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
    """Goodput rates per flow over a measurement window."""

    def __init__(
        self,
        rates: Dict[str, float],
        subflow_rates: Dict[str, List[float]],
        window: float,
    ):
        self.rates = rates
        self.subflow_rates = subflow_rates
        self.window = window

    def __getitem__(self, name: str) -> float:
        return self.rates[name]

    def total(self) -> float:
        return sum(self.rates.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = {k: round(v, 1) for k, v in self.rates.items()}
        return f"Measurement({shown})"


def standard_series(
    sim: Simulation,
    flows: Dict[str, Flow],
    queues: Iterable = (),
    interval: float = 1.0,
    warmup: float = 0.0,
) -> SeriesRecorder:
    """Build (and start) a :class:`~repro.obs.series.SeriesRecorder` with
    the standard probe set every scenario wants:

    * ``goodput.<flow>`` — in-order deliveries per second, per flow;
    * ``cwnd.<flow>[.sfN]`` / ``rtt.<flow>[.sfN]`` — congestion window
      (packets) and smoothed RTT (seconds) per (sub)flow;
    * ``qdepth.<queue.name>`` — occupancy (packets) for each queue passed.

    The recorder is already started; run the simulation, then export with
    ``rec.to_csv(...)`` / ``rec.to_jsonl(...)``.
    """
    rec = SeriesRecorder(sim, interval=interval, warmup=warmup)
    for name, flow in flows.items():
        rec.add_rate_probe(
            f"goodput.{name}", lambda flow=flow: flow.packets_delivered
        )
        if isinstance(flow, MptcpFlow):
            for i, subflow in enumerate(flow.subflows):
                rec.add_probe(f"cwnd.{name}.sf{i}", cwnd_probe(subflow))
                rec.add_probe(f"rtt.{name}.sf{i}", rtt_probe(subflow))
        else:
            rec.add_probe(f"cwnd.{name}", cwnd_probe(flow.sender))
            rec.add_probe(f"rtt.{name}", rtt_probe(flow.sender))
    for queue in queues:
        label = queue.name or f"q{id(queue):x}"
        rec.add_probe(f"qdepth.{label}", queue_depth_probe(queue))
    rec.start()
    return rec


def measure(
    sim: Simulation,
    flows: Dict[str, Flow],
    warmup: float,
    duration: float,
) -> Measurement:
    """Run to ``warmup`` (absolute sim time), then measure goodput for
    ``duration`` seconds.

    Flows must already be started.  Returns per-flow rates in pkt/s, plus
    per-subflow rates for multipath flows (per-path load split).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    sim.run_until(warmup)
    base = {name: flow.packets_delivered for name, flow in flows.items()}
    sub_base = {
        name: list(flow.subflow_delivered())
        for name, flow in flows.items()
        if isinstance(flow, MptcpFlow)
    }
    sim.run_until(warmup + duration)
    rates = {
        name: (flow.packets_delivered - base[name]) / duration
        for name, flow in flows.items()
    }
    subflow_rates = {}
    for name, flow in flows.items():
        if isinstance(flow, MptcpFlow):
            after = flow.subflow_delivered()
            subflow_rates[name] = [
                (now - then) / duration
                for now, then in zip(after, sub_base[name])
            ]
    return Measurement(rates, subflow_rates, duration)
