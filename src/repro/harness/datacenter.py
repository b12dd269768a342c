"""Data-center experiment runner (§4): traffic matrices over FatTree/BCube.

For a list of (src, dst) host pairs this module attaches one flow per pair —
single-path over a random ECMP shortest path, or multipath over a sampled
path set — runs the simulation, and reports per-flow goodput and per-link
loss, the quantities behind the §4 tables and Figs 12–13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.registry import make_controller
from ..mptcp.connection import MptcpFlow
from ..net.network import Network
from ..sim.simulation import Simulation
from ..tcp.sender import TcpFlow
from .experiment import Flow

__all__ = ["DataCenterRun", "measure_matrix", "run_matrix", "start_matrix"]


@dataclass
class DataCenterRun:
    """Results of one traffic-matrix experiment."""

    flow_rates: Dict[str, float]           # pkt/s per flow (goodput)
    flow_sources: Dict[str, str]           # flow name -> sending host
    link_loss: Dict[str, float]            # drop fraction per busy link
    host_link_rate: float                  # pkt/s of one host interface
    max_subflows: int                      # most subflows any flow runs

    def per_host_rates(self) -> Dict[str, float]:
        """Aggregate goodput per sending host — the unit of the paper's
        §4 tables ("per-host throughputs"): a TP2 host's 12 flows count
        together."""
        totals: Dict[str, float] = {}
        for name, rate in self.flow_rates.items():
            src = self.flow_sources[name]
            totals[src] = totals.get(src, 0.0) + rate
        return totals

    def mean_utilisation(self) -> float:
        """Mean per-host goodput as a fraction of one host link's rate."""
        per_host = self.per_host_rates()
        mean = sum(per_host.values()) / len(per_host)
        return mean / self.host_link_rate

    def sorted_rates(self) -> List[float]:
        return sorted(self.flow_rates.values())

    def sorted_losses(self) -> List[float]:
        return sorted(self.link_loss.values())


def _paths_for(
    net: Network,
    sim: Simulation,
    src: str,
    dst: str,
    algorithm: str,
    path_count: int,
    bcube=None,
) -> List[List[str]]:
    if algorithm in ("single", "reno"):
        return [net.random_shortest_path(src, dst)]
    if bcube is not None:
        return bcube.parallel_paths(src, dst, count=path_count)
    return net.random_paths(src, dst, count=path_count)


def start_matrix(
    sim: Simulation,
    net: Network,
    pairs: Sequence[Tuple[str, str]],
    algorithm: str,
    path_count: int = 8,
    bcube=None,
    stagger: float = 0.2,
) -> Tuple[Dict[str, Flow], Dict[str, str]]:
    """Attach and start one flow per (src, dst) pair; returns the flows
    and each flow's sending host, both keyed by flow name.

    ``algorithm`` is a registry name; "single" uses one random shortest
    path per pair (the paper's ECMP mimic).  For BCube pass the built
    ``bcube`` so its k+1 parallel paths are used instead of random graph
    paths.  Flows start staggered over ``stagger`` seconds to avoid a
    synchronized slow-start stampede.
    """
    flows: Dict[str, Flow] = {}
    flow_sources: Dict[str, str] = {}
    for i, (src, dst) in enumerate(pairs):
        node_paths = _paths_for(net, sim, src, dst, algorithm, path_count, bcube)
        routes = [net.route(p) for p in node_paths]
        controller_name = "reno" if algorithm == "single" else algorithm
        controller_kwargs = {}
        if controller_name in ("mptcp", "lia"):
            # The authors' implementation recomputes the increase parameter
            # once per window; with 8 subflows per flow this is also the
            # sensible large-fabric choice.
            controller_kwargs["recompute"] = "per_window"
        controller = make_controller(controller_name, **controller_kwargs)
        name = f"{src}->{dst}#{i}"
        if len(routes) == 1:
            flow: Flow = TcpFlow(sim, routes[0], controller, name=name)
        else:
            flow = MptcpFlow(sim, routes, controller, name=name)
        start_at = (i / max(1, len(pairs))) * stagger
        flow.start(at=start_at)
        flows[name] = flow
        flow_sources[name] = src
    return flows, flow_sources


def measure_matrix(
    sim: Simulation,
    net: Network,
    flows: Dict[str, Flow],
    flow_sources: Dict[str, str],
    warmup: float,
    duration: float,
    host_link_rate: float,
) -> DataCenterRun:
    """Run started flows through warm-up, then measure goodput and link
    loss over ``duration`` seconds."""
    sim.run_until(warmup)
    base = {name: f.packets_delivered for name, f in flows.items()}
    net.reset_counters()
    sim.run_until(warmup + duration)

    flow_rates = {
        name: (f.packets_delivered - base[name]) / duration
        for name, f in flows.items()
    }
    link_loss = {
        link.name: link.queue.loss_rate
        for link in net.all_links()
        if link.queue.arrivals > 0
    }
    return DataCenterRun(
        flow_rates=flow_rates,
        flow_sources=flow_sources,
        link_loss=link_loss,
        host_link_rate=host_link_rate,
        max_subflows=max(
            len(f.subflows) if isinstance(f, MptcpFlow) else 1
            for f in flows.values()
        ),
    )


def run_matrix(
    sim: Simulation,
    net: Network,
    pairs: Sequence[Tuple[str, str]],
    algorithm: str,
    path_count: int = 8,
    warmup: float = 2.0,
    duration: float = 5.0,
    host_link_rate: float = 8333.0,
    bcube=None,
    stagger: float = 0.2,
) -> DataCenterRun:
    """Run one traffic matrix and measure goodput + link loss:
    :func:`start_matrix` then :func:`measure_matrix`."""
    flows, flow_sources = start_matrix(
        sim, net, pairs, algorithm, path_count, bcube, stagger
    )
    return measure_matrix(
        sim, net, flows, flow_sources, warmup, duration, host_link_rate
    )
