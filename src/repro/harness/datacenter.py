"""Data-center traffic matrices (§4) over FatTree/BCube.

For a list of (src, dst) host pairs :func:`start_matrix` attaches one
flow per pair — single-path over a random ECMP shortest path, or
multipath over a sampled path set.  The harness's one window,
``measure(sim, flows, warmup, duration, links=net.all_links())``, then
reports per-flow goodput and per-link loss, the quantities behind the
§4 tables and Figs 12–13 (the ``datacenter`` point function of
:mod:`repro.exp.paper` reduces them to its row).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..net.network import Network
from ..sim.simulation import Simulation
from .experiment import Flow, make_flow

__all__ = ["start_matrix"]


def _paths_for(
    net: Network, src: str, dst: str, algorithm: str, path_count: int, bcube
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
        routes = [net.route(p) for p in
                  _paths_for(net, src, dst, algorithm, path_count, bcube)]
        controller = "reno" if algorithm == "single" else algorithm
        # The authors' implementation recomputes the increase parameter
        # once per window; with 8 subflows per flow this is also the
        # sensible large-fabric choice.
        kwargs = ({"recompute": "per_window"}
                  if controller in ("mptcp", "lia") else None)
        name = f"{src}->{dst}#{i}"
        flow = make_flow(sim, routes, controller, name=name,
                         controller_kwargs=kwargs)
        flow.start(at=(i / max(1, len(pairs))) * stagger)
        flows[name] = flow
        flow_sources[name] = src
    return flows, flow_sources

