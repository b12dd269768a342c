"""Network-wide fluid equilibrium: algorithms + capacities -> rates.

Solves for per-link loss rates p_l >= 0 and per-flow windows such that

* every flow's windows are at their law's equilibrium given its paths'
  loss rates (path loss ≈ sum of link losses, small-p regime), and
* every link's arrival rate does not exceed capacity, with p_l > 0 only on
  saturated links (complementary slackness).

This is the standard congestion-pricing fixed point behind the theory the
paper builds on (Kelly & Voice / Han et al.), solved as a primal–dual
iteration over the law table of :mod:`repro.fluid.dynamics`: each flow
resolves its law once, and each iteration advances every flow's windows
by one guarded :func:`~repro.fluid.dynamics.step_windows` step at its
current path losses, then nudges each link's price towards its
capacity.  Rates are averaged over the last ``TAIL_FRACTION`` of the
iterations, as :func:`~repro.fluid.dynamics.equilibrium_windows`
averages a trajectory, so every ``FLUID_ALGORITHMS`` name — OLIA, BALIA
and wVegas included — has a network equilibrium.  It reproduces §2's
worked examples — Fig 2 (COUPLED finds the one-hop paths) and Fig 3
(COUPLED equalises at 10 Mb/s where EWTCP gives 11/11/8) — independently
of the packet simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .dynamics import TAIL_FRACTION, _window_stepper

__all__ = ["FluidFlow", "FluidNetwork", "solve_equilibrium"]

#: Simulated seconds each iteration advances every flow's windows.
PRIMAL_DT = 0.05


@dataclass
class FluidFlow:
    """One flow: the links used by each of its paths, RTTs and algorithm."""

    name: str
    paths: List[List[str]]          # each path = list of link names
    algorithm: str = "mptcp"        # any FLUID_ALGORITHMS name
    rtts: Sequence[float] = None    # per-path RTT; default 0.1 s everywhere
    a: float = None                 # EWTCP/SEMICOUPLED aggressiveness

    def __post_init__(self):
        if not self.paths:
            raise ValueError(f"flow {self.name!r} needs at least one path")
        if self.rtts is None:
            self.rtts = [0.1] * len(self.paths)
        if len(self.rtts) != len(self.paths):
            raise ValueError("need one RTT per path")
        for rtt in self.rtts:
            if not rtt > 0.0:
                raise ValueError(
                    f"flow {self.name!r}: rtts must be positive, "
                    f"got {list(self.rtts)!r}")


@dataclass
class FluidNetwork:
    """Link capacities (pkt/s or any consistent rate unit) and flows."""

    capacities: Dict[str, float]
    flows: List[FluidFlow] = field(default_factory=list)

    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        for path in flow.paths:
            for link in path:
                if link not in self.capacities:
                    raise KeyError(f"flow {flow.name!r} uses unknown link {link!r}")
        self.flows.append(flow)
        return flow


def solve_equilibrium(
    network: FluidNetwork,
    iterations: int = 4000,
    step: float = 0.1,
    p_floor: float = 1e-7,
    p_ceiling: float = 0.5,
) -> dict:
    """Primal–dual iteration on flow windows and link loss rates.

    Returns a dict with per-link losses, per-flow path rates and totals.
    Windows start at two packets with the one-packet floor, as in
    :func:`~repro.fluid.dynamics.integrate_windows`, and each iteration
    steps them ``PRIMAL_DT`` along their law; rates are windows/RTT, and
    the dual update nudges each link's loss rate up when oversubscribed
    and down when idle capacity remains.  Rates and arrivals are the
    mean over the last ``TAIL_FRACTION`` of the iterations; losses are
    the final prices.

    Capacities should be in pkt/s-like magnitudes (hundreds to tens of
    thousands): the balance formulas assume the small-loss regime, which
    requires equilibrium windows well above one packet.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations!r}")
    flows = network.flows
    losses = {link: 1e-3 for link in network.capacities}
    windows = [[2.0] * len(flow.paths) for flow in flows]
    steppers = [_window_stepper(flow.algorithm, len(flow.paths))
                for flow in flows]
    tail = max(1, round(iterations * TAIL_FRACTION))
    rate_sums = [[0.0] * len(flow.paths) for flow in flows]
    arrival_sums = dict.fromkeys(network.capacities, 0.0)

    for iteration in range(iterations):
        in_tail = iteration >= iterations - tail
        arrivals = dict.fromkeys(network.capacities, 0.0)
        for index, flow in enumerate(flows):
            path_losses = [
                min(p_ceiling, max(p_floor, sum(losses[l] for l in path)))
                for path in flow.paths
            ]
            windows[index] = steppers[index](
                windows[index], path_losses, flow.rtts, PRIMAL_DT,
                floor=1.0, a=flow.a,
            )
            for r, (path, w, rtt) in enumerate(
                    zip(flow.paths, windows[index], flow.rtts)):
                rate = w / rtt
                for link in path:
                    arrivals[link] += rate
                if in_tail:
                    rate_sums[index][r] += rate
        if in_tail:
            for link, arrival in arrivals.items():
                arrival_sums[link] += arrival
        # Multiplicative dual update on log-utilisation, clipped so one
        # iteration can never overshoot wildly, and annealed to converge.
        gamma = step / (1.0 + 3.0 * iteration / iterations)
        for link, capacity in network.capacities.items():
            utilisation = max(1e-12, arrivals[link] / capacity)
            error = min(2.0, max(-2.0, math.log(utilisation)))
            losses[link] *= math.exp(gamma * error)
            losses[link] = min(p_ceiling, max(p_floor, losses[link]))

    flow_rates = {
        flow.name: [total / tail for total in sums]
        for flow, sums in zip(flows, rate_sums)
    }
    return {
        "losses": losses,
        "flow_path_rates": flow_rates,
        "flow_totals": {name: sum(rates) for name, rates in flow_rates.items()},
        "link_arrivals": {
            link: total / tail for link, total in arrival_sums.items()
        },
    }
