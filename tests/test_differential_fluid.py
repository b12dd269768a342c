"""Differential testing: every packet-level controller in the registry is
compared against its fluid-model equilibrium on the standard fixed-loss
routes.  One parametrized test covers the whole registry, so a new
controller cannot be added without either a fluid prediction or an
explicit exemption here."""

import math

import pytest

from repro.core.registry import ALGORITHMS, make_controller
from repro.fluid import equilibrium_windows, tcp_rate
from repro.fluid.dynamics import FLUID_ALGORITHMS
from repro.harness.experiment import measure
from repro.mptcp.connection import MptcpFlow
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow
from repro.topology.scenarios import build_fixed_loss_route

#: Two fixed-loss paths, same RTT — the §2 comparison environment.
LOSSES = (0.005, 0.02)
RTT = 0.1

#: Controllers with no fluid law to integrate (CUBIC's window law is
#: outside the paper's fluid analysis).
NO_FLUID_MODEL = {"cubic"}

#: Single-path algorithms, checked against sqrt(2/p)/RTT directly.
SINGLE_PATH = {"reno", "single"}


def _run(algo, seed):
    sim = Simulation(seed=seed)
    if algo in SINGLE_PATH:
        route = build_fixed_loss_route(sim, LOSSES[0], rtt=RTT, name="a")
        flow = TcpFlow(sim, route, make_controller(algo), name="f")
        flow.start()
        m = measure(sim, {"f": flow}, warmup=20.0, duration=120.0)
        return [m["f"]]
    routes = [
        build_fixed_loss_route(sim, LOSSES[0], rtt=RTT, name="a"),
        build_fixed_loss_route(sim, LOSSES[1], rtt=RTT, name="b"),
    ]
    flow = MptcpFlow(sim, routes, make_controller(algo), name="m")
    flow.start()
    m = measure(sim, {"m": flow}, warmup=25.0, duration=150.0)
    return m.subflow_rates["m"]


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_controller_matches_fluid_equilibrium(algo):
    """Throughput (total and per-path split) of the packet simulation must
    sit within tolerance of the fluid prediction.  The stochastic sawtooth
    discounts the deterministic equilibrium by a constant factor, hence
    the wide absolute band; the split is a much sharper check."""
    if algo in NO_FLUID_MODEL:
        pytest.skip(f"{algo} has no fluid-model equilibrium")

    if algo in SINGLE_PATH:
        (rate,) = _run(algo, seed=8)
        predicted = tcp_rate(LOSSES[0], RTT)
        assert 0.45 * predicted < rate < 1.15 * predicted
        return

    rates = _run(algo, seed=12)
    predicted_rates = [
        w / RTT for w in equilibrium_windows(algo, LOSSES, [RTT] * 2)
    ]
    predicted_total = sum(predicted_rates)

    total = sum(rates)
    assert 0.40 * predicted_total < total < 1.20 * predicted_total, (
        f"{algo}: total {total:.0f} pkt/s outside band around fluid "
        f"prediction {predicted_total:.0f} pkt/s"
    )

    share = rates[0] / total
    predicted_share = predicted_rates[0] / predicted_total
    # COUPLED's fluid split is winner-take-all, which the stochastic
    # simulation only approaches; OLIA's equilibrium is the same shape
    # (the lossier path sits at the probe floor); everything else gets
    # the tight band.
    tol = 0.20 if algo in ("coupled", "olia") else 0.12
    assert share == pytest.approx(predicted_share, abs=tol), (
        f"{algo}: low-loss-path share {share:.2f} vs fluid "
        f"{predicted_share:.2f}"
    )


def test_registry_is_fully_covered():
    """Every registered algorithm is either differentially tested or an
    explicit, justified exemption."""
    for algo in sorted(ALGORITHMS):
        if algo in NO_FLUID_MODEL or algo in SINGLE_PATH:
            continue
        assert algo in FLUID_ALGORITHMS, (
            f"no fluid prediction for {algo!r}: give it a law in "
            f"repro.fluid.dynamics or list it in NO_FLUID_MODEL")
