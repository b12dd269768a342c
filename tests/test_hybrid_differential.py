"""Differential validation of the hybrid tier.

A flow class of size 1 is the fluid limit of a single packet-level flow,
so every controller in the registry is run both ways on the standard
fixed-loss routes and the two paper topologies used elsewhere in the
suite (the Fig. 8 torus and the Fig. 16-style two-link scenario), and
the two tiers must agree within documented tolerances.

Tolerances (probed empirically, see docs/HYBRID.md): the stochastic
packet sawtooth discounts the deterministic fluid equilibrium by a
roughly constant factor — packet/hybrid total ratios land at 0.75–0.85
on the fixed-loss routes and 0.94–1.04 on the congestion-loss
topologies — while the per-path *split* agrees much more tightly
(within 0.02 absolute for every algorithm whose fluid split is not
winner-take-all).  The test bands below are those observations with
roughly 2x headroom on each side.
"""

import pytest

from repro.core.registry import ALGORITHMS
from repro.harness.experiment import make_flow, measure
from repro.hybrid import HybridSimulation
from repro.sim.simulation import Simulation
from repro.topology.scenarios import build_torus, build_two_links

from conftest import lossy_route

pytestmark = pytest.mark.hybrid

#: Two fixed-loss paths, same RTT — the §2 comparison environment
#: (mirrors tests/test_differential_fluid.py).
LOSSES = (0.005, 0.02)
RTT = 0.1

#: cubic has no fluid model: the hybrid tier refuses it explicitly.
NO_FLUID_MODEL = {"cubic"}

#: Single-path algorithms, compared on one fixed-loss route.
SINGLE_PATH = {"reno", "single"}


def _hybrid_rates(algo, seed=12):
    """Per-path delivered rates of a class-size-1 hybrid run."""
    sim = HybridSimulation(seed=seed, dt=0.01)
    if algo in SINGLE_PATH:
        routes = [lossy_route(sim, LOSSES[0], rtt=RTT, name="a")]
    else:
        routes = [
            lossy_route(sim, LOSSES[0], rtt=RTT, name="a"),
            lossy_route(sim, LOSSES[1], rtt=RTT, name="b"),
        ]
    fc = sim.add_class(routes, algo, count=1, name="m")
    sim.run_until(25.0)
    base = list(fc.path_delivered)
    sim.run_until(175.0)
    return [(d - b) / 150.0 for d, b in zip(fc.path_delivered, base)]


def _packet_rates(algo, seed=12):
    """Per-path rates of the same flow, simulated packet by packet."""
    sim = Simulation(seed=seed)
    if algo in SINGLE_PATH:
        route = lossy_route(sim, LOSSES[0], rtt=RTT, name="a")
        flow = make_flow(sim, [route], algo, name="f")
        flow.start()
        m = measure(sim, {"f": flow}, warmup=25.0, duration=150.0)
        return [m["f"]]
    routes = [
        lossy_route(sim, LOSSES[0], rtt=RTT, name="a"),
        lossy_route(sim, LOSSES[1], rtt=RTT, name="b"),
    ]
    flow = make_flow(sim, routes, algo, name="m")
    flow.start()
    m = measure(sim, {"m": flow}, warmup=25.0, duration=150.0)
    return m.subflow_rates["m"]


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_class_size_one_matches_packet_run(algo):
    """Class-size-1 hybrid vs pure packet, full registry."""
    if algo in NO_FLUID_MODEL:
        sim = HybridSimulation(seed=12)
        route = lossy_route(sim, LOSSES[0], rtt=RTT, name="a")
        with pytest.raises(ValueError, match="no fluid model"):
            sim.add_class([route], algo, count=1)
        return

    hybrid = _hybrid_rates(algo)
    packet = _packet_rates(algo)

    if algo in SINGLE_PATH:
        # Probed ratio 0.75–0.85 (sawtooth discount); 2x headroom.
        assert 0.45 * hybrid[0] < packet[0] < 1.15 * hybrid[0], (
            f"{algo}: packet {packet[0]:.0f} pkt/s vs hybrid "
            f"{hybrid[0]:.0f} pkt/s"
        )
        return

    hybrid_total = sum(hybrid)
    packet_total = sum(packet)
    assert 0.55 * hybrid_total < packet_total < 1.10 * hybrid_total, (
        f"{algo}: packet total {packet_total:.0f} pkt/s vs hybrid total "
        f"{hybrid_total:.0f} pkt/s"
    )

    hybrid_share = hybrid[0] / hybrid_total
    packet_share = packet[0] / packet_total
    # COUPLED and OLIA have winner-take-all fluid splits the stochastic
    # packet run only approaches (probed gap up to 0.13); every other
    # algorithm agreed within 0.02.
    tol = 0.20 if algo in ("coupled", "olia") else 0.12
    assert packet_share == pytest.approx(hybrid_share, abs=tol), (
        f"{algo}: low-loss-path share packet {packet_share:.2f} vs "
        f"hybrid {hybrid_share:.2f}"
    )


def _torus_totals(cls, algo, cap_c, **sim_kwargs):
    """Total delivered rate of 5 flows on the Fig. 8 torus."""
    sim = cls(seed=9, **sim_kwargs)
    rates = [1000.0] * 5
    rates[2] = cap_c
    sc = build_torus(sim, rates, delay=0.05)
    flows = {}
    for i in range(5):
        if cls is HybridSimulation:
            flows[f"f{i}"] = sim.add_class(
                sc.routes(f"f{i}"), algo, count=1, name=f"f{i}"
            )
        else:
            f = make_flow(sim, sc.routes(f"f{i}"), algo, name=f"f{i}")
            f.start(at=0.1 * i)
            flows[f"f{i}"] = f
    return measure(sim, flows, warmup=15.0, duration=30.0).total()


@pytest.mark.parametrize("algo", ["ewtcp", "lia", "coupled"])
@pytest.mark.parametrize("cap_c", [1000.0, 250.0])
def test_fig8_torus_hybrid_matches_packet(algo, cap_c):
    """Fig. 8 torus, link C at full and quarter capacity: hybrid and
    packet totals agreed within 6% when probed (ratios 0.94–1.02); the
    band allows 40%."""
    hybrid = _torus_totals(HybridSimulation, algo, cap_c, dt=0.01)
    packet = _torus_totals(Simulation, algo, cap_c)
    assert 0.60 * hybrid < packet < 1.40 * hybrid, (
        f"{algo}/capC={cap_c}: packet total {packet:.0f} pkt/s vs "
        f"hybrid total {hybrid:.0f} pkt/s"
    )


def _two_links_rates(cls, **sim_kwargs):
    """Fig. 16-style mix: two single-path flows plus one LIA flow."""
    sim = cls(seed=141, **sim_kwargs)
    sc = build_two_links(
        sim, rate1_pps=400.0, rate2_pps=800.0,
        delay1=0.050, delay2=0.025,
        buffer1_pkts=40, buffer2_pkts=40,
    )
    if cls is HybridSimulation:
        flows = {
            "S1": sim.add_class(sc.routes("link1"), "reno", count=1,
                                name="S1"),
            "S2": sim.add_class(sc.routes("link2"), "reno", count=1,
                                name="S2"),
            "M": sim.add_class(sc.routes("multi"), "lia", count=1,
                               name="M"),
        }
    else:
        flows = {
            "S1": make_flow(sim, sc.routes("link1"), "reno", name="S1"),
            "S2": make_flow(sim, sc.routes("link2"), "reno", name="S2"),
            "M": make_flow(sim, sc.routes("multi"), "lia", name="M"),
        }
        for i, f in enumerate(flows.values()):
            f.start(at=0.2 * i)
    return measure(sim, flows, warmup=20.0, duration=40.0)


def test_fig16_two_links_hybrid_matches_packet():
    """Per-flow agreement on the competing single/multipath mix (probed
    ratios 0.95–1.04; the band allows 2x either way)."""
    hybrid = _two_links_rates(HybridSimulation, dt=0.01)
    packet = _two_links_rates(Simulation)
    for name in ("S1", "S2", "M"):
        assert 0.50 * hybrid[name] < packet[name] < 1.50 * hybrid[name], (
            f"{name}: packet {packet[name]:.0f} pkt/s vs hybrid "
            f"{hybrid[name]:.0f} pkt/s"
        )


def test_registry_is_fully_covered():
    """Every registered algorithm is either differentially validated
    against the hybrid tier or an explicit, justified exemption."""
    from repro.fluid.dynamics import FLUID_ALGORITHMS

    # Equality, not inclusion: a law-table row for a name the registry
    # does not have fails as well as a registered name with neither a
    # row nor an exemption.
    assert FLUID_ALGORITHMS == set(ALGORITHMS) - NO_FLUID_MODEL
