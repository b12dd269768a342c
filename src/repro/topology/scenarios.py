"""The small illustrative scenarios of §2–§3 (Figs 1, 2, 3, 4, 5, 7, 9, 14).

Each network builder returns a :class:`Scenario` holding the network and
the routes each flow may use; point functions and tests attach flows to the
routes.  :func:`build_fixed_loss_route` builds one congestion-free route of
known loss rate, the controlled environment of Fig 4 and the equilibrium
formulae.
Link rates are in packets/second (use :func:`repro.net.mbps_to_pps` for
Mb/s figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..net.network import Network, mbps_to_pps
from ..net.pipe import Pipe
from ..net.queue import DropTailQueue
from ..net.route import Route
from ..sim.simulation import Simulation

__all__ = [
    "SWEEP_GRIDS",
    "Scenario",
    "build_shared_bottleneck",
    "build_two_links",
    "build_triangle",
    "build_chain",
    "build_torus",
    "build_fixed_loss_route",
]


@dataclass
class Scenario:
    """A built topology: the network plus named route sets.

    ``flow_routes`` maps a flow name to the list of routes available to it
    (length 1 for single-path flows).
    """

    sim: Simulation
    net: Network
    flow_routes: Dict[str, List[Route]] = field(default_factory=dict)

    def routes(self, flow: str) -> List[Route]:
        return self.flow_routes[flow]


#: Named parameter grids for the paper's sweep-shaped figures, declared as
#: pure data next to the topologies they exercise.  ``scenario`` names a
#: point function in :data:`repro.exp.grids.SCENARIOS`; ``parameters`` is
#: expanded by :func:`repro.exp.spec.grid_points` (cartesian product,
#: enumeration order = grid order).  Run one with
#: ``python -m repro sweep <name>`` or
#: :func:`repro.exp.grids.specs_for_grid`.  The first grid naming a
#: scenario also supplies ``python -m repro point <scenario>``'s defaults
#: (its seed, windows and first point).
SWEEP_GRIDS = {
    "fig8_torus": {
        "scenario": "torus_balance",
        "parameters": {
            "algo": ["ewtcp", "mptcp", "coupled"],
            "capacity_c": [1000.0, 500.0, 250.0, 100.0],
        },
        "seed": 9,
        "warmup": 25.0,
        "duration": 60.0,
        "title": "Fig 8: torus loss-rate balance vs capacity of link C",
    },
    "fig16_rtt": {
        "scenario": "rtt_ratio",
        "parameters": {
            "c2": [400.0, 800.0, 1600.0, 3200.0],
            "rtt2": [0.012, 0.050, 0.200, 0.800],
        },
        "seed": 141,
        "warmup": 25.0,
        "duration": 70.0,
        "title": "Fig 16: M's throughput / best(S1, S2) on a C2/RTT2 grid",
    },
    "fig8_torus_zoo": {
        "scenario": "torus_balance",
        "parameters": {
            "algo": [
                "uncoupled", "ewtcp", "coupled", "semicoupled", "lia",
                "cubic", "olia", "balia", "wvegas",
            ],
            "capacity_c": [1000.0, 250.0],
            "check": [1],
        },
        "seed": 29,
        "warmup": 10.0,
        "duration": 25.0,
        "title": "Fig 8 zoo: torus loss-rate balance across all nine "
                 "controllers (invariant-checked)",
    },
    "fig16_rtt_zoo": {
        "scenario": "rtt_ratio",
        "parameters": {
            "algo": [
                "uncoupled", "ewtcp", "coupled", "semicoupled", "lia",
                "cubic", "olia", "balia", "wvegas",
            ],
            "c2": [400.0, 1600.0],
            "rtt2": [0.050, 0.200],
            "check": [1],
        },
        "seed": 151,
        "warmup": 15.0,
        "duration": 40.0,
        "title": "Fig 16 zoo: RTT compensation across all nine controllers "
                 "(invariant-checked)",
    },
    "demo_rtt": {
        "scenario": "rtt_ratio",
        "parameters": {
            "c2": [400.0, 800.0],
            "rtt2": [0.012, 0.050, 0.100, 0.200],
        },
        "seed": 7,
        "warmup": 2.0,
        "duration": 4.0,
        "title": "Demo: 8-point RTT-compensation grid (seconds, not minutes)",
    },
    "fig8_torus_hybrid": {
        "scenario": "torus_hybrid",
        "parameters": {
            "algo": ["ewtcp", "lia", "coupled"],
            "classes": [5],
            "flows_per_class": [40],
            "tracers": [2],
            "capacity_c_factor": [1.0, 0.25],
            "check": [1],
        },
        "seed": 31,
        "warmup": 10.0,
        "duration": 20.0,
        "title": "Fig 8 hybrid: 200 aggregate flows per point on the torus, "
                 "with packet tracers (invariant-checked)",
    },
    "fig8_torus_hybrid_1m": {
        "scenario": "torus_hybrid",
        "parameters": {
            "algo": ["lia"],
            "classes": [1000],
            "flows_per_class": [1000],
            "tracers": [10],
            "capacity_c_factor": [0.5],
            "dt": [0.02],
            "check": [1],
        },
        "seed": 61,
        "warmup": 4.0,
        "duration": 8.0,
        "title": "Fig 8 hybrid at scale: 10^6 aggregate flows "
                 "(1000 classes x 1000 flows) + 10 packet tracers on one "
                 "machine (invariant-checked)",
    },
    "wifi_3g_handover": {
        "scenario": "wifi_3g_handover",
        "parameters": {
            "algo": ["lia", "mptcp"],
            "mode": ["break_before_make", "make_before_break"],
        },
        "seed": 17,
        "warmup": 6.0,
        "duration": 18.0,
        "title": "§5 mobility: WiFi→3G handover under a scripted outage",
    },
    "subflow_churn": {
        "scenario": "subflow_churn",
        "parameters": {
            "algo": ["lia"],
            "policy": ["full_mesh", "backup", "ndiffports"],
            "churn_period": [3.0, 6.0],
        },
        "seed": 23,
        "warmup": 4.0,
        "duration": 16.0,
        "title": "Subflow churn: one path repeatedly dying and recovering",
    },
    "rt_loopback": {
        "scenario": "rt_loopback",
        "parameters": {
            "algo": ["lia"],
            "tier": ["rt", "packet"],
            "netem": ["lan", "lossy_lan"],
            "check": [1],
        },
        "seed": 5,
        "warmup": 0.5,
        "duration": 2.0,
        "title": "Implementation vs simulation: one two-subflow transfer "
                 "on the rt tier (loopback UDP, wall-clock seconds) and "
                 "the packet tier (tier/netem key the result cache — "
                 "docs/REALNET.md)",
    },
    # The paper's figures and tables (with fig8_torus and fig16_rtt
    # above): point functions are in repro.exp.paper, the claims checked
    # on these rows in repro.exp.claims; `repro sweep paper` runs them.
    "paper_fig1": {
        "scenario": "shared_bottleneck",
        "parameters": {"algo": ["uncoupled", "ewtcp", "mptcp", "coupled"]},
        "seed": 11,
        "warmup": 25.0,
        "duration": 90.0,
        "title": "Fig 1: multipath vs single-path share at one bottleneck",
    },
    "paper_fig2": {
        "scenario": "triangle",
        "parameters": {"algo": ["ewtcp", "coupled", "mptcp"]},
        "seed": 21,
        "warmup": 25.0,
        "duration": 80.0,
        "title": "Fig 2: triangle, per-flow throughput (optimal = 12 Mb/s)",
    },
    "paper_fig3": {
        "scenario": "chain",
        "parameters": {"algo": ["ewtcp", "coupled", "mptcp"]},
        "seed": 31,
        "warmup": 25.0,
        "duration": 80.0,
        "title": "Fig 3: chain (links 5/12/10/3 Mb/s), per-flow totals",
    },
    "paper_fig4": {
        "scenario": "fixed_loss_paths",
        "parameters": {
            "flow": ["tcp0", "tcp1", "ewtcp", "coupled", "mptcp"],
            # The paper's 4 % / 1 % at 25x smaller loss (same ratio), out
            # of the timeout regime the balance formulas ignore.
            "losses": [[0.0016, 0.0004]],
            "rtts": [[0.010, 0.100]],
        },
        "seed": 41,
        "warmup": 30.0,
        "duration": 120.0,
        "title": "Fig 4: WiFi (10 ms, path 0) + 3G (100 ms, path 1) at "
                 "fixed loss, 4:1",
    },
    "paper_semicoupled": {
        "scenario": "fixed_loss_paths",
        "parameters": {
            "flow": ["semicoupled", "ewtcp", "coupled"],
            # The paper's 1 % / 1 % / 5 % at 10x smaller loss.
            "losses": [[0.001, 0.001, 0.005]],
            "rtts": [[0.1, 0.1, 0.1]],
        },
        "seed": 51,
        "warmup": 30.0,
        "duration": 240.0,
        "title": "§2.4: SEMICOUPLED's traffic split at losses 1:1:5",
    },
    "paper_dynamic_cbr": {
        "scenario": "two_links",
        "parameters": {
            "algo": ["ewtcp", "mptcp", "coupled"],
            "rates": [[mbps_to_pps(100), mbps_to_pps(100)]],
            "delays": [[0.005, 0.005]],
            "cross": ["cbr"],
        },
        "seed": 5,
        "warmup": 10.0,
        "duration": 60.0,
        "title": "§3 dynamic load: throughput per link under bursty CBR "
                 "on link 1",
    },
    "paper_fig10": {
        "scenario": "server_lb",
        "parameters": {"algo": ["mptcp"]},
        "seed": 61,
        "warmup": 20.0,
        "duration": 40.0,
        "title": "Fig 10: dual-homed server, 10 multipath flows join "
                 "5 + 15 TCPs",
    },
    "paper_poisson": {
        "scenario": "poisson_churn",
        "parameters": {},
        "seed": 71,
        "warmup": 20.0,
        "duration": 80.0,
        "title": "§3 Poisson churn: MPTCP, COUPLED and EWTCP side by side",
    },
    "paper_fattree": {
        "scenario": "datacenter",
        "parameters": {
            "algo": ["single", "ewtcp", "mptcp"],
            "pattern": ["TP1", "TP2", "TP3"],
        },
        "seed": 81,
        "warmup": 2.0,
        "duration": 2.5,
        "title": "§4 FatTree (k=8, scaled links): per-host throughput, "
                 "% of NIC rate",
    },
    "paper_fig12_paths": {
        "scenario": "datacenter",
        "parameters": {"algo": ["mptcp"], "paths": [1, 2, 4, 8]},
        "seed": 91,
        "warmup": 2.0,
        "duration": 2.5,
        "title": "Fig 12: FatTree TP1 throughput vs paths per flow",
    },
    "paper_fig13": {
        "scenario": "datacenter",
        "parameters": {"algo": ["single", "ewtcp", "mptcp"]},
        "seed": 95,
        "warmup": 2.0,
        "duration": 2.5,
        "title": "Fig 13: FatTree TP1 distributions of flow throughput "
                 "and link loss",
    },
    "paper_bcube": {
        "scenario": "datacenter",
        "parameters": {
            "topology": ["bcube"],
            "algo": ["single", "ewtcp", "mptcp"],
            "pattern": ["TP1", "TP2", "TP3"],
            "paths": [3],
        },
        "seed": 101,
        "warmup": 2.0,
        "duration": 2.5,
        "title": "§4 BCube(5,2) (scaled links): per-host throughput, "
                 "% of one NIC",
    },
    "paper_wireless_static": {
        "scenario": "wireless_client",
        "parameters": {
            "flow": ["tcp_wifi", "tcp_3g", "mptcp"],
            "wifi_loss": [0.003],
        },
        "seed": 111,
        "warmup": 20.0,
        "duration": 60.0,
        "title": "§5 static: idle WiFi (14.4 Mb/s) + 3G (2.1 Mb/s)",
    },
    "paper_fig15": {
        "scenario": "wireless_client",
        "parameters": {
            "flow": ["ewtcp", "coupled", "mptcp"],
            # The paper's five-minute averages have WiFi delivering
            # ~4-5 Mb/s in total (interference-limited).
            "wifi_mbps": [5.0],
            "wifi_loss": [0.015],
            "competing": [1],
        },
        "seed": 121,
        "warmup": 40.0,
        "duration": 150.0,
        "title": "Fig 15: multipath vs one competing TCP per wireless path",
    },
    "paper_rtt_sim": {
        "scenario": "two_links",
        "parameters": {
            "algo": ["mptcp"],
            "rates": [[250.0, 500.0]],
            "delays": [[0.250, 0.025]],   # RTT floors 500 / 50 ms
            "buffers": [[125, 25]],       # one BDP each
            "cross": ["tcp"],
        },
        "seed": 131,
        "warmup": 40.0,
        "duration": 180.0,
        "title": "§5 wired simulation: C = 250/500 pkt/s, RTT = 500/50 ms",
    },
    "paper_fig17": {
        "scenario": "mobile_walk",
        "parameters": {"algo": ["mptcp"]},
        "seed": 151,
        "warmup": 10.0,
        "duration": 50.0,
        "title": "Fig 17: multipath throughput across coverage changes",
    },
    "paper_ablation_sack": {
        "scenario": "two_links",
        "parameters": {
            "algo": ["mptcp"],
            "rates": [[1000.0, 1000.0]],
            "buffers": [[100, 100]],
            "enable_sack": [True, False],
        },
        "seed": 161,
        "warmup": 15.0,
        "duration": 45.0,
        "title": "Ablation: SACK vs NewReno recovery (2 x 1000 pkt/s links)",
    },
    "paper_ablation_recompute": {
        "scenario": "two_links",
        "parameters": {
            "algo": ["mptcp", "lia"],
            "controller_kwargs": [
                {"recompute": "per_ack"}, {"recompute": "per_window"},
            ],
            "rates": [[1000.0, 500.0]],
            "delays": [[0.02, 0.1]],
            "buffers": [[40, 100]],
        },
        "seed": 162,
        "warmup": 15.0,
        "duration": 45.0,
        "title": "Ablation: eq. (1) per ACK vs per window vs RFC 6356's "
                 "cached alpha (lia, per_window)",
    },
    "paper_ablation_ewtcp_weight": {
        "scenario": "shared_bottleneck",
        "parameters": {
            "algo": ["ewtcp"],
            "controller_kwargs": [
                {"a_literal_paper": False}, {"a_literal_paper": True},
            ],
        },
        "seed": 163,
        "warmup": 25.0,
        "duration": 80.0,
        "title": "Ablation: EWTCP weight a = 1/n^2 vs the paper text's "
                 "1/sqrt(n) at a shared bottleneck",
    },
}


def build_shared_bottleneck(
    sim: Simulation,
    rate_pps: float = 1000.0,
    delay: float = 0.05,
    buffer_pkts: int = 100,
    subflows: int = 2,
) -> Scenario:
    """Fig 1: one bottleneck link shared by a single-path TCP and a
    multipath flow whose ``subflows`` paths all cross the same bottleneck.

    The fairness question of §2.1: running regular TCP on each subflow
    would grab ``subflows`` times the single-path flow's share.
    """
    net = Network(sim)
    net.add_link("src", "dst", rate_pps, delay, buffer_pkts)
    single = [net.route(["src", "dst"], name="single")]
    multi = [
        net.route(["src", "dst"], name=f"multi.{i}") for i in range(subflows)
    ]
    return Scenario(sim, net, {"single": single, "multi": multi})


def build_two_links(
    sim: Simulation,
    rate1_pps: float,
    rate2_pps: float,
    delay1: float = 0.005,
    delay2: float = 0.005,
    buffer1_pkts: int = 50,
    buffer2_pkts: int = 50,
) -> Scenario:
    """Figs 5/9/14: two parallel bottleneck links.

    Single-path flows use ``link1``/``link2``; a multipath flow uses both.
    This is the shape of the dynamic-load scenario (§2.4/§3), the server
    load-balancing testbed (Fig 10) and the wireless-client topology
    (Fig 14).
    """
    net = Network(sim)
    net.add_link("s1", "d1", rate1_pps, delay1, buffer1_pkts)
    net.add_link("s2", "d2", rate2_pps, delay2, buffer2_pkts)
    return Scenario(
        sim,
        net,
        {
            "link1": [net.route(["s1", "d1"], name="link1")],
            "link2": [net.route(["s2", "d2"], name="link2")],
            "multi": [
                net.route(["s1", "d1"], name="multi.1"),
                net.route(["s2", "d2"], name="multi.2"),
            ],
        },
    )


def build_triangle(
    sim: Simulation,
    rate_pps: float = 1000.0,
    delay: float = 0.05,
    buffer_pkts: int = 100,
) -> Scenario:
    """Fig 2: three equal links in a ring; flow i has a one-hop path over
    link i and a two-hop path over links i+1, i+2.

    With an even split every link carries three subflows (one one-hop, two
    two-hop) so each subflow gets C/3 and each flow 2C/3; using only the
    one-hop paths each flow gets the full C.  An efficient multipath
    algorithm must concentrate on the one-hop (less congested) paths.
    """
    net = Network(sim)
    for i in range(3):
        net.add_link(f"in{i}", f"out{i}", rate_pps, delay, buffer_pkts)
        # Wire link exits to the next link's entry so two-hop paths exist.
        net.add_link(f"out{i}", f"in{(i + 1) % 3}", rate_pps * 100, 0.0, 10**6)
    flow_routes = {}
    for i in range(3):
        short = net.route([f"in{i}", f"out{i}"], name=f"f{i}.short")
        j, k = (i + 1) % 3, (i + 2) % 3
        long = net.route(
            [f"in{j}", f"out{j}", f"in{k}", f"out{k}"], name=f"f{i}.long"
        )
        flow_routes[f"f{i}"] = [short, long]
    return Scenario(sim, net, flow_routes)


def build_chain(
    sim: Simulation,
    rates_pps: List[float],
    delay: float = 0.05,
    buffer_pkts: int = 100,
) -> Scenario:
    """Fig 3: a chain of links where consecutive flows share a link.

    ``rates_pps`` gives the capacities of the n links; there are n-1 flows,
    flow i using single-hop paths over links i and i+1.  The paper's
    instance has capacities 5/12/10/3 Mb/s: EWTCP yields totals (11, 11, 8)
    Mb/s whereas COUPLED equalises everything at 10 Mb/s.
    """
    if len(rates_pps) < 2:
        raise ValueError("chain needs at least two links")
    net = Network(sim)
    for i, rate in enumerate(rates_pps):
        net.add_link(f"in{i}", f"out{i}", rate, delay, buffer_pkts)
    flow_routes = {}
    for i in range(len(rates_pps) - 1):
        flow_routes[f"f{i}"] = [
            net.route([f"in{i}", f"out{i}"], name=f"f{i}.a"),
            net.route([f"in{i + 1}", f"out{i + 1}"], name=f"f{i}.b"),
        ]
    return Scenario(sim, net, flow_routes)


def build_torus(
    sim: Simulation,
    rates_pps: List[float],
    delay: float = 0.05,
    buffer_pkts: int = None,
) -> Scenario:
    """Fig 7: n bottleneck links in a ring ("torus"); flow i's two paths
    cross links i and (i+1) mod n, so each link serves two multipath flows.

    The paper uses five links with 100 ms RTT and one bandwidth-delay
    product of buffering; link C's capacity is varied to test how well
    congestion is balanced (Fig 8).  ``buffer_pkts=None`` sizes each buffer
    at one BDP of its own link.
    """
    n = len(rates_pps)
    if n < 3:
        raise ValueError("torus needs at least three links")
    net = Network(sim)
    for i, rate in enumerate(rates_pps):
        buf = buffer_pkts
        if buf is None:
            buf = max(2, int(rate * 2 * delay))  # one BDP of this link
        net.add_link(f"in{i}", f"out{i}", rate, delay, buf)
    flow_routes = {}
    for i in range(n):
        j = (i + 1) % n
        flow_routes[f"f{i}"] = [
            net.route([f"in{i}", f"out{i}"], name=f"f{i}.a"),
            net.route([f"in{j}", f"out{j}"], name=f"f{i}.b"),
        ]
    return Scenario(sim, net, flow_routes)


def build_fixed_loss_route(
    sim: Simulation, loss_prob: float, rtt: float = 0.1, name: str = "lossy"
) -> Route:
    """A route with a fixed random loss rate and no congestion drops —
    the controlled environment for validating equilibrium formulas.

    The service rate (2·10⁴ pkt/s) is high enough never to bottleneck the
    equilibria under test (a few thousand pkt/s at most) but finite, so a
    loss-free flow in unbounded slow start cannot blow the event count up
    exponentially."""
    queue = DropTailQueue(
        sim, rate_pps=2e4, capacity=10**6, name=f"{name}.q", jitter=0.0
    )
    pipe = Pipe(sim, delay=rtt / 2.0, name=f"{name}.p", loss_prob=loss_prob)
    return Route(sim, [queue, pipe], reverse_delay=rtt / 2.0, name=name)
