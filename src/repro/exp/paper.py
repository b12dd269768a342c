"""The paper's evaluation as point functions with claims.

Every figure and table of the paper is a ``paper_*`` entry of
:data:`repro.topology.scenarios.SWEEP_GRIDS` (Fig 8 and Fig 16 keep
their older names ``fig8_torus`` / ``fig16_rtt``) over one of the point
functions here, plus a *claims* function registered in :data:`CLAIMS`
under the grid's name: the assertions the paper's argument rests on,
read off the grid's result rows.  ``python -m repro sweep paper`` runs
the whole family through one :class:`~repro.exp.runner.Runner` and cache
and checks every claim; ``tests/golden/equivalence/`` pins each grid at a
reduced scale.

Point functions have the :class:`~repro.check.hooks.CheckContext` shape
of :func:`repro.exp.grids.torus_balance`, so the reserved ``check`` /
``faults`` params work on every one; seed, warm-up and duration come
from the spec.  Rates in rows are packets per second (``pps_to_mbps``
converts to the paper's Mb/s); claims are evaluated only on rows run at
the grid's registered seed and windows.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List, Optional

from ..check.hooks import CheckContext
from ..harness.datacenter import measure_matrix, start_matrix
from ..harness.experiment import jain_index, make_flow, measure
from ..net.network import mbps_to_pps, pps_to_mbps
from ..net.pipe import LossyPipe
from ..net.queue import DropTailQueue
from ..net.route import Route
from ..topology.bcube import BCube
from ..topology.fattree import FatTree
from ..topology.scenarios import (
    build_chain,
    build_shared_bottleneck,
    build_triangle,
    build_two_links,
)
from ..topology.wireless import LinkSchedule, build_3g_path, build_wifi_path
from ..traffic import (
    OnOffCbrSource,
    ParetoSizes,
    PoissonFlowGenerator,
    one_digit_neighbors,
    one_to_many_matrix,
    permutation_matrix,
    sparse_matrix,
)
from .spec import ScenarioSpec

__all__ = ["CLAIMS", "claims", "failed_claim"]

#: Claims functions by grid name; each takes the grid's merged rows (at
#: registered scale) and raises ``AssertionError`` on a claim that fails.
CLAIMS: Dict[str, Callable[[List[dict]], None]] = {}


def claims(grid: str):
    """Register the claims function of the named grid."""
    def register(fn):
        CLAIMS[grid] = fn
        return fn
    return register


def failed_claim(grid: str, rows: List[dict]) -> Optional[str]:
    """Evaluate ``grid``'s claims on ``rows``: ``None`` when they all
    hold, else where the first failing assertion is and its source."""
    try:
        CLAIMS[grid](rows)
    except AssertionError as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return f"{frame.name}:{frame.lineno}: {frame.line}"
    return None


def _by(rows: List[dict], *keys: str) -> dict:
    """Index rows by the value(s) of ``keys``."""
    if len(keys) == 1:
        return {row[keys[0]]: row for row in rows}
    return {tuple(row[k] for k in keys): row for row in rows}


def _close(got, want, rel: float) -> bool:
    """``got`` within ``rel`` of ``want``, element-wise."""
    return all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


# ---------------------------------------------------------------------
# §2.1 Fig 1 and the EWTCP-weight ablation: one shared bottleneck
# ---------------------------------------------------------------------

def shared_bottleneck(spec: ScenarioSpec) -> dict:
    """Fig 1 point: a two-subflow multipath flow against single-path TCPs
    at one bottleneck.

    Params: ``algo``; optional ``competitors`` (default 6), ``rate``
    (pkt/s, 2000) and ``controller_kwargs`` for the multipath
    controller.  Returns the multipath flow's rate over the mean
    single-path rate (``ratio``; 2 = as greedy as two TCPs, 1 = fair)
    and both rates.
    """
    p = spec.params
    algo = p.get("algo", spec.algorithm or "mptcp")
    competitors = int(p.get("competitors", 6))
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = build_shared_bottleneck(
        sim, rate_pps=p.get("rate", 2000), delay=0.05, buffer_pkts=200
    )
    flows = {}
    for i in range(competitors):
        f = make_flow(
            sim, [sc.net.route(["src", "dst"], name=f"s{i}")], "reno",
            name=f"s{i}",
        )
        f.start(at=0.05 * i)
        flows[f"s{i}"] = f
    multi = make_flow(
        sim, sc.routes("multi"), algo, name="multi",
        controller_kwargs=p.get("controller_kwargs"),
    )
    multi.start(at=0.4)
    flows["multi"] = multi
    ctx.arm()
    m = measure(sim, flows, warmup=spec.warmup, duration=spec.duration)
    singles = sum(m[f"s{i}"] for i in range(competitors)) / competitors
    return ctx.finish({
        "ratio": m["multi"] / singles,
        "multi_pps": m["multi"],
        "single_mean_pps": singles,
    })


@claims("paper_fig1")
def fig1_claims(rows: List[dict]) -> None:
    ratios = {algo: row["ratio"] for algo, row in _by(rows, "algo").items()}
    assert 1.5 < ratios["uncoupled"] < 2.7
    assert 0.7 < ratios["mptcp"] < 1.6
    assert 0.7 < ratios["ewtcp"] < 1.6
    assert 0.6 < ratios["coupled"] < 1.5


@claims("paper_ablation_ewtcp_weight")
def ewtcp_weight_claims(rows: List[dict]) -> None:
    ratios = {
        row["controller_kwargs"]["a_literal_paper"]: row["ratio"]
        for row in rows
    }
    # The erratum in action: the literal 1/sqrt(n) weight is substantially
    # more aggressive than fair; 1/n^2 lands near 1.
    assert ratios[True] > ratios[False]
    assert 0.6 < ratios[False] < 1.6


# ---------------------------------------------------------------------
# Two parallel links: ablations, §3 bursty CBR, §5 wired RTT experiment
# ---------------------------------------------------------------------

def two_links(spec: ScenarioSpec) -> dict:
    """A two-path flow over two parallel links, optionally with cross
    traffic.

    Params: ``algo``; the links as pairs — ``rates`` (pkt/s, default
    500 each), ``delays`` (one-way seconds, 0.05) and ``buffers``
    (packets, 50); ``controller_kwargs`` and ``enable_sack`` for the
    multipath flow; ``cross`` — ``"cbr"`` puts the §3 on/off CBR
    burst source (full rate, mean on 10 ms / off 100 ms) on link 1,
    ``"tcp"`` one single-path TCP on each link (the Fig 14/16 shape).
    Returns the flow's total and per-path goodput and both links' loss
    rates, plus the single-path rates under ``cross="tcp"``.
    """
    p = spec.params
    algo = p.get("algo", spec.algorithm or "mptcp")
    cross = p.get("cross")
    if cross not in (None, "cbr", "tcp"):
        raise ValueError(f"cross must be 'cbr' or 'tcp', got {cross!r}")
    rate1, rate2 = p.get("rates", (500.0, 500.0))
    delay1, delay2 = p.get("delays", (0.05, 0.05))
    buffer1, buffer2 = p.get("buffers", (50, 50))
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = build_two_links(
        sim, rate1, rate2, delay1=delay1, delay2=delay2,
        buffer1_pkts=buffer1, buffer2_pkts=buffer2,
    )
    multi = make_flow(
        sim, sc.routes("multi"), algo, name="m",
        controller_kwargs=p.get("controller_kwargs"),
        enable_sack=bool(p.get("enable_sack", True)),
    )
    flows = {"m": multi}
    if cross == "cbr":
        OnOffCbrSource(
            sim, sc.net.route(["s1", "d1"], name="cbr"), rate1,
            mean_on=0.010, mean_off=0.100,
        ).start()
        multi.start()
    elif cross == "tcp":
        flows["S1"] = make_flow(sim, sc.routes("link1"), "reno", name="S1")
        flows["S2"] = make_flow(sim, sc.routes("link2"), "reno", name="S2")
        flows["S1"].start()
        flows["S2"].start(at=0.2)
        multi.start(at=0.4)
    else:
        multi.start()
    ctx.arm()
    sim.run_until(spec.warmup)
    queues = [sc.net.link("s1", "d1").queue, sc.net.link("s2", "d2").queue]
    for q in queues:
        q.reset_counters()
    m = measure(sim, flows, warmup=spec.warmup, duration=spec.duration)
    path1, path2 = m.subflow_rates["m"]
    row = {
        "total_pps": m["m"], "path1_pps": path1, "path2_pps": path2,
        "p1": queues[0].loss_rate, "p2": queues[1].loss_rate,
    }
    if cross == "tcp":
        row["s1_pps"], row["s2_pps"] = m["S1"], m["S2"]
    return ctx.finish(row)


@claims("paper_ablation_sack")
def sack_claims(rows: List[dict]) -> None:
    rates = {sack: row["total_pps"]
             for sack, row in _by(rows, "enable_sack").items()}
    assert rates[True] >= rates[False]


@claims("paper_ablation_recompute")
def recompute_claims(rows: List[dict]) -> None:
    # Per-ACK, per-window and RFC 6356's cached alpha implement the same
    # design: within ~20%.
    values = [row["total_pps"] for row in rows]
    assert min(values) > 0.75 * max(values)


@claims("paper_dynamic_cbr")
def dynamic_cbr_claims(rows: List[dict]) -> None:
    results = {
        algo: (pps_to_mbps(row["path1_pps"]), pps_to_mbps(row["path2_pps"]))
        for algo, row in _by(rows, "algo").items()
    }
    # Bottom link is full for everyone.
    for algo in results:
        assert results[algo][1] > 90.0
    # COUPLED is trapped off the top link; MPTCP and EWTCP recover.
    assert results["mptcp"][0] > 2.0 * results["coupled"][0]
    assert results["ewtcp"][0] > 2.0 * results["coupled"][0]
    # EWTCP and MPTCP are comparable (paper: 85 vs 83).
    ratio = results["mptcp"][0] / results["ewtcp"][0]
    assert 0.5 < ratio < 2.0


@claims("paper_rtt_sim")
def rtt_sim_claims(rows: List[dict]) -> None:
    (out,) = rows
    # The paper's counterintuitive outcome: M is close to S2 (the
    # fast-path TCP), far above the naive 250 pkt/s split...
    assert out["total_pps"] > 0.75 * out["s2_pps"]
    # ...while S1, sharing its slow link with M, lands well below 250.
    assert out["s1_pps"] < 0.75 * 250.0
    # M beats what it would get on the best single path alone.
    assert out["total_pps"] + out["s2_pps"] > 450.0  # link 2 is full


# ---------------------------------------------------------------------
# §2.2 Figs 2 and 3: three two-path flows on the triangle and the chain
# ---------------------------------------------------------------------

def _three_flows(spec: ScenarioSpec, ctx: CheckContext, sc) -> dict:
    """Start flows f0..f2 of ``sc`` 0.1 s apart, measure, return rates."""
    algo = spec.params.get("algo", spec.algorithm or "mptcp")
    flows = {}
    for i in range(3):
        f = make_flow(ctx.sim, sc.routes(f"f{i}"), algo, name=f"f{i}")
        f.start(at=0.1 * i)
        flows[f"f{i}"] = f
    ctx.arm()
    m = measure(ctx.sim, flows, warmup=spec.warmup, duration=spec.duration)
    return ctx.finish({f"f{i}_pps": m[f"f{i}"] for i in range(3)})


def triangle(spec: ScenarioSpec) -> dict:
    """Fig 2 point: three 12 Mb/s links in a ring, each flow with a
    one-hop and a two-hop path.  Params: ``algo``.  Returns each flow's
    goodput."""
    ctx = CheckContext.from_spec(spec)
    sc = build_triangle(ctx.simulation(), rate_pps=mbps_to_pps(12), delay=0.05)
    return _three_flows(spec, ctx, sc)


def chain(spec: ScenarioSpec) -> dict:
    """Fig 3 point: links of 5/12/10/3 Mb/s in a chain, consecutive flows
    sharing one.  Params: ``algo``.  Returns each flow's goodput."""
    ctx = CheckContext.from_spec(spec)
    rates = [mbps_to_pps(c) for c in (5.0, 12.0, 10.0, 3.0)]
    sc = build_chain(ctx.simulation(), rates, delay=0.05)
    return _three_flows(spec, ctx, sc)


def _flow_mbps(rows: List[dict]) -> Dict[str, List[float]]:
    return {
        algo: [pps_to_mbps(row[f"f{i}_pps"]) for i in range(3)]
        for algo, row in _by(rows, "algo").items()
    }


@claims("paper_fig2")
def fig2_claims(rows: List[dict]) -> None:
    # COUPLED concentrates on one-hop paths and clearly beats EWTCP; MPTCP
    # lands in between.  (The fluid fixed points — 8.5 and 12 Mb/s — are
    # tests/test_fluid.py's.)
    packet = {a: sum(v) / 3 for a, v in _flow_mbps(rows).items()}
    assert packet["coupled"] > packet["mptcp"] > packet["ewtcp"] * 0.99


@claims("paper_fig3")
def fig3_claims(rows: List[dict]) -> None:
    packet = _flow_mbps(rows)
    # EWTCP's static split reproduces the paper's numbers almost exactly
    # (its equilibrium is unique and stable).
    assert _close(packet["ewtcp"], [11.0, 11.0, 8.0], rel=0.15)
    # COUPLED's packet-level split is *not* asserted against (10,10,10):
    # with equal losses its per-flow split is indeterminate (§2.2) and at
    # finite windows it wanders / traps (§2.4) — the fluid fixed point
    # (tests/test_fluid.py) carries the paper's claim; the packet run
    # records what a real window-based COUPLED does with it.
    assert sum(packet["coupled"]) > 20.0  # links still busy


# ---------------------------------------------------------------------
# §2.3 Fig 4 and §2.4's SEMICOUPLED split: fixed-loss paths
# ---------------------------------------------------------------------

def _lossy_route(sim, loss_prob: float, rtt: float, name: str) -> Route:
    """A fixed-loss, congestion-free route (validates balance formulas);
    the service rate is finite so a loss-free flow cannot grow without
    bound."""
    queue = DropTailQueue(
        sim, rate_pps=2e4, capacity=10**6, name=f"{name}.q", jitter=0.0
    )
    pipe = LossyPipe(sim, delay=rtt / 2.0, loss_prob=loss_prob,
                     name=f"{name}.p")
    return Route(sim, [queue, pipe], reverse_delay=rtt / 2.0, name=name)


def fixed_loss_paths(spec: ScenarioSpec) -> dict:
    """One flow over paths of fixed loss rate and RTT, no congestion.

    Params: ``losses`` and ``rtts`` (one entry per path; default two
    paths of 0.1 % loss and 100 ms) and ``flow`` — a
    multipath algorithm name (the flow uses every path) or ``tcp<i>``
    (single-path Reno over path *i*).  Returns the total goodput and the
    per-path rates.
    """
    p = spec.params
    kind = p.get("flow", spec.algorithm or "mptcp")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    routes = [
        _lossy_route(sim, loss, rtt, name=f"path{i}")
        for i, (loss, rtt) in enumerate(zip(
            p.get("losses", [0.001, 0.001]), p.get("rtts", [0.1, 0.1])
        ))
    ]
    if kind.startswith("tcp"):
        flow = make_flow(sim, [routes[int(kind[3:])]], "reno", name="f")
    else:
        flow = make_flow(sim, routes, kind, name="f")
    flow.start()
    ctx.arm()
    m = measure(sim, {"f": flow}, warmup=spec.warmup, duration=spec.duration)
    return ctx.finish({
        "total_pps": m["f"],
        "path_pps": m.subflow_rates.get("f", [m["f"]]),
    })


@claims("paper_fig4")
def fig4_claims(rows: List[dict]) -> None:
    # Path 0 is WiFi, path 1 is 3G.  The orderings that make EWTCP and
    # COUPLED undesirable (closed forms: tests/test_fluid.py).
    packet = {k: row["total_pps"] for k, row in _by(rows, "flow").items()}
    assert packet["coupled"] < 0.5 * packet["ewtcp"]
    assert packet["ewtcp"] < 0.8 * packet["tcp0"]
    # MPTCP's RTT compensation beats both baselines.
    assert packet["mptcp"] > 1.2 * packet["ewtcp"]


@claims("paper_semicoupled")
def semicoupled_claims(rows: List[dict]) -> None:
    results = {
        kind: [r / sum(row["path_pps"]) for r in row["path_pps"]]
        for kind, row in _by(rows, "flow").items()
    }
    sim_split = results["semicoupled"]
    # Clearly biased away from the lossy path, but keeps non-trivial probe
    # traffic on it (unlike COUPLED).
    assert sim_split[2] < 0.2
    assert sim_split[2] > results["coupled"][2]
    assert abs(sim_split[0] - sim_split[1]) < 0.15
    # EWTCP splits by per-path TCP fairness (insensitive to coupling):
    # the lossy path keeps a much larger share than under SEMICOUPLED.
    assert results["ewtcp"][2] > sim_split[2]


# ---------------------------------------------------------------------
# §3 Fig 10 and the Poisson-churn table: the dual-homed server
# ---------------------------------------------------------------------

def _dual_homed_server(sim):
    """The §3 testbed: two 100 Mb/s links with 10 ms of added latency."""
    rate = mbps_to_pps(100)
    return build_two_links(
        sim, rate, rate, delay1=0.010, delay2=0.010,
        buffer1_pkts=100, buffer2_pkts=100,
    )


def server_lb(spec: ScenarioSpec) -> dict:
    """Fig 10 point: 5 TCPs on link 1 and 15 on link 2 of a dual-homed
    server; ten multipath flows join after the first measurement.

    Phase 1 is the spec's warm-up and duration; the multipath flows then
    start and phase 2 settles for 1.5 x warm-up and measures for 1.5 x
    duration (the paper's 20+40 s, then 30+60 s).  Params: ``algo``.
    Returns per-group mean rates before and after, the multipath mean
    and the multipath aggregate on each link.
    """
    algo = spec.params.get("algo", spec.algorithm or "mptcp")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = _dual_homed_server(sim)
    flows = {}
    for group, hops, count, offset in (("g1", ["s1", "d1"], 5, 0.0),
                                       ("g2", ["s2", "d2"], 15, 0.01)):
        for i in range(count):
            name = f"{group}.{i}"
            f = make_flow(sim, [sc.net.route(hops, name=name)], "reno",
                          name=name)
            f.start(at=0.02 * i + offset)
            flows[name] = f
    ctx.arm()
    phase1 = measure(sim, flows, warmup=spec.warmup, duration=spec.duration)

    multis = {}
    for i in range(10):
        mf = make_flow(
            sim,
            [sc.net.route(["s1", "d1"], name=f"m{i}.1"),
             sc.net.route(["s2", "d2"], name=f"m{i}.2")],
            algo, name=f"m{i}",
        )
        mf.start(at=sim.now + 0.05 * i)
        multis[f"m{i}"] = mf
    phase2 = measure(
        sim, {**flows, **multis},
        warmup=sim.now + 1.5 * spec.warmup, duration=1.5 * spec.duration,
    )

    def group_mean(measurement, prefix, count):
        return sum(measurement[f"{prefix}.{i}"] for i in range(count)) / count

    split = [phase2.subflow_rates[name] for name in multis]
    return ctx.finish({
        "g1_before_pps": group_mean(phase1, "g1", 5),
        "g2_before_pps": group_mean(phase1, "g2", 15),
        "g1_after_pps": group_mean(phase2, "g1", 5),
        "g2_after_pps": group_mean(phase2, "g2", 15),
        "multi_mean_pps": sum(phase2[name] for name in multis) / 10,
        "multi_link1_pps": sum(s[0] for s in split),
        "multi_link2_pps": sum(s[1] for s in split),
    })


@claims("paper_fig10")
def fig10_claims(rows: List[dict]) -> None:
    (row,) = rows
    b1, b2 = row["g1_before_pps"], row["g2_before_pps"]
    a1, a2 = row["g1_after_pps"], row["g2_after_pps"]
    s1, s2 = row["multi_link1_pps"], row["multi_link2_pps"]
    # Before: link 1 flows get ~3x the throughput of link 2 flows.
    assert b1 > 2.0 * b2
    # The multipath flows put most of their traffic on the emptier link 1.
    assert s1 > 2.0 * s2
    # And the gap between the groups narrows substantially.
    gap_before = b1 / b2
    gap_after = a1 / a2
    assert gap_after < 0.7 * gap_before


def poisson_churn(spec: ScenarioSpec) -> dict:
    """§3's second server experiment: link 1 carries Poisson arrivals of
    Pareto-sized TCP transfers (10/s light, 60/s heavy, alternating every
    eighth of the measurement window), link 2 one long-lived TCP; MPTCP,
    COUPLED and EWTCP flows run side by side across both.  Returns each
    one's goodput and the number of transfers completed."""
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = _dual_homed_server(sim)
    generator = PoissonFlowGenerator(
        sim,
        route_factory=lambda i: sc.net.route(["s1", "d1"], name=f"pf{i}"),
        light_rate=10.0,
        heavy_rate=60.0,
        period=spec.duration / 8,
        sizes=ParetoSizes(mean_bytes=200_000.0),
    )
    long_lived = make_flow(
        sim, [sc.net.route(["s2", "d2"], name="ll")], "reno", name="ll"
    )
    flows = {}
    for algo in ("mptcp", "coupled", "ewtcp"):
        flows[algo] = make_flow(
            sim,
            [sc.net.route(["s1", "d1"], name=f"{algo}.1"),
             sc.net.route(["s2", "d2"], name=f"{algo}.2")],
            algo, name=algo,
        )
    generator.start()
    long_lived.start()
    for i, flow in enumerate(flows.values()):
        flow.start(at=0.2 * i)
    ctx.arm()
    m = measure(sim, {**flows, "ll": long_lived},
                warmup=spec.warmup, duration=spec.duration)
    row = {f"{algo}_pps": m[algo] for algo in flows}
    row["completions"] = generator.completions
    return ctx.finish(row)


@claims("paper_poisson")
def poisson_claims(rows: List[dict]) -> None:
    (row,) = rows
    rates = {a: pps_to_mbps(row[f"{a}_pps"])
             for a in ("mptcp", "coupled", "ewtcp")}
    assert row["completions"] > 1000
    # The paper's ordering: MPTCP best, EWTCP worst.
    assert rates["mptcp"] > rates["ewtcp"]
    assert rates["mptcp"] > 0.9 * rates["coupled"]
    # All three share two 100 Mb/s links with churning traffic: sane range.
    for rate in rates.values():
        assert 10.0 < rate < 100.0


# ---------------------------------------------------------------------
# §5: the WiFi + 3G client (static, competing, and the Fig 17 walk)
# ---------------------------------------------------------------------

def wireless_client(spec: ScenarioSpec) -> dict:
    """§5 / Fig 15 point: a client with a WiFi and a 3G path.

    Params: ``flow`` — a multipath algorithm name (the flow uses both
    paths) or ``tcp_wifi`` / ``tcp_3g`` (single-path Reno on that path);
    optional ``wifi_mbps`` (14.4), ``wifi_loss`` (0.01) and ``competing``
    — truthy adds one single-path TCP on each path (Fig 15).  Returns the
    flow's total goodput and its rate on each medium, plus the competing
    TCPs' rates.
    """
    p = spec.params
    kind = p.get("flow", spec.algorithm or "mptcp")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    wifi = build_wifi_path(
        sim, rate_mbps=p.get("wifi_mbps", 14.4),
        loss_prob=p.get("wifi_loss", 0.01),
    )
    threeg = build_3g_path(sim)
    if kind == "tcp_wifi":
        flow = make_flow(sim, [wifi.route()], "reno", name="m")
    elif kind == "tcp_3g":
        flow = make_flow(sim, [threeg.route()], "reno", name="m")
    else:
        flow = make_flow(
            sim, [wifi.route("m.wifi"), threeg.route("m.3g")], kind, name="m"
        )
    flows = {"m": flow}
    if p.get("competing"):
        flows["s1"] = make_flow(sim, [wifi.route("s1")], "reno", name="s1")
        flows["s2"] = make_flow(sim, [threeg.route("s2")], "reno", name="s2")
        flows["s1"].start()
        flows["s2"].start(at=0.3)
        flow.start(at=0.6)
    else:
        flow.start()
    ctx.arm()
    m = measure(sim, flows, warmup=spec.warmup, duration=spec.duration)
    on_wifi, on_3g = m.subflow_rates.get(
        "m", (m["m"], 0.0) if kind == "tcp_wifi" else (0.0, m["m"])
    )
    row = {"total_pps": m["m"], "wifi_pps": on_wifi, "threeg_pps": on_3g}
    if p.get("competing"):
        row["tcp_wifi_pps"], row["tcp_3g_pps"] = m["s1"], m["s2"]
    return ctx.finish(row)


@claims("paper_wireless_static")
def wireless_static_claims(rows: List[dict]) -> None:
    rates = {k: pps_to_mbps(row["total_pps"])
             for k, row in _by(rows, "flow").items()}
    assert rates["tcp_wifi"] > 10.0
    assert 1.5 < rates["tcp_3g"] < 2.2
    # The headline: MPTCP ~ sum of the access links.
    assert rates["mptcp"] > 0.85 * (rates["tcp_wifi"] + rates["tcp_3g"])
    assert rates["mptcp"] > rates["tcp_wifi"]


@claims("paper_fig15")
def fig15_claims(rows: List[dict]) -> None:
    results = {
        algo: tuple(pps_to_mbps(row[k])
                    for k in ("total_pps", "tcp_wifi_pps", "tcp_3g_pps"))
        for algo, row in _by(rows, "flow").items()
    }
    # MPTCP gets the best multipath throughput of the three algorithms.
    assert results["mptcp"][0] > results["ewtcp"][0]
    assert results["mptcp"][0] > results["coupled"][0]
    # COUPLED starves the multipath flow's WiFi side and squats on 3G:
    # the WiFi competitor does best under COUPLED (paper's 3.49).
    assert results["coupled"][1] > results["mptcp"][1]
    # MPTCP total is comparable to the best single-path flow (fair).
    assert results["mptcp"][0] > 0.6 * results["mptcp"][1]


def mobile_walk(spec: ScenarioSpec) -> dict:
    """Fig 17 point: a walk through changing coverage, as a link schedule.

    With ``d`` the spec's duration and ``w`` its warm-up: good WiFi
    (14.4 Mb/s) + 3G until ``w + d``; the stairwell — WiFi gone, 3G a
    little better — for ``0.6 d``; a new, weaker basestation (8 Mb/s) for
    ``1.2 d``.  Each phase is measured from ``w / 2`` after it begins
    (the first from ``w``) to its end; the paper's walk is ``w = 10``,
    ``d = 50``.  A single-path TCP shares the WiFi throughout.  Params:
    ``algo``.  Returns the multipath flow's total and WiFi-subflow
    goodput per phase.
    """
    algo = spec.params.get("algo", spec.algorithm or "mptcp")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    wifi = build_wifi_path(sim, loss_prob=0.005)
    threeg = build_3g_path(sim)
    stairwell = spec.warmup + spec.duration
    basestation = stairwell + spec.duration * 3 / 5
    end = basestation + spec.duration * 6 / 5
    schedule = LinkSchedule(
        sim,
        [
            (stairwell, wifi, 0.0),
            (stairwell, threeg, 2.8),
            (basestation, wifi, 8.0),
            (basestation, threeg, 2.1),
        ],
    )
    tcp_wifi = make_flow(sim, [wifi.route("s1")], "reno", name="s1")
    multi = make_flow(
        sim, [wifi.route("m.wifi"), threeg.route("m.3g")], algo, name="m",
        enable_reinjection=True,
    )
    schedule.start()
    tcp_wifi.start()
    multi.start(at=0.2)
    ctx.arm()
    row = {}
    settle = spec.warmup / 2
    for phase, start, stop in (
        ("good", spec.warmup, stairwell),
        ("stairwell", stairwell + settle, basestation),
        ("recovered", basestation + settle, end),
    ):
        m = measure(sim, {"m": multi}, warmup=start, duration=stop - start)
        row[f"{phase}_pps"] = m["m"]
        row[f"wifi_{phase}_pps"] = m.subflow_rates["m"][0]
    return ctx.finish(row)


@claims("paper_fig17")
def fig17_claims(rows: List[dict]) -> None:
    (row,) = rows
    good, stairwell, recovered = (
        row[f"{phase}_pps"] for phase in ("good", "stairwell", "recovered"))
    wifi_good, wifi_stairwell, wifi_recovered = (
        row[f"wifi_{phase}_pps"]
        for phase in ("good", "stairwell", "recovered"))
    # Connection survives the WiFi outage on 3G alone.
    assert stairwell > 0.5 * 175.0       # >1 Mb/s of the 2.8 Mb/s 3G
    assert wifi_stairwell < 0.1 * wifi_good
    # And takes the new (weaker, shared with the competitor) basestation
    # back within the phase: total clearly above 3G-only, WiFi subflow
    # carrying real traffic again.
    assert recovered > 1.3 * stairwell
    assert wifi_recovered > 10.0 * max(wifi_stairwell, 1e-9)
    assert wifi_recovered > 0.3 * 175.0
    # While WiFi is good the flow uses both media, sharing WiFi with the
    # competing single-path TCP (so well above 3G alone, well below the
    # whole WiFi capacity).
    assert good > 2.0 * 175.0
    assert wifi_good > 175.0


# ---------------------------------------------------------------------
# §4: FatTree and BCube traffic matrices
# ---------------------------------------------------------------------

def _quartiles(values: List[float]) -> List[float]:
    """min, p25, median, p75, max of sorted ``values``."""
    if not values:
        return [0.0] * 5
    return [values[int(q * (len(values) - 1))]
            for q in (0.0, 0.25, 0.5, 0.75, 1.0)]


def datacenter(spec: ScenarioSpec) -> dict:
    """§4 point: one traffic matrix over a FatTree or BCube fabric.

    Params: ``topology`` (``fattree`` | ``bcube``), ``algo`` (``single``
    = one random shortest path, the paper's ECMP mimic), ``pattern``
    (``TP1`` permutation | ``TP2`` one-to-many, 12 flows per host |
    ``TP3`` sparse, 30 % of hosts), ``paths`` per multipath flow (8; a
    flow given one path is single-path TCP), fabric size ``k`` (FatTree
    arity, 8; BCube levels - 1, 2) and ``n`` (BCube switch ports, 5),
    ``rate`` (pkt/s, 1042 — the 100 Mb/s fabric scaled down 8x) and
    ``buffer`` (100).  TP2's 12x flow count is measured over 0.6 of the
    spec's duration.  Returns mean per-host goodput as a percentage of
    one NIC (``util_pct``), Jain's index and the quartiles of per-flow
    rates, the quartiles of per-link loss and the most subflows any flow
    runs.
    """
    p = spec.params
    topology = p.get("topology", "fattree")
    pattern = p.get("pattern", "TP1")
    paths = int(p.get("paths", 8))
    algo = "single" if paths == 1 else p.get("algo", spec.algorithm or "mptcp")
    rate = float(p.get("rate", 1042.0))
    buffer = int(p.get("buffer", 100))
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    if topology == "fattree":
        fabric = FatTree.build(
            sim, k=int(p.get("k", 8)), rate_pps=rate, buffer_pkts=buffer
        )
        bcube = neighbors = None
    elif topology == "bcube":
        fabric = bcube = BCube.build(
            sim, n=int(p.get("n", 5)), k=int(p.get("k", 2)),
            rate_pps=rate, buffer_pkts=buffer,
        )
        neighbors = one_digit_neighbors(bcube)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    if pattern == "TP1":
        pairs = permutation_matrix(fabric.hosts, sim.rng)
    elif pattern == "TP2":
        pairs = one_to_many_matrix(
            fabric.hosts, sim.rng, fanout=12, neighbor_sets=neighbors
        )
    elif pattern == "TP3":
        pairs = sparse_matrix(fabric.hosts, sim.rng, fraction=0.30)
    else:
        raise ValueError(f"unknown traffic pattern {pattern!r}")
    flows, sources = start_matrix(
        sim, fabric.net, pairs, algo, path_count=paths, bcube=bcube
    )
    ctx.arm()
    run = measure_matrix(
        sim, fabric.net, flows, sources, warmup=spec.warmup,
        duration=spec.duration * 3 / 5 if pattern == "TP2" else spec.duration,
        host_link_rate=rate,
    )
    rates = run.sorted_rates()
    return ctx.finish({
        "util_pct": 100.0 * run.mean_utilisation(),
        "jain": jain_index(rates),
        "rate_quartiles": _quartiles(rates),
        "loss_quartiles": _quartiles(run.sorted_losses()),
        "max_subflows": run.max_subflows,
    })


@claims("paper_fattree")
def fattree_claims(rows: List[dict]) -> None:
    results = {k: row["util_pct"]
               for k, row in _by(rows, "algo", "pattern").items()}
    # TP1: multipath finds the capacity a single random shortest path
    # misses (paper: 51 -> 92/95).
    assert results[("mptcp", "TP1")] > results[("single", "TP1")] + 15
    assert results[("ewtcp", "TP1")] > results[("single", "TP1")] + 15
    # TP1 multipath utilisation is high in absolute terms.
    assert results[("mptcp", "TP1")] > 75
    # TP3 (sparse): multipath saturates the NIC (paper: 99).
    assert results[("mptcp", "TP3")] > results[("single", "TP3")]
    # TP2 (local replication): single shortest-hop paths are already good
    # (paper: all within ~10%).
    assert results[("single", "TP2")] > 70


@claims("paper_fig12_paths")
def fig12_claims(rows: List[dict]) -> None:
    results = {n: row["util_pct"] for n, row in _by(rows, "paths").items()}
    # Monotone-ish improvement, large step from 1 to 2+, ~90% by 8 paths.
    assert results[2] > results[1] + 10
    assert results[8] > 80
    assert results[8] >= results[2] - 5


@claims("paper_fig13")
def fig13_claims(rows: List[dict]) -> None:
    by_algo = _by(rows, "algo")
    jains = {a: row["jain"] for a, row in by_algo.items()}
    # MPTCP allocates throughput more fairly than EWTCP, which beats
    # single-path's lottery of congested shortest paths.
    assert jains["mptcp"] > jains["ewtcp"] - 0.02
    assert jains["mptcp"] > jains["single"]
    # Multipath lifts the WORST flows (the paper's fairness argument):
    worst = {a: row["rate_quartiles"][0] for a, row in by_algo.items()}
    assert worst["mptcp"] > worst["single"]


@claims("paper_bcube")
def bcube_claims(rows: List[dict]) -> None:
    results = {k: row["util_pct"]
               for k, row in _by(rows, "algo", "pattern").items()}
    # TP3 sparse: multipath exploits all 3 interfaces, single uses one
    # (paper: 78 -> 135/139).
    assert results[("mptcp", "TP3")] > 1.3 * results[("single", "TP3")]
    # TP1: multipath beats single-path (paper: 64.5 -> 84/86.5).
    assert results[("mptcp", "TP1")] > results[("single", "TP1")]
    # TP2 locality: shortest-hop single paths win (paper: 297 vs 229/272),
    # and MPTCP loses less than EWTCP.
    assert results[("single", "TP2")] > results[("mptcp", "TP2")]
    assert results[("mptcp", "TP2")] > 0.95 * results[("ewtcp", "TP2")]


# ---------------------------------------------------------------------
# §3 Fig 8 and §5 Fig 16: the two grids older than this module
# ---------------------------------------------------------------------

@claims("fig8_torus")
def fig8_claims(rows: List[dict]) -> None:
    results = {
        (algo, int(cap)): (row["pa_pc_ratio"], row["jain"])
        for (algo, cap), row in _by(rows, "algo", "capacity_c").items()
    }
    # At equal capacities EWTCP and MPTCP balance (ratio ~1); COUPLED's
    # winner-take-all wandering makes its loss ratio noisy even there
    # (losses are near zero at equal capacities), so it gets a wide band.
    for algo in ("ewtcp", "mptcp"):
        assert 0.5 < results[(algo, 1000)][0] < 2.0
    assert 0.1 < results[("coupled", 1000)][0] < 10.0
    # Squeezing link C: COUPLED balances best, EWTCP worst.
    assert results[("coupled", 100)][0] > results[("mptcp", 100)][0]
    assert results[("mptcp", 100)][0] > results[("ewtcp", 100)][0]
    # Fairness of flow totals mirrors the paper's ordering.
    assert results[("mptcp", 100)][1] > results[("ewtcp", 100)][1]


@claims("fig16_rtt")
def fig16_claims(rows: List[dict]) -> None:
    # Away from the tiny-BDP corner, M is within a reasonable band of the
    # best single-path flow (paper: within a few percent of 1).
    comfortable = [
        row["ratio"] for row in rows if row["c2"] * row["rtt2"] > 30.0
    ]
    assert all(v > 0.6 for v in comfortable)
    assert sum(comfortable) / len(comfortable) > 0.8
