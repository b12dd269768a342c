"""The paper's evaluation as point functions.

Every figure and table of the paper is a ``paper_*`` entry of
:data:`repro.topology.scenarios.SWEEP_GRIDS` (Fig 8 and Fig 16 keep
their older names ``fig8_torus`` / ``fig16_rtt``) over one of the point
functions here; the statements the paper's argument rests on, read off
the grid's result rows, are its rows of :data:`repro.exp.claims.CLAIMS`.
``python -m repro sweep paper`` runs the whole family through one
:class:`~repro.exp.runner.Runner` and cache and checks every claim;
``tests/test_paper_claims.py`` does the same for the grids that take
seconds at registered scale, and ``tests/golden/equivalence/`` pins each
grid at a reduced scale.  ``rt_loopback`` judges the implementation
rather than a figure: its claims hold the real-socket backend
(:mod:`repro.rt`) to the simulation of the same point.

Point functions have the :class:`~repro.check.hooks.CheckContext` shape
of :func:`repro.exp.grids.torus_balance`, so the reserved ``check`` /
``faults`` params work on every one; ``wifi_3g_handover`` and
``rt_loopback`` also run on ``tier=rt``.  Seed, warm-up and duration
come from the spec.  Rates in rows are packets per second
(:func:`~repro.net.network.pps_to_mbps` converts to the paper's Mb/s).
"""

from __future__ import annotations

from typing import Dict, List

from ..check.hooks import CheckContext
from ..core.registry import make_controller
from ..fault.spec import FaultSpec
from ..harness.datacenter import start_matrix
from ..harness.experiment import jain_index, make_flow, measure
from ..mptcp.connection import MptcpFlow
from ..net.network import mbps_to_pps
from ..net.packet import MSS_BYTES
from ..topology.bcube import BCube
from ..topology.fattree import FatTree
from ..topology.scenarios import (
    build_chain,
    build_fixed_loss_route,
    build_shared_bottleneck,
    build_triangle,
    build_two_links,
)
from ..topology.wireless import (
    PROFILES,
    build_3g_path,
    build_wifi_path,
)
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
    algo = p.get("algo", "mptcp")
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
    algo = p.get("algo", "mptcp")
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
    link1, link2 = sc.net.link("s1", "d1"), sc.net.link("s2", "d2")
    m = measure(sim, flows, warmup=spec.warmup, duration=spec.duration,
                links=(link1, link2))
    path1, path2 = m.subflow_rates["m"]
    row = {
        "total_pps": m["m"], "path1_pps": path1, "path2_pps": path2,
        "p1": m.loss[link1.name], "p2": m.loss[link2.name],
    }
    if cross == "tcp":
        row["s1_pps"], row["s2_pps"] = m["S1"], m["S2"]
    return ctx.finish(row)


# ---------------------------------------------------------------------
# §2.2 Figs 2 and 3: three two-path flows on the triangle and the chain
# ---------------------------------------------------------------------

def _three_flows(spec: ScenarioSpec, ctx: CheckContext, sc) -> dict:
    """Start flows f0..f2 of ``sc`` 0.1 s apart, measure, return rates."""
    algo = spec.params.get("algo", "mptcp")
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


# ---------------------------------------------------------------------
# §2.3 Fig 4 and §2.4's SEMICOUPLED split: fixed-loss paths
# ---------------------------------------------------------------------

def fixed_loss_paths(spec: ScenarioSpec) -> dict:
    """One flow over paths of fixed loss rate and RTT, no congestion.

    Params: ``losses`` and ``rtts`` (one entry per path; default two
    paths of 0.1 % loss and 100 ms) and ``flow`` — a
    multipath algorithm name (the flow uses every path) or ``tcp<i>``
    (single-path Reno over path *i*).  Returns the total goodput and the
    per-path rates.
    """
    p = spec.params
    kind = p.get("flow", "mptcp")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    routes = [
        build_fixed_loss_route(sim, loss, rtt, name=f"path{i}")
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
    algo = spec.params.get("algo", "mptcp")
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
        warmup=sim.elapsed + 1.5 * spec.warmup, duration=1.5 * spec.duration,
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
    kind = p.get("flow", "mptcp")
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


def mobile_walk(spec: ScenarioSpec) -> dict:
    """Fig 17 point: a walk through changing coverage, as ``rate`` events.

    With ``d`` the spec's duration and ``w`` its warm-up: good WiFi
    (14.4 Mb/s) + 3G until ``w + d``; the stairwell — WiFi gone, 3G a
    little better — for ``0.6 d``; a new, weaker basestation (8 Mb/s) for
    ``1.2 d``.  Each phase is measured from ``w / 2`` after it begins
    (the first from ``w``) to its end; the paper's walk is ``w = 10``,
    ``d = 50``.  A single-path TCP shares the WiFi throughout.  Params:
    ``algo``.  Returns the multipath flow's total and WiFi-subflow
    goodput per phase.
    """
    algo = spec.params.get("algo", "mptcp")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    wifi = build_wifi_path(sim, loss_prob=0.005)
    threeg = build_3g_path(sim)
    stairwell = spec.warmup + spec.duration
    basestation = stairwell + spec.duration * 3 / 5
    end = basestation + spec.duration * 6 / 5
    tcp_wifi = make_flow(sim, [wifi.route("s1")], "reno", name="s1")
    multi = make_flow(
        sim, [wifi.route("m.wifi"), threeg.route("m.3g")], algo, name="m",
        enable_reinjection=True,
    )
    tcp_wifi.start()
    multi.start(at=0.2)
    ctx.arm([
        FaultSpec("rate", "wifi", stairwell, {"mbps": 0.0}),
        FaultSpec("rate", "3g", stairwell, {"mbps": 2.8}),
        FaultSpec("rate", "wifi", basestation, {"mbps": 8.0}),
        FaultSpec("rate", "3g", basestation, {"mbps": 2.1}),
    ])
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


def wifi_3g_handover(spec: ScenarioSpec) -> dict:
    """§5.2 mobility point: a WiFi+3G client under a scripted WiFi
    outage, through :mod:`repro.pathmgr`, on the packet or rt tier.

    The WiFi path fades (for up to a second, at most half a phase)
    before losing coverage entirely (the user walking away from the
    basestation), stays dark for the middle third of the measurement
    window, then recovers — all on the scenario-time axis.  Params:
    ``algo`` (default lia), ``policy`` (default backup — §5.2's 3G hot
    standby), ``mode`` (break_before_make | make_before_break),
    ``degraded_mbps`` (make-before-break pre-warm threshold, default 5).

    Returns per-phase goodput (packets/s before, during and after the
    outage), handover/lifecycle counters and ``delivery_gap`` — the
    number of data packets acknowledged at connection level but never
    delivered in order, which must be 0 (exactly-once across the
    migration).
    """
    from ..pathmgr import ManagedMptcpFlow, WirelessHandover

    p = spec.params
    algo = p.get("algo", "lia")
    policy = p.get("policy", "backup")
    mode = p.get("mode", "break_before_make")
    degraded = float(p.get("degraded_mbps", 5.0))
    ctx = CheckContext.from_spec(spec)
    with ctx.simulation(tiers=("packet", "rt")) as sim:
        wifi = ctx.path(PROFILES["wifi"], "wifi")
        g3 = ctx.path(PROFILES["3g"], "3g")
        flow = ManagedMptcpFlow(sim, make_controller(algo), policy=policy,
                                name="m")
        flow.add_path(wifi.route("m.wifi"), name="wifi")
        flow.add_path(g3.route("m.3g"), name="3g",
                      backup=(policy == "backup"))
        manager = flow.manager
        phase = spec.duration / 3.0
        t_down = spec.warmup + phase
        t_up = spec.warmup + 2.0 * phase
        fade = min(1.0, phase / 2.0)
        armed = ctx.arm([
            FaultSpec("rate", "wifi", t_down - fade, {"mbps": 2.0}),  # fading
            FaultSpec("rate", "wifi", t_down, {"mbps": 0.0}),   # coverage lost
            FaultSpec("rate", "wifi", t_up, {"mbps": 14.4}),    # coverage back
        ])
        handover = WirelessHandover(manager, armed, mode=mode,
                                    degraded_mbps=degraded)
        flow.start()
        # Each phase's count over ``phase``.  Every window ends exactly
        # on t_down, t_up, warmup + duration: end - start is exact
        # (Sterbenz: end <= 2 start), so start + (end - start) == end.
        row = {}
        for key, start, length in (
            ("pre_pps", spec.warmup, phase),
            ("outage_pps", t_down, t_up - t_down),
            ("post_pps", t_up, spec.warmup + spec.duration - t_up),
        ):
            m = measure(sim, {"m": flow}, warmup=start, duration=length)
            row[key] = m.delivered["m"] / phase
        sim.finish()
        reasm = flow.receiver.reassembler
        return ctx.finish({
            **row,
            "handovers": handover.handovers,
            "subflows_opened": manager.subflows_opened,
            "subflows_closed": manager.subflows_closed,
            "join_failures": manager.join_failures,
            "delivery_gap": reasm.data_cum_ack - reasm.delivered,
        })


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
    algo = "single" if paths == 1 else p.get("algo", "mptcp")
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
    m = measure(
        sim, flows, warmup=spec.warmup,
        duration=spec.duration * 3 / 5 if pattern == "TP2" else spec.duration,
        links=fabric.net.all_links(),
    )
    # The §4 tables count per-host throughput: a TP2 host's 12 flows
    # count together.
    per_host: Dict[str, float] = {}
    for name, flow_rate in m.rates.items():
        per_host[sources[name]] = per_host.get(sources[name], 0.0) + flow_rate
    rates = sorted(m.rates.values())
    busy = sorted(m.loss[name] for name, n in m.arrivals.items() if n)
    return ctx.finish({
        "util_pct": 100.0 * (sum(per_host.values()) / len(per_host) / rate),
        "jain": jain_index(rates),
        "rate_quartiles": _quartiles(rates),
        "loss_quartiles": _quartiles(busy),
        "max_subflows": max(
            len(f.subflows) if isinstance(f, MptcpFlow) else 1
            for f in flows.values()
        ),
    })


# ---------------------------------------------------------------------
# The implementation: the same state machines on real sockets
# ---------------------------------------------------------------------

def _safe_mean(rec, name: str, fallback: float) -> float:
    try:
        return rec.mean(name)
    except ValueError:
        return fallback


def rt_loopback(spec: ScenarioSpec) -> dict:
    """Two-subflow MPTCP transfer over ``paths`` copies of one profile,
    on the packet tier or (``tier=rt``) on loopback UDP sockets.

    Params: ``algo`` (default lia), ``netem`` (a
    :data:`~repro.topology.wireless.PROFILES` name, default 'lan'),
    ``paths`` (default 2), ``interval`` (series sampling period, default
    0.25 s).  ``spec.warmup`` / ``spec.duration`` are wall-clock seconds
    on the rt tier, so keep them small.

    Returns goodput over the measurement window, delivered packets and
    bytes, series means, ``delivery_gap`` (must be 0) and lifecycle
    counters.
    """
    from ..obs.series import SeriesRecorder
    from ..pathmgr import ManagedMptcpFlow

    p = spec.params
    algo = p.get("algo", "lia")
    netem = p.get("netem", "lan")
    if netem not in PROFILES:
        raise ValueError(f"unknown netem profile {netem!r}; known: "
                         f"{', '.join(sorted(PROFILES))}")
    ctx = CheckContext.from_spec(spec)
    with ctx.simulation(tiers=("packet", "rt")) as sim:
        flow = ManagedMptcpFlow(sim, make_controller(algo), name="m")
        routes = [ctx.path(PROFILES[netem], f"p{i}").route(f"m.p{i}")
                  for i in range(int(p.get("paths", 2)))]
        for i, route in enumerate(routes):
            flow.add_path(route, name=f"p{i}")
        rec = SeriesRecorder(sim, interval=float(p.get("interval", 0.25)),
                             warmup=spec.warmup)
        rec.add_rate_probe("goodput", lambda: flow.packets_delivered)
        rec.add_probe(
            "cwnd",
            lambda: sum(
                sf.cwnd for sf in flow.connection.subflows if not sf.retired
            ),
        )
        ctx.arm()
        flow.start()
        rec.start()
        m = measure(sim, {"m": flow}, warmup=spec.warmup,
                    duration=spec.duration)
        sim.finish()
        delivered, goodput = m.delivered["m"], m["m"]
        reasm = flow.receiver.reassembler
        return ctx.finish({
            "goodput_pps": goodput,
            "delivered": delivered,
            "delivered_bytes": delivered * MSS_BYTES,
            "goodput_mean": _safe_mean(rec, "goodput", goodput),
            "cwnd_mean": _safe_mean(rec, "cwnd", 0.0),
            "delivery_gap": reasm.data_cum_ack - reasm.delivered,
            "subflows_opened": flow.manager.subflows_opened,
            "join_failures": flow.manager.join_failures,
        })
