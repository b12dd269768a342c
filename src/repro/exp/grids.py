"""The point-function table, the torus/RTT point functions and the
named scenario grids.

A *point function* runs one simulation described by a
:class:`~repro.exp.spec.ScenarioSpec` and returns a flat result dict.
:data:`SCENARIOS` maps each point function's name to the module that
defines a function of that name, and :func:`point_function` imports that
module and returns it: that is how worker processes resolve a spec back
to code (specs ship between processes as plain data, never as
callables), and why running one point loads only its own module.

The named grids themselves — which parameters sweep over which values —
are declared as data in :data:`repro.topology.scenarios.SWEEP_GRIDS`
next to the topology builders they exercise; :func:`specs_for_grid`
expands one into an ordered spec list for the
:class:`~repro.exp.runner.Runner` (``python -m repro sweep`` is the CLI
wrapper).

Every point function seeds its :class:`~repro.sim.simulation.Simulation`
from ``spec.seed`` and takes warm-up/duration from the spec, so reruns —
including a retry replacing a crashed worker — are bit-identical on the
packet tier.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional

from ..check.hooks import CheckContext
from ..core.registry import make_controller
from ..fault.spec import FaultSpec
from ..harness.experiment import jain_index, make_flow, measure
from ..topology.scenarios import SWEEP_GRIDS, build_torus, build_two_links
from .spec import ScenarioSpec, grid_points

__all__ = ["SCENARIOS", "point_function", "specs_for_grid", "torus_balance",
           "rtt_ratio", "subflow_churn", "torus_hybrid"]

#: Point function name -> the module (relative to this package) that
#: defines a function of that name.
SCENARIOS: Dict[str, str] = {
    "torus_balance": ".grids",
    "rtt_ratio": ".grids",
    "subflow_churn": ".grids",
    "torus_hybrid": ".grids",
    "shared_bottleneck": ".paper",
    "two_links": ".paper",
    "triangle": ".paper",
    "chain": ".paper",
    "fixed_loss_paths": ".paper",
    "server_lb": ".paper",
    "poisson_churn": ".paper",
    "wireless_client": ".paper",
    "mobile_walk": ".paper",
    "datacenter": ".paper",
    "wifi_3g_handover": ".paper",
    "rt_loopback": ".paper",
}


def point_function(name: str) -> Callable[[ScenarioSpec], dict]:
    """The point function named ``name``, importing its module."""
    try:
        module = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(sorted(SCENARIOS))}"
        ) from None
    return getattr(importlib.import_module(module, __package__), name)


def torus_balance(spec: ScenarioSpec) -> dict:
    """Fig 8 point: five-link torus, link C's capacity squeezed.

    Params: ``algo``, ``capacity_c``; optional ``rate`` (other links,
    default 1000 pkt/s).  Returns the loss-rate imbalance ``pa_pc_ratio``
    (pA/pC, 1 = perfectly balanced), Jain's index over flow totals, and
    the aggregate goodput.

    The reserved ``check``/``faults`` params (see
    :class:`~repro.check.hooks.CheckContext`) run the point under the
    invariant monitor and/or a fault schedule.
    """
    p = spec.params
    algo = p.get("algo", "mptcp")
    rate = float(p.get("rate", 1000.0))
    rates = [rate] * 5
    rates[2] = float(p["capacity_c"])
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = build_torus(sim, rates, delay=0.05)
    flows = {}
    for i in range(5):
        f = make_flow(sim, sc.routes(f"f{i}"), algo, name=f"f{i}")
        f.start(at=0.1 * i)
        flows[f"f{i}"] = f
    ctx.arm()
    links = [sc.net.link(f"in{i}", f"out{i}") for i in range(5)]
    m = measure(sim, flows, warmup=spec.warmup, duration=spec.duration,
                links=links)
    pa, pc = m.loss[links[0].name], m.loss[links[2].name]
    totals = [m[f"f{i}"] for i in range(5)]
    return ctx.finish({
        "pa_pc_ratio": pa / max(pc, 1e-9),
        "jain": jain_index(totals),
        "total_pps": sum(totals),
    })


def rtt_ratio(spec: ScenarioSpec) -> dict:
    """Fig 16 point: RTT compensation on a two-link capacity/RTT grid.

    Params: ``c2`` (pkt/s) and ``rtt2`` (seconds) for link 2; link 1 is
    fixed at 400 pkt/s / 100 ms as in the paper.  Returns M's throughput
    over the better single-path flow (``ratio``) plus the raw rates.
    """
    p = spec.params
    c2, rtt2 = float(p["c2"]), float(p["rtt2"])
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = build_two_links(
        sim,
        rate1_pps=400.0, rate2_pps=c2,
        delay1=0.050, delay2=rtt2 / 2.0,
        buffer1_pkts=40, buffer2_pkts=max(8, int(c2 * rtt2)),
    )
    algo = p.get("algo", "mptcp")
    s1 = make_flow(sim, sc.routes("link1"), "reno", name="S1")
    s2 = make_flow(sim, sc.routes("link2"), "reno", name="S2")
    m = make_flow(sim, sc.routes("multi"), algo, name="M")
    ctx.arm()
    s1.start()
    s2.start(at=0.2)
    m.start(at=0.4)
    result = measure(
        sim, {"S1": s1, "S2": s2, "M": m},
        warmup=spec.warmup, duration=spec.duration,
    )
    best_single = max(result["S1"], result["S2"])
    return ctx.finish({
        "ratio": result["M"] / best_single,
        "m_pps": result["M"],
        "best_single_pps": best_single,
    })


def subflow_churn(spec: ScenarioSpec) -> dict:
    """Churn point: one path of a two-link client dies and recovers on a
    fixed period while the connection keeps transferring.

    Params: ``algo`` (default lia), ``policy`` (full_mesh | backup |
    ndiffports), ``churn_period`` (seconds between liveness flips of the
    churned path, default 3), ``churn_path`` (default p1).  Under the
    backup policy p1 is the standby, so churn exercises the
    prejoin/release cycle; under ndiffports the second path carries no
    subflows and churn exercises the ignored-advertisement paths.

    Returns goodput over the measurement window, lifecycle counters and
    the ``delivery_gap`` (must be 0: retirement reinjects stranded data).
    """
    from ..pathmgr.manager import ManagedMptcpFlow

    p = spec.params
    algo = p.get("algo", "lia")
    policy = p.get("policy", "full_mesh")
    period = float(p.get("churn_period", 3.0))
    churned = p.get("churn_path", "p1")
    if period <= 0:
        raise ValueError(f"churn_period must be > 0, got {period!r}")
    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()
    sc = build_two_links(
        sim,
        rate1_pps=600.0, rate2_pps=600.0,
        delay1=0.030, delay2=0.030,
        buffer1_pkts=40, buffer2_pkts=40,
    )
    routes = sc.routes("multi")
    flow = ManagedMptcpFlow(sim, make_controller(algo), policy=policy, name="m")
    flow.add_path(routes[0], name="p0")
    flow.add_path(routes[1], name="p1", backup=(policy == "backup"))
    end = spec.warmup + spec.duration
    churn, t = [], spec.warmup
    while t < end:
        kind = "path_up" if len(churn) % 2 else "path_down"
        churn.append(FaultSpec(kind, f"m.{churned}", t, {"cause": "churn"}))
        t += period
    ctx.arm(churn)
    flow.start()
    m = measure(sim, {"m": flow}, warmup=spec.warmup, duration=spec.duration)
    reasm = flow.receiver.reassembler
    return ctx.finish({
        "goodput_pps": m["m"],
        "churn_flips": len(churn),
        "subflows_opened": flow.manager.subflows_opened,
        "subflows_closed": flow.manager.subflows_closed,
        "delivery_gap": reasm.data_cum_ack - reasm.delivered,
    })


def torus_hybrid(spec: ScenarioSpec) -> dict:
    """Fig 8 torus at flow-class scale: the hybrid tier carries the bulk.

    ``classes`` flow classes of ``flows_per_class`` aggregate flows each
    are distributed round-robin over the five torus flow positions
    (class ``c`` takes position ``c mod 5``, i.e. the paths of packet
    flow ``f{c mod 5}``), plus ``tracers`` packet-level flows riding the
    same queues under the aggregate load.  Link capacities scale with
    the flows they carry (``per_flow_pps`` each); link C's capacity is
    additionally squeezed by ``capacity_c_factor`` as in Fig 8.  Each
    class gets a small deterministic base-RTT scale so classes are not
    trivially identical.

    Params: ``algo`` (default lia), ``classes``, ``flows_per_class``,
    ``tracers``, ``per_flow_pps`` (default 20), ``capacity_c_factor``
    (default 1.0), ``dt`` (default 0.02), plus the reserved
    ``check``/``faults``.  Returns the aggregate flow count, fluid and
    tracer goodput, and Jain's index over per-class rates.
    """
    p = spec.params
    algo = p.get("algo", "lia")
    classes = int(p.get("classes", 5))
    flows_per_class = int(p.get("flows_per_class", 1))
    tracers = int(p.get("tracers", 0))
    per_flow_pps = float(p.get("per_flow_pps", 20.0))
    c_factor = float(p.get("capacity_c_factor", 1.0))
    dt = float(p.get("dt", 0.02))
    if classes < 1:
        raise ValueError(f"classes must be >= 1, got {classes!r}")

    # Flows homed at each of the five torus positions (classes are laid
    # out round-robin; tracers likewise).  Link i carries the flows of
    # positions i and (i-1) mod 5.
    at_pos = [0] * 5
    for c in range(classes):
        at_pos[c % 5] += flows_per_class
    for k in range(tracers):
        at_pos[k % 5] += 1
    rates = [per_flow_pps * (at_pos[i] + at_pos[(i - 1) % 5])
             for i in range(5)]
    rates[2] *= c_factor

    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation(tiers=("hybrid",), dt=dt)
    sc = build_torus(sim, rates, delay=0.05)
    class_flows, tracer_flows = {}, {}
    for c in range(classes):
        # Deterministic per-class RTT diversity (±12%), a pure function
        # of the class index so reruns are bit-identical.
        rtt_scale = 0.88 + 0.24 * ((c * 7919) % 97) / 96.0
        fc = sim.add_class(
            sc.routes(f"f{c % 5}"), algo, count=flows_per_class,
            name=f"c{c}", rtt_scale=rtt_scale,
        )
        class_flows[f"c{c}"] = fc
    for k in range(tracers):
        f = make_flow(
            sim, sc.routes(f"f{k % 5}"), algo, name=f"tr{k}", max_cwnd=64.0
        )
        f.start(at=0.05 * (k + 1))
        tracer_flows[f"tr{k}"] = f
    ctx.arm()
    m = measure(
        sim, {**class_flows, **tracer_flows},
        warmup=spec.warmup, duration=spec.duration,
    )
    fluid_pps = sum(m[name] for name in class_flows)
    tracer_pps = sum(m[name] for name in tracer_flows)
    return ctx.finish({
        "aggregate_flows": sim.aggregate_flows + tracers,
        "fluid_pps": fluid_pps,
        "tracer_pps": tracer_pps,
        "total_pps": fluid_pps + tracer_pps,
        "jain": jain_index([m[name] for name in class_flows]),
    })


def specs_for_grid(
    name: str,
    seed: Optional[int] = None,
    warmup: Optional[float] = None,
    duration: Optional[float] = None,
) -> List[ScenarioSpec]:
    """Expand a named grid from :data:`SWEEP_GRIDS` into ordered specs.

    The grid index (and hence the runner's row order) is the cartesian
    enumeration order of :func:`~repro.exp.spec.grid_points` over
    the grid's ``parameters``.  ``seed``/``warmup``/``duration`` override
    the grid's defaults — handy for scaled-down smoke runs.
    """
    try:
        grid = SWEEP_GRIDS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep grid {name!r}; known: "
            f"{', '.join(sorted(SWEEP_GRIDS))}"
        ) from None
    return [
        ScenarioSpec(
            scenario=grid["scenario"],
            params=point,
            seed=grid["seed"] if seed is None else seed,
            warmup=grid["warmup"] if warmup is None else warmup,
            duration=grid["duration"] if duration is None else duration,
        )
        for point in grid_points(grid["parameters"])
    ]
