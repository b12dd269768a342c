"""Real-backend ``repro.exp`` point functions.

Naming these in the same :data:`~repro.exp.grids.SCENARIOS` table the
sim scenarios use makes real-socket runs sweepable and cacheable: the
``backend`` / ``netem`` params live in ``spec.params``,
so :meth:`ScenarioSpec.canonical` folds them into result-cache keys
automatically — a cached sim row can never be served for an rt point
(see docs/RUNNER.md for the caveat that rt rows, being wall-clock
measurements, are *not* bit-reproducible: the cache pins first-run
values).

``rt_loopback``
    A two-path MPTCP transfer, runnable on either backend
    (``backend='rt'`` over loopback UDP + netem, ``backend='sim'`` over
    the equivalent queue+pipe paths).  The shared implementation is what
    the divergence harness (:mod:`repro.rt.divergence`) runs twice.

``rt_handover``
    The §5 WiFi→3G handover on the real backend: real sockets, a
    :class:`~repro.topology.wireless.LinkSchedule` driving netem rate
    changes, and the *unchanged* :class:`~repro.pathmgr.WirelessHandover`
    + path-manager machinery.  It is one of the two point functions over
    the one handover body (:func:`_handover_run`); the sim's
    ``wifi_3g_handover`` in :mod:`repro.exp.grids` is the other.

``spec.warmup`` / ``spec.duration`` are wall-clock seconds on the rt
backend — keep them small (a grid point runs in real time).
"""

from __future__ import annotations

from typing import Tuple

from ..check.hooks import CheckContext
from ..core.registry import make_controller
from ..exp.spec import ScenarioSpec
from ..mptcp.handshake import AddAddrOption, MpCapableOption, MpJoinOption
from ..net.packet import MSS_BYTES
from ..obs.series import SeriesRecorder
from ..pathmgr import ManagedMptcpFlow, WirelessHandover
from ..sim.simulation import Simulation
from ..topology.wireless import LinkSchedule, build_3g_path, build_wifi_path
from .loop import RtSimulation
from .netem import PROFILES, NetemProfile
from .wire import RtPath

__all__ = ["rt_loopback", "rt_handover"]


def _resolve_profile(p: dict) -> NetemProfile:
    name = p.get("netem", "lan")
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown netem profile {name!r}; known: {known}")


def _sim_twin_path(sim, profile: NetemProfile, name: str):
    """The sim path equivalent to one netem profile: a variable-rate
    drop-tail queue plus a lossy delay pipe with the same parameters
    (``build_wifi_path`` is just the generic builder with WiFi
    defaults)."""
    rate = profile.rate_mbps if profile.rate_mbps is not None else 1e4
    return build_wifi_path(
        sim,
        rate_mbps=rate,
        rtt_floor=2.0 * profile.delay,
        buffer_pkts=profile.buffer_pkts,
        loss_prob=profile.loss,
        name=name,
    )


def _mirror_handshake(manager, rt_paths) -> None:
    """Mirror the (synchronous) MPTCP handshake onto the wire as CTRL
    frames, so the signalling crosses the real sockets too.  Call after
    ``flow.start()``: the token exists only once establishment ran."""
    rt_paths[0].send_option(MpCapableOption(sender_key=manager.client.key))
    for managed, rt_path in zip(manager.ordered_paths(), rt_paths):
        rt_path.send_option(AddAddrOption(addr_id=managed.addr_id))
    if manager.token is not None:
        for rt_path in rt_paths[1:]:
            rt_path.send_option(MpJoinOption(token=manager.token))


def _ctrl_frames(rt_paths) -> int:
    return sum(len(path.options_received) for path in rt_paths)


def _wire_errors(rt_paths) -> int:
    return sum(p.codec_errors + p.unknown_channels + p.socket_errors
               for p in rt_paths)


def _safe_mean(rec: SeriesRecorder, name: str, fallback: float) -> float:
    try:
        return rec.mean(name)
    except ValueError:
        return fallback


def _loopback_run(
    spec: ScenarioSpec, backend: str
) -> Tuple[dict, SeriesRecorder]:
    """Shared implementation of ``rt_loopback`` on either backend;
    returns ``(row, recorder)`` so the divergence harness can align the
    throughput/cwnd series, not just compare row scalars."""
    if backend not in ("rt", "sim"):
        raise ValueError(f"unknown backend {backend!r} (rt | sim)")
    p = spec.params
    algo = p.get("algo", spec.algorithm or "lia")
    profile = _resolve_profile(p)
    n_paths = int(p.get("paths", 2))
    interval = float(p.get("interval", 0.25))
    ctx = CheckContext.from_spec(spec)
    real = backend == "rt"
    with ctx.simulation(cls=RtSimulation if real else Simulation) as sim:
        flow = ManagedMptcpFlow(sim, make_controller(algo), name="m")
        if real:
            rt_paths = [
                RtPath(sim, f"p{i}", profile=profile) for i in range(n_paths)
            ]
            routes = [path.route(f"m.p{i}")
                      for i, path in enumerate(rt_paths)]
        else:
            rt_paths = []
            routes = [
                _sim_twin_path(sim, profile, f"p{i}").route(f"m.p{i}")
                for i in range(n_paths)
            ]
        for i, route in enumerate(routes):
            flow.add_path(route, name=f"p{i}")
        rec = SeriesRecorder(sim, interval=interval, warmup=spec.warmup)
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
        if real:
            _mirror_handshake(flow.manager, rt_paths)
        sim.run_until_elapsed(spec.warmup)
        d0 = flow.packets_delivered
        sim.run_until_elapsed(spec.warmup + spec.duration)
        d1 = flow.packets_delivered
        sim.finish()
        delivered = d1 - d0
        goodput = delivered / spec.duration
        reasm = flow.receiver.reassembler
        row = {
            "goodput_pps": goodput,
            "delivered": delivered,
            "delivered_bytes": delivered * MSS_BYTES,
            "goodput_mean": _safe_mean(rec, "goodput", goodput),
            "cwnd_mean": _safe_mean(rec, "cwnd", 0.0),
            "delivery_gap": reasm.data_cum_ack - reasm.delivered,
            "subflows_opened": flow.manager.subflows_opened,
            "join_failures": flow.manager.join_failures,
            "ctrl_frames": _ctrl_frames(rt_paths),
            "wire_errors": _wire_errors(rt_paths),
        }
        return ctx.finish(row), rec


def rt_loopback(spec: ScenarioSpec) -> dict:
    """Two-subflow MPTCP transfer, on real UDP sockets or the sim twin.

    Params: ``algo`` (default lia), ``backend`` ('rt' | 'sim', default
    rt), ``netem`` (profile name from :data:`repro.rt.netem.PROFILES`,
    default 'lan'), ``paths`` (default 2), ``interval`` (series sampling
    period, default 0.25 s).  The reserved ``check``/``faults`` params
    attach the invariant monitor exactly as on sim points.

    Returns goodput over the measurement window, delivered packets and
    bytes, series means, ``delivery_gap`` (must be 0) and lifecycle
    counters.
    """
    row, _ = _loopback_run(spec, spec.params.get("backend", "rt"))
    return row


def _handover_run(spec: ScenarioSpec, backend: str) -> dict:
    """The §5 WiFi→3G handover point, once for both backends: the sim's
    ``wifi_3g_handover`` (``backend='sim'``, documented in
    :mod:`repro.exp.grids`) and ``rt_handover`` (``backend='rt'``).
    Only path construction and the CTRL-frame mirroring differ.

    The WiFi path fades (for up to a second, at most half a phase)
    before losing coverage, stays dark for the middle third of the
    measurement window, then recovers — all on the scenario-time axis.
    """
    p = spec.params
    algo = p.get("algo", spec.algorithm or "lia")
    policy = p.get("policy", "backup")
    mode = p.get("mode", "break_before_make")
    degraded = float(p.get("degraded_mbps", 5.0))
    ctx = CheckContext.from_spec(spec)
    real = backend == "rt"
    with ctx.simulation(cls=RtSimulation if real else Simulation) as sim:
        if real:
            wifi = RtPath(sim, "wifi", profile=PROFILES["wifi"])
            g3 = RtPath(sim, "3g", profile=PROFILES["3g"])
        else:
            wifi = build_wifi_path(sim, name="wifi")
            g3 = build_3g_path(sim, name="3g")
        flow = ManagedMptcpFlow(
            sim, make_controller(algo), policy=policy, name="m"
        )
        flow.add_path(wifi.route("m.wifi"), name="wifi", wireless=wifi)
        flow.add_path(
            g3.route("m.3g"), name="3g",
            backup=(policy == "backup"), wireless=g3,
        )
        manager = flow.manager
        phase = spec.duration / 3.0
        t_down = spec.warmup + phase
        t_up = spec.warmup + 2.0 * phase
        fade = min(1.0, phase / 2.0)
        schedule = LinkSchedule(sim, [
            (sim.at(t_down - fade), wifi, 2.0),   # fading signal
            (sim.at(t_down), wifi, 0.0),          # coverage lost
            (sim.at(t_up), wifi, 14.4),           # coverage back
        ])
        handover = WirelessHandover(
            manager, schedule, mode=mode, degraded_mbps=degraded
        )
        ctx.arm()
        schedule.start()
        flow.start()
        if real:
            _mirror_handshake(manager, [wifi, g3])
        sim.run_until_elapsed(spec.warmup)
        d0 = flow.packets_delivered
        sim.run_until_elapsed(t_down)
        d1 = flow.packets_delivered
        sim.run_until_elapsed(t_up)
        d2 = flow.packets_delivered
        sim.run_until_elapsed(spec.warmup + spec.duration)
        d3 = flow.packets_delivered
        sim.finish()
        reasm = flow.receiver.reassembler
        row = {
            "pre_pps": (d1 - d0) / phase,
            "outage_pps": (d2 - d1) / phase,
            "post_pps": (d3 - d2) / phase,
            "handovers": handover.handovers,
            "subflows_opened": manager.subflows_opened,
            "subflows_closed": manager.subflows_closed,
            "join_failures": manager.join_failures,
            "delivery_gap": reasm.data_cum_ack - reasm.delivered,
        }
        if real:
            row["ctrl_frames"] = _ctrl_frames([wifi, g3])
            row["wire_errors"] = _wire_errors([wifi, g3])
        return ctx.finish(row)


def rt_handover(spec: ScenarioSpec) -> dict:
    """§5 WiFi→3G handover on the real backend, via ``repro.pathmgr``.

    The same body as the sim's ``wifi_3g_handover`` point (same params,
    same row plus ``ctrl_frames``); here the paths are loopback UDP
    sockets with wifi/3g netem profiles and the ``LinkSchedule`` drives
    netem rates — the handover, path-manager and reinjection machinery
    run unchanged.
    """
    return _handover_run(spec, "rt")
