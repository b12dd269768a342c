"""Real-network backend: the Timers seam, the runtime, and end-to-end
transfers over loopback UDP sockets.

Socket-using tests are marked ``realnet`` (select with ``-m realnet``,
or ``make rt-test``); they run in wall-clock time, so durations here are
kept to a couple of seconds.  The seam and netem tests are plain unit
tests — the netem channel is exercised on the *sim* backend, where its
behaviour is deterministic.
"""

from __future__ import annotations

import json
import pathlib
import socket
import time
import tracemalloc

import pytest

from repro.core.registry import make_controller
from repro.check.hooks import CheckContext
from repro.exp.grids import SCENARIOS, point_function
from repro.exp.spec import ScenarioSpec
from repro.obs import JsonlSink, MemorySink, TraceBus, validate_jsonl
from repro.obs.series import SeriesRecorder
from repro.check import InvariantMonitor, trace_override
from repro.hybrid import HybridSimulation
from repro.mptcp.handshake import MpJoinOption
from repro.net.packet import MSS_BYTES, DataPacket
from repro.rt import PROFILES, NetemChannel, RtPath, RtSimulation, encode
from repro.rt.loop import MonotonicTimers
from repro.rt.netem import NetemProfile, profile_replace
from repro.sim import Clock, EventScheduler, Simulation, Timers
from repro.sim.engine import EventHeap
from repro.pathmgr import ManagedMptcpFlow
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.tcp.source import FiniteSource

from conftest import python_calls


# ---------------------------------------------------------------------------
# The Timers seam (repro.sim.clock)
# ---------------------------------------------------------------------------

def test_event_scheduler_satisfies_timers_protocol():
    sim = Simulation(seed=1)
    assert isinstance(sim.scheduler, Clock)
    assert isinstance(sim.scheduler, Timers)
    assert sim.timers is sim.scheduler


def test_monotonic_timers_satisfies_timers_protocol():
    with RtSimulation(seed=1) as sim:
        assert isinstance(sim.timers, MonotonicTimers)
        assert isinstance(sim.timers, Clock)
        assert isinstance(sim.timers, Timers)


def test_rt_clock_is_fresh_and_past_deadlines_fire():
    """``now`` reads the OS clock on every access (``run_for``,
    ``elapsed`` and RTT samples read it between runs), and a deadline
    already past fires on the next pass instead of raising."""
    fired = []
    with RtSimulation(seed=1) as sim:
        first = sim.timers.now
        time.sleep(0.002)
        assert sim.timers.now > first           # no run_until in between
        sim.timers.schedule_at(sim.now - 1.0, fired.append, "late")
        assert fired == []
        sim.run_for(0.01)
    assert fired == ["late"]


def test_rt_timers_inherit_the_engine_heap():
    """Cancellation and tombstone compaction are the engine's own
    (``EventHeap``), and its virtual-time entry points are not reachable:
    nothing can drain a wall-clock heap to exhaustion."""
    fired = []
    with RtSimulation(seed=1) as sim:
        timers = sim.timers
        assert isinstance(timers, EventHeap)
        assert not isinstance(timers, EventScheduler)
        handles = [timers.schedule_in(3600.0, fired.append, i)
                   for i in range(1000)]
        for handle in handles:
            handle.cancel()
        assert timers.pending == 0
        assert len(timers._heap) <= 130         # compacted, not 1000
        timers.schedule_in(3600.0, fired.append, "far")
        for entry_point in ("run", "step", "run_until"):
            assert not hasattr(timers, entry_point)
        with pytest.raises(AttributeError):
            sim.run()
        sim.run_for(0.01)
        assert timers.pending == 1
    assert fired == []


def test_sender_and_receiver_bind_through_the_seam():
    """Regression for the hot-path coupling: endpoints must cache
    ``sim.timers`` (the seam), never ``sim.scheduler`` directly — on the
    real backend the two are the same object only by interface parity."""
    sim = Simulation(seed=1)
    snd = TcpSender(sim, make_controller("reno"), name="f")
    rcv = TcpReceiver(sim, name="f.rx")
    assert snd._sched is sim.timers
    assert rcv._sched is sim.timers
    with RtSimulation(seed=1) as rt:
        snd = TcpSender(rt, make_controller("reno"), name="f")
        assert snd._sched is rt.timers


def test_timer_handles_cancel_on_both_backends():
    fired = []
    sim = Simulation(seed=1)
    handle = sim.timers.schedule_at(1.0, lambda: fired.append("sim"))
    handle.cancel()
    sim.run_until(2.0)
    with RtSimulation(seed=1) as rt:
        handle = rt.timers.schedule_in(0.01, lambda: fired.append("rt"))
        handle.cancel()
        rt.run_for(0.05)
    assert fired == []


# ---------------------------------------------------------------------------
# RtSimulation runtime surface
# ---------------------------------------------------------------------------

@pytest.mark.realnet
def test_rt_simulation_clock_and_phases():
    with RtSimulation(seed=1) as sim:
        t0 = sim.now
        assert sim.elapsed < 0.1
        assert sim.at(1.5) == pytest.approx(sim.time_origin + 1.5)
        sim.run_until_elapsed(0.05)
        assert sim.elapsed >= 0.05
        assert sim.now >= t0 + 0.05
        sim.run_until_elapsed(0.01)     # already past: returns at once
        fired = []
        sim.schedule_in(0.01, fired.append, "x")
        sim.run_for(0.05)
        assert fired == ["x"]


#: What ``Simulation`` alone implements; a backend that re-mirrors any of
#: it by hand has forked the surface again.
SHARED_SURFACE = (
    "register", "on_register", "components", "at_end", "finish",
    "schedule_at", "schedule_in", "at", "elapsed", "run_until_elapsed",
    "run_for", "add_cleanup", "close", "__enter__", "__exit__",
)


@pytest.mark.parametrize("cls", [Simulation, HybridSimulation, RtSimulation])
def test_simulation_surface_conformance(cls):
    """One run container: every backend *is* a ``Simulation`` and
    answers the same surface — ``(seed, trace)`` construction, the
    component registry, scenario time, ``at_end`` → ``finish`` and
    ``with`` → ``close`` — differing only in what the clock is."""
    bus = TraceBus(sinks=[MemorySink()])
    closed, ended, seen, fired = [], [], [], []
    with cls(seed=3, trace=bus) as sim:
        assert isinstance(sim, Simulation)
        assert sim.seed == 3 and sim.trace is bus
        assert sim.timers is sim.scheduler
        assert isinstance(sim.timers, Timers)
        if cls is not Simulation:
            assert not set(SHARED_SURFACE) & set(vars(cls))

        sim.register("a")
        sim.on_register(seen.append)        # replay=True: sees "a"
        sim.register("b")
        assert seen == ["a", "b"] == sim.components

        assert sim.at(1.5) == sim.time_origin + 1.5
        assert sim.elapsed == pytest.approx(sim.now - sim.time_origin,
                                            abs=0.05)
        sim.run_until_elapsed(0.03)
        assert sim.elapsed >= 0.03
        sim.run_until_elapsed(0.01)         # already past: returns at once
        sim.schedule_in(0.01, fired.append, "in")
        sim.schedule_at(sim.at(sim.elapsed + 0.02), fired.append, "at")
        before = sim.elapsed
        sim.run_for(0.04)
        assert fired == ["in", "at"]
        assert sim.elapsed >= before + 0.04

        sim.at_end(lambda: ended.append("end"))
        sim.finish()
        assert ended == ["end"]
        sim.add_cleanup(lambda: closed.append("cleanup"))
        assert closed == []
    assert closed == ["cleanup"]
    sim.close()                             # idempotent
    assert closed == ["cleanup"]


def test_virtual_time_scenario_axis_is_the_identity():
    """``time_origin == 0.0`` on virtual time, so the scenario-time
    vocabulary is bit-for-bit the raw clock (what keeps every golden)."""
    sim = Simulation(seed=1)
    assert sim.time_origin == 0.0
    for x in (0.0, 0.1, 1.0 / 3.0, 17.25, 1e-9):
        assert sim.at(x) == x
    sim.run_until_elapsed(1.0 / 3.0)
    assert sim.now == sim.elapsed == 1.0 / 3.0
    sim.close()                             # no cleanups: a no-op


class _Built(Exception):
    """Stops a point function once its Simulation is built."""


def test_handover_names_share_one_body(monkeypatch):
    """The one registered ``wifi_3g_handover`` runs on both tiers (there
    is no ``rt_handover``); the ``tier`` param picks the Simulation."""
    assert "rt_handover" not in SCENARIOS
    built = []
    simulation = CheckContext.simulation

    def spy(self, *args, **kwargs):
        with simulation(self, *args, **kwargs) as sim:
            built.append(type(sim))
        raise _Built

    monkeypatch.setattr(CheckContext, "simulation", spy)
    run = point_function("wifi_3g_handover")
    for tier in ("packet", "rt"):
        with pytest.raises(_Built):
            run(ScenarioSpec("wifi_3g_handover", {"tier": tier}, seed=1))
    assert built == [Simulation, RtSimulation]


def test_unknown_tier_is_named():
    spec = ScenarioSpec("wifi_3g_handover", {"tier": "fluid"}, seed=1)
    with pytest.raises(ValueError, match=r"'wifi_3g_handover' runs on "
                       r"tier packet \| rt, not 'fluid'"):
        point_function("wifi_3g_handover")(spec)


@pytest.mark.parametrize("scenario, tier", [
    ("torus_balance", "packet"), ("torus_hybrid", "hybrid"),
], ids=["torus_balance", "torus_hybrid"])
def test_packet_only_points_refuse_the_rt_tier(scenario, tier):
    """A point that declares no rt tier fails instead of running its
    simulated topology on the monotonic clock."""
    spec = ScenarioSpec(scenario, {"tier": "rt", "capacity_c": 250.0},
                        seed=1, warmup=0.1, duration=0.1)
    with pytest.raises(ValueError, match=f"'{scenario}' runs on tier "
                       f"{tier}, not 'rt'"):
        point_function(scenario)(spec)


@pytest.mark.realnet
def test_rt_run_event_declares_time_origin():
    sink = MemorySink()
    bus = TraceBus(sinks=[sink])
    with RtSimulation(seed=9, trace=bus):
        pass
    runs = sink.of_type("rt.run")
    assert len(runs) == 1
    assert runs[0]["backend"] == "rt"
    assert runs[0]["origin_mono"] == runs[0]["t"]
    assert runs[0]["seed"] == 9


# ---------------------------------------------------------------------------
# Netem (deterministic on the sim backend)
# ---------------------------------------------------------------------------

def test_netem_delay_and_rate_on_sim_backend():
    sim = Simulation(seed=1)
    chan = NetemChannel(sim, "p", "fwd",
                        NetemProfile(delay=0.1, rate_mbps=12.0))
    out = []
    # 12 Mb/s = 1000 pkt/s: 1 ms serialization + 100 ms delay each.
    for _ in range(3):
        assert chan.admit(b"x", 1.0, out.append)
    sim.run_until(0.1005)
    assert len(out) == 0                    # first arrives at 101 ms
    sim.run_until(0.1015)
    assert len(out) == 1
    sim.run_until(0.2)
    assert len(out) == 3
    assert chan.sent == 3 and chan.dropped == 0


def test_netem_outage_and_buffer_drop():
    sim = Simulation(seed=1)
    chan = NetemChannel(sim, "p", "fwd",
                        NetemProfile(rate_mbps=12.0, buffer_pkts=2))
    out = []
    results = [chan.admit(b"x", 1.0, out.append) for _ in range(4)]
    assert results == [True, True, False, False]    # drop-tail at 2
    chan.set_rate_mbps(0.0)                         # coverage outage
    assert chan.admit(b"x", 1.0, out.append) is False
    chan.set_rate_mbps(None)                        # unimpeded again
    assert chan.admit(b"x", 1.0, out.append) is True
    assert chan.dropped == 3


def test_netem_total_loss_drops_everything():
    sim = Simulation(seed=1)
    chan = NetemChannel(sim, "p", "fwd", NetemProfile(loss=1.0))
    assert chan.admit(b"x", 1.0, lambda d: None) is False
    assert chan.dropped == 1


def test_netem_occupancy_follows_the_clock_not_the_event_loop():
    """Drop-tail decides on the emulated line's occupancy *now*: a
    departure whose time has passed frees its slot even though no event
    has run since (on real sockets callbacks lag the clock by up to a
    selector round)."""
    sim = Simulation(seed=1)
    chan = NetemChannel(sim, "p", "fwd",
                        NetemProfile(rate_mbps=12.0, buffer_pkts=3))
    out = []
    assert [chan.admit(b"x", 1.0, out.append) for _ in range(4)] == [
        True, True, True, False]                    # departs at 1, 2, 3 ms
    assert chan.occupancy == 3
    sim.scheduler.now = 0.0015                      # no event has run
    assert chan.occupancy == 2
    assert chan.admit(b"x", 1.0, out.append) is True
    assert chan.occupancy == 3
    assert chan.admit(b"x", 1.0, out.append) is False
    assert sim.scheduler.events_run == 0


def test_netem_profiles_mirror_sim_wireless_parameters():
    assert PROFILES["wifi"].rate_mbps == 14.4
    assert PROFILES["wifi"].loss == 0.01
    assert PROFILES["3g"].rate_mbps == 2.1
    assert PROFILES["3g"].delay == 0.050
    lossy = profile_replace(PROFILES["lan"], loss=0.5)
    assert lossy.loss == 0.5 and lossy.rate_mbps == PROFILES["lan"].rate_mbps
    assert PROFILES["wifi"].reverse() == NetemProfile(delay=0.005)


# ---------------------------------------------------------------------------
# End-to-end over real sockets
# ---------------------------------------------------------------------------

@pytest.mark.realnet
def test_single_flow_transfer_over_loopback():
    with RtSimulation(seed=3) as sim:
        path = RtPath(sim, "p0", profile="lan")
        rcv = TcpReceiver(sim, name="f0.rx")
        snd = TcpSender(sim, make_controller("reno"), FiniteSource(150),
                        name="f0")
        snd.attach(path.route("f0"), rcv)
        snd.start()
        sim.run_until_elapsed(3.0)
        assert snd.completed
        assert rcv.packets_delivered == 150
        assert path.codec_errors == 0
        assert path.unknown_channels == 0


@pytest.mark.realnet
def test_two_subflow_lia_exactly_once_delivery():
    """The ISSUE acceptance bar: a 2-subflow MPTCP LIA transfer over
    real UDP sockets completes with exactly-once delivery, verified by
    the (unchanged) invariant monitor."""
    bus = TraceBus()
    with RtSimulation(seed=5, trace=bus) as sim:
        monitor = InvariantMonitor()
        monitor.attach(sim)
        flow = ManagedMptcpFlow(sim, make_controller("lia"),
                                transfer_packets=250, name="m")
        for i in range(2):
            path = RtPath(sim, f"p{i}", profile="lan")
            flow.add_path(path.route(f"m.p{i}"), name=f"p{i}")
        flow.start()
        sim.run_until_elapsed(4.0)
        assert flow.completed
        assert flow.packets_delivered == 250
        reasm = flow.receiver.reassembler
        assert reasm.delivered == 250
        assert reasm.data_cum_ack - reasm.delivered == 0
        monitor.finish()
        assert monitor.violations == 0


@pytest.mark.realnet
def test_rt_loopback_scenario_row():
    spec = ScenarioSpec(scenario="rt_loopback",
                        params={"algo": "lia", "tier": "rt", "check": 1},
                        seed=5, warmup=0.3, duration=1.2)
    row = point_function("rt_loopback")(spec)
    assert row["delivery_gap"] == 0
    assert row["violations"] == 0
    assert row["goodput_pps"] > 100        # 2 × 2 Mb/s paths ≈ 333 pkt/s
    assert row["subflows_opened"] == 2
    assert row["ctrl_frames"] >= 3         # MP_CAPABLE + ADD_ADDRs + MP_JOIN
    assert row["wire_errors"] == 0


@pytest.mark.realnet
def test_rt_handover_zero_delivery_gap():
    """WiFi→3G handover driven end-to-end through repro.pathmgr on the
    real backend: coverage loss mid-transfer, failover to 3G, recovery —
    with zero delivery gap across the migration."""
    spec = ScenarioSpec(scenario="wifi_3g_handover",
                        params={"algo": "lia", "tier": "rt", "check": 1},
                        seed=7, warmup=0.8, duration=3.6)
    row = point_function("wifi_3g_handover")(spec)
    assert row["handovers"] >= 1
    assert row["subflows_opened"] >= 3     # wifi, 3g standby, wifi rejoin
    assert row["delivery_gap"] == 0
    assert row["violations"] == 0
    assert row["outage_pps"] > 20          # 3G carried traffic through it
    assert row["wire_errors"] == 0


@pytest.mark.realnet
def test_rt_trace_validates_and_is_monotonic(tmp_path):
    """An rt run's JSONL trace passes the schema validator: monotonic
    ``t`` (raw monotonic-clock epoch) and an ``rt.run`` origin record."""
    out = str(tmp_path / "rt.jsonl")
    bus = TraceBus(sinks=[JsonlSink(out)])
    spec = ScenarioSpec(scenario="rt_loopback",
                        params={"algo": "lia", "tier": "rt", "check": 1},
                        seed=5, warmup=0.2, duration=0.8)
    with trace_override(bus):
        point_function("rt_loopback")(spec)
    bus.close()
    count = validate_jsonl(out)
    assert count > 50
    with open(out) as fh:
        first = json.loads(fh.readline())
    assert first["ev"] == "rt.run"


@pytest.mark.realnet
def test_series_recorder_rebases_rt_timestamps():
    with RtSimulation(seed=2) as sim:
        rec = SeriesRecorder(sim, interval=0.05)
        rec.add_probe("x", lambda: 1.0)
        rec.start()
        sim.run_until_elapsed(0.3)
        times, values = rec.series("x")
    assert len(times) >= 3
    # 0-based scenario axis despite the raw monotonic clock underneath.
    assert times[0] < 0.2
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


@pytest.mark.realnet
def test_reopened_subflow_gets_fresh_wire_channel():
    with RtSimulation(seed=4) as sim:
        path = RtPath(sim, "p0", profile="clean")
        route = path.route("f")
        r1 = TcpReceiver(sim, name="f.rx1")
        s1 = TcpSender(sim, make_controller("reno"), FiniteSource(5),
                       name="f1")
        s1.attach(route, r1)
        r2 = TcpReceiver(sim, name="f.rx2")
        s2 = TcpSender(sim, make_controller("reno"), FiniteSource(5),
                       name="f2")
        s2.attach(route, r2)
        assert len(path._channels) == 2
        s1.start()
        s2.start()
        sim.run_until_elapsed(1.0)
        # Channel isolation: each receiver saw only its own 5 packets.
        assert r1.packets_delivered == 5
        assert r2.packets_delivered == 5


@pytest.mark.realnet
def test_stray_datagram_never_reaches_the_codec():
    """Each socket is connected to its peer, so a third party that knows
    the server's port — even one replaying a perfectly valid frame —
    is filtered by the kernel."""
    with RtSimulation(seed=4) as sim:
        path = RtPath(sim, "p0", profile="clean")
        rcv = TcpReceiver(sim, name="f.rx")
        snd = TcpSender(sim, make_controller("reno"), FiniteSource(5),
                        name="f")
        snd.attach(path.route("f"), rcv)
        frame = encode(1, DataPacket((), None, seq=0, timestamp=sim.now),
                       pad_to=MSS_BYTES)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            stray.sendto(frame, path._server.sock.getsockname())
            stray.sendto(b"noise", path._server.sock.getsockname())
        sim.run_for(0.05)
        assert rcv.packets_delivered == 0
        assert (path.codec_errors, path.unknown_channels) == (0, 0)
        snd.start()                         # the real peer still gets in
        sim.run_until_elapsed(1.0)
        assert rcv.packets_delivered == 5
        assert (path.codec_errors, path.unknown_channels) == (0, 0)


def test_refused_send_is_a_counted_drop(monkeypatch):
    """Sends are direct: one the kernel refuses (full socket buffer) is
    dropped and counted, never queued or raised into a state machine."""

    class FullSocket:
        def send(self, datagram):
            raise BlockingIOError

    with RtSimulation(seed=1) as sim:
        path = RtPath(sim, "p0", profile="clean")
        with monkeypatch.context() as patch:
            patch.setattr(path._client, "sock", FullSocket())
            path.send_option(MpJoinOption(token=7))     # 2 ms of netem
            sim.run_for(0.02)
        assert path.socket_errors == 1
        assert path.options_received == []


def _paced_lia_transfer(sim):
    """Two-subflow LIA at 10 Mb/s per path, warmed up for 1.5 s."""
    profile = NetemProfile(delay=0.005, rate_mbps=10.0, buffer_pkts=100)
    flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m")
    for i in range(2):
        path = RtPath(sim, f"p{i}", profile=profile)
        flow.add_path(path.route(f"m.p{i}"), name=f"p{i}")
    flow.start()
    sim.run_for(1.5)
    return flow


@pytest.mark.realnet
class TestRtBudget:
    """The rt backend's cost in counts, not clocks (the twins of
    ``TestCallBudget`` / ``TestCheckBudget``): both fail on an event loop
    that wraps every timer and datagram in its own Python objects."""

    def test_calls_per_delivered_packet(self):
        with RtSimulation(seed=3) as sim:
            flow = _paced_lia_transfer(sim)
            base = flow.packets_delivered
            with python_calls() as calls:
                sim.run_for(1.5)
            delivered = flow.packets_delivered - base
        assert delivered > 1000             # 2 × 833 pkt/s line rate
        assert sum(calls.values()) / delivered <= 55
        assert calls["outside"] / delivered <= 5

    def test_no_large_allocation_per_datagram(self):
        """No allocation of 64 KiB or more on the per-datagram path: in
        nine of ten 5 ms slices (a dozen packets each) traced memory
        peaks less than that above where the slice began.  A receive
        buffer allocated per datagram — 256 KiB sits on glibc's mmap
        threshold, which made the backend's CPU cost bistable — puts
        *every* slice far above it.  (Not the worst slice: a burst of
        new 1.5 KB datagrams in flight, or a dict resize, is allowed.)"""
        with RtSimulation(seed=3) as sim:
            flow = _paced_lia_transfer(sim)
            base = flow.packets_delivered
            peaks = []
            tracemalloc.start()
            try:
                end = sim.now + 1.5
                while sim.now < end:
                    tracemalloc.reset_peak()
                    before, _ = tracemalloc.get_traced_memory()
                    sim.run_for(0.005)
                    _, peak = tracemalloc.get_traced_memory()
                    peaks.append(peak - before)
            finally:
                tracemalloc.stop()
            assert flow.packets_delivered - base > 1000
        assert sorted(peaks)[len(peaks) * 9 // 10] < 64 * 1024


def test_committed_rt_golden_trace_validates():
    """The committed rt golden trace (a handover run on the rt tier)
    passes schema validation — satellite proof that repro.obs handles
    real monotonic-clock timestamps end to end."""
    golden = (pathlib.Path(__file__).parent / "golden"
              / "trace_rt_handover.txt")
    assert validate_jsonl(str(golden)) == 22
    with open(golden) as fh:
        records = [json.loads(line) for line in fh]
    assert records[0]["ev"] == "rt.run"
    assert records[0]["backend"] == "rt"
    # The declared origin rebases every raw-monotonic timestamp to the
    # scenario-relative axis; all events land inside the run window.
    origin = records[0]["origin_mono"]
    assert records[0]["t"] == origin
    assert all(0.0 <= rec["t"] - origin < 10.0 for rec in records)
    events = {rec["ev"] for rec in records}
    assert "rt.channel_open" in events
    assert "rt.ctrl" in events
    assert "rt.netem" in events
    assert "pathmgr.handover" in events
