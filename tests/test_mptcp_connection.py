"""Behavioural tests for the multipath connection layer."""

import pytest

from repro.check import InvariantMonitor
from repro.core.registry import ALGORITHMS, make_controller
from repro.exp.golden import TraceDigest, golden_specs, run_golden_point
from repro.fault import arm_faults, resolve_faults
from repro.mptcp.connection import MptcpConnection, MptcpFlow
from repro.net.pipe import Pipe
from repro.net.queue import DropTailQueue
from repro.net.route import Route
from repro.obs import TraceBus
from repro.pathmgr import ManagedMptcpFlow
from repro.sim.simulation import Simulation
from repro.topology.scenarios import SWEEP_GRIDS

from conftest import python_calls


def two_path_routes(sim, rates=(500.0, 500.0), rtts=(0.1, 0.1),
                    buffers=(50, 50), losses=(0.0, 0.0)):
    routes = []
    queues = []
    for i, (rate, rtt, buf, p) in enumerate(zip(rates, rtts, buffers, losses)):
        q = DropTailQueue(sim, rate, buf, name=f"q{i}")
        pipe = Pipe(sim, rtt / 2, name=f"p{i}", loss_prob=p)
        routes.append(Route(sim, [q, pipe], reverse_delay=rtt / 2, name=f"r{i}"))
        queues.append(q)
    return routes, queues


class TestDataStriping:
    def test_stream_delivered_in_dsn_order(self):
        sim = Simulation(seed=1)
        routes, _ = two_path_routes(sim, rtts=(0.02, 0.3))  # very unequal
        flow = MptcpFlow(
            sim, routes, make_controller("mptcp"), transfer_packets=400, name="m"
        )
        order = []
        flow.receiver.reassembler.on_data = lambda dsn, pkt: order.append(dsn)
        flow.start()
        sim.run_until(60.0)
        assert flow.completed
        assert order == list(range(400))

    def test_each_dsn_assigned_once(self):
        sim = Simulation(seed=2)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(
            sim, routes, make_controller("mptcp"), transfer_packets=300, name="m"
        )
        flow.start()
        sim.run_until(60.0)
        assert flow.connection.scheduler.next_fresh_dsn == 300

    def test_both_subflows_carry_data(self):
        sim = Simulation(seed=3)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(sim, routes, make_controller("mptcp"), name="m")
        flow.start()
        sim.run_until(30.0)
        delivered = flow.subflow_delivered()
        assert all(d > 100 for d in delivered)

    def test_transfer_completes_under_loss(self):
        sim = Simulation(seed=4)
        routes, _ = two_path_routes(sim, losses=(0.02, 0.01))
        flow = MptcpFlow(
            sim, routes, make_controller("mptcp"), transfer_packets=500, name="m"
        )
        flow.start()
        sim.run_until(200.0)
        assert flow.completed
        assert flow.packets_delivered == 500

    def test_single_route_multipath_degenerates_gracefully(self):
        sim = Simulation(seed=5)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(
            sim, routes[:1], make_controller("mptcp"),
            transfer_packets=100, name="m",
        )
        flow.start()
        sim.run_until(30.0)
        assert flow.completed

    def test_needs_at_least_one_route(self):
        sim = Simulation(seed=6)
        with pytest.raises(ValueError):
            MptcpFlow(sim, [], make_controller("mptcp"))


class TestFlowControl:
    def test_sender_respects_shared_receive_buffer(self):
        """With a tiny shared buffer and a slow application, the amount of
        un-data-acked data outstanding must never exceed the pool."""
        sim = Simulation(seed=7)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(
            sim,
            routes,
            make_controller("mptcp"),
            name="m",
            receive_buffer=20,
            app_read_rate=200.0,
        )
        flow.start()
        conn = flow.connection
        for t in range(1, 100):
            sim.run_until(t * 0.2)
            outstanding = conn.scheduler.next_fresh_dsn - conn.data_acked
            assert outstanding <= 20 + 1
        assert flow.packets_delivered > 0

    def test_throughput_limited_by_app_read_rate(self):
        sim = Simulation(seed=8)
        routes, _ = two_path_routes(sim)  # 1000 pkt/s of path capacity
        flow = MptcpFlow(
            sim,
            routes,
            make_controller("mptcp"),
            name="m",
            receive_buffer=50,
            app_read_rate=100.0,
        )
        flow.start()
        sim.run_until(10.0)
        base = flow.packets_delivered
        sim.run_until(40.0)
        rate = (flow.packets_delivered - base) / 30.0
        assert rate == pytest.approx(100.0, rel=0.2)

    def test_listener_does_not_displace_pool_accounting(self):
        """``on_data`` belongs to whoever sets it: the receiver accounts
        for the pool from the reassembler's counters, so a listener (which
        used to replace the receiver's own) leaves the slow reader, and
        with it the advertised window, in force."""
        sim = Simulation(seed=8)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(
            sim, routes, make_controller("mptcp"), name="m",
            receive_buffer=50, app_read_rate=100.0,
        )
        order = []
        flow.receiver.reassembler.on_data = lambda dsn, pkt: order.append(dsn)
        flow.start()
        sim.run_until(10.0)
        base = flow.packets_delivered
        sim.run_until(40.0)
        assert (flow.packets_delivered - base) / 30.0 \
            == pytest.approx(100.0, rel=0.2)
        assert order == list(range(flow.packets_delivered))

    def test_zero_window_reopens_when_the_application_reads(self):
        """A pool smaller than one round trip of data closes the window to
        0; with nothing in flight no data arrival will ever carry a larger
        one, so the receiver must say so itself when the application has
        read (it used to deliver 4 packets and then nothing, for good).
        The update reaches the sender's refused-then-reopened kick.

        ``receive_buffer=2`` would be smaller than the subflows' initial
        windows together, and the sender cannot know the window before the
        first ACK: that overcommit is a handshake matter, not tested here.
        """
        sim = Simulation(seed=8, trace=TraceBus())
        monitor = InvariantMonitor().attach(sim)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(
            sim,
            routes,
            make_controller("mptcp"),
            name="m",
            receive_buffer=4,
            app_read_rate=50.0,
        )
        flow.start()
        delivered = 0
        for t in range(2, 42, 2):
            sim.run_until(float(t))
            assert flow.packets_delivered > delivered, f"stalled before t={t}"
            delivered = flow.packets_delivered
        monitor.finish()
        assert monitor.violations == 0
        # The ceiling is buffer/RTT = 40 pkt/s, not the 50 pkt/s reader.
        assert delivered >= 600

    def test_no_deadlock_when_one_subflow_stalls(self):
        """§6's shared-buffer argument: a stalled subflow must not wedge
        the connection once it recovers — the shared pool (plus subflow
        retransmission) drains the hole."""
        sim = Simulation(seed=9)
        routes, queues = two_path_routes(sim)
        flow = MptcpFlow(
            sim,
            routes,
            make_controller("mptcp"),
            name="m",
            receive_buffer=100,
        )
        flow.start()
        sim.run_until(5.0)
        queues[0].set_rate(0.0)       # outage on path 1
        sim.run_until(8.0)
        queues[0].set_rate(500.0)     # recovery
        sim.run_until(30.0)
        base = flow.packets_delivered
        sim.run_until(40.0)
        assert flow.packets_delivered > base + 1000  # flowing again


class TestDataAcks:
    def test_data_acks_advance_connection_state(self):
        sim = Simulation(seed=10)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(sim, routes, make_controller("mptcp"), name="m")
        flow.start()
        sim.run_until(10.0)
        assert flow.connection.data_acked > 0
        assert flow.connection.data_acked <= flow.connection.scheduler.next_fresh_dsn

    def test_every_subflow_ack_carries_data_ack(self):
        sim = Simulation(seed=11)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(sim, routes, make_controller("mptcp"), name="m")
        extensions = [r.ack_extension() for r in flow.receiver.subflow_receivers]
        assert all(ext[0] == 0 for ext in extensions)  # (data_ack, rwnd)

    def test_unlimited_buffer_advertises_none(self):
        sim = Simulation(seed=12)
        routes, _ = two_path_routes(sim)
        flow = MptcpFlow(sim, routes, make_controller("mptcp"), name="m")
        data_ack, rwnd = flow.receiver.subflow_receivers[0].ack_extension()
        assert rwnd is None


class TestReinjection:
    def test_dead_subflow_data_reinjected_on_other_path(self):
        """Extension: with reinjection on, data stranded on a dead subflow
        is retransmitted on the healthy one and the transfer completes."""
        sim = Simulation(seed=13)
        routes, queues = two_path_routes(sim)
        flow = MptcpFlow(
            sim,
            routes,
            make_controller("mptcp"),
            transfer_packets=2000,
            name="m",
            enable_reinjection=True,
        )
        flow.start()
        sim.run_until(1.0)
        queues[0].set_rate(0.0)  # path 1 dies and never recovers
        sim.run_until(120.0)
        assert flow.completed
        assert flow.connection.scheduler.reinjected > 0

    def test_without_reinjection_transfer_stalls_on_dead_path(self):
        sim = Simulation(seed=13)
        routes, queues = two_path_routes(sim)
        flow = MptcpFlow(
            sim,
            routes,
            make_controller("mptcp"),
            transfer_packets=2000,
            name="m",
            enable_reinjection=False,
        )
        flow.start()
        sim.run_until(1.0)
        queues[0].set_rate(0.0)
        sim.run_until(120.0)
        assert not flow.completed  # data mapped to the dead path is stuck


def _two_path_run(seed=3, end=12.0, algo="lia", kill_at=None, **flow_kwargs):
    """Two subflows of unequal RTT (50/200 ms); returns (digest, row).
    ``kill_at`` puts the flow under a path manager and kills the fast
    path's subflow then: the manager retires it and its stranded data is
    reinjected on the survivor."""
    digest = TraceDigest()
    sim = Simulation(seed=seed, trace=TraceBus(sinks=[digest]))
    routes, _ = two_path_routes(sim, rtts=(0.05, 0.2))
    controller = make_controller(algo)
    if kill_at is None:
        flow = MptcpFlow(sim, routes, controller, name="m", **flow_kwargs)
    else:
        flow = ManagedMptcpFlow(sim, controller, name="m", **flow_kwargs)
        for i, route in enumerate(routes):
            flow.add_path(route, name=f"p{i}")
        arm_faults(sim, resolve_faults(
            [{"kind": "subflow_kill", "target": "m.p0", "start": kill_at}]))
    flow.start()
    sim.run_until(end)
    conn = flow.connection
    row = {
        "delivered": flow.packets_delivered,
        "sent": [s.packets_sent for s in conn.subflows],
        "data_acked": conn.data_acked,
        "reinjected": conn.scheduler.reinjected,
        "completed": conn.completed,
    }
    return digest.hexdigest(), row


def _golden_point(grid, **params):
    """Runs the golden-window spec of ``grid`` matching ``params``."""

    def run():
        (spec,) = [
            s for s in golden_specs(grid)
            if all(s.params[k] == v for k, v in params.items())
        ]
        row, sha, _ = run_golden_point(spec)
        return sha, row

    return run


#: The multipath controllers of the registry: the zoo grid's nine, and
#: ``mptcp`` (the two-subflow unroll of eq. (1)) under "unconstrained".
ZOO = tuple(SWEEP_GRIDS["fig8_torus_zoo"]["parameters"]["algo"])

KICK_SCENARIOS = {
    "unconstrained": lambda: _two_path_run(algo="mptcp"),
    "bounded_buffer": lambda: _two_path_run(
        receive_buffer=20, app_read_rate=200.0),
    "finite_reinjection_subflow_kill": lambda: _two_path_run(
        end=30.0, transfer_packets=5000, kill_at=3.0),
    "handover_break_before_make": _golden_point(
        "wifi_3g_handover", algo="lia", mode="break_before_make"),
    "handover_make_before_break": _golden_point(
        "wifi_3g_handover", algo="lia", mode="make_before_break"),
    **{
        f"torus_{algo}": _golden_point(
            "fig8_torus_zoo", algo=algo, capacity_c=250.0)
        for algo in ZOO
    },
}


class TestKickElision:
    """``on_data_ack`` kicks the subflows only if some subflow was refused
    data since the last kick.  Forcing the flag before every data ACK is
    the always-kick behaviour that replaced; if the elided kicks could
    send anything, the two runs would part."""

    @staticmethod
    def _force_flag(monkeypatch, value):
        shipped = MptcpConnection.on_data_ack

        def on_data_ack(self, data_ack, rwnd):
            self._refused = value
            shipped(self, data_ack, rwnd)

        # Subflows bind connection.on_data_ack when they are built, so the
        # class is patched before the scenario exists.
        monkeypatch.setattr(MptcpConnection, "on_data_ack", on_data_ack)

    def test_scenarios_cover_the_registry(self):
        covered = {ALGORITHMS[name] for name in ZOO + ("mptcp",)}
        assert covered == set(ALGORITHMS.values()) - {ALGORITHMS["reno"]}

    @pytest.mark.parametrize("name", sorted(KICK_SCENARIOS))
    def test_always_kicking_changes_nothing(self, name, monkeypatch):
        shipped = KICK_SCENARIOS[name]()
        self._force_flag(monkeypatch, True)
        assert KICK_SCENARIOS[name]() == shipped

    def test_never_kicking_does(self, monkeypatch):
        """The control: the kicks that are kept do real work."""
        shipped = KICK_SCENARIOS["bounded_buffer"]()
        self._force_flag(monkeypatch, False)
        assert KICK_SCENARIOS["bounded_buffer"]() != shipped


class TestCallBudget:
    def test_calls_per_delivered_packet(self):
        """Python calls per delivered packet, by layer, over simulated
        seconds 2-12 of a two-subflow flow (RTTs 50/200 ms).  A count, not
        a clock: it repeats exactly, so re-growing the per-packet helper
        chains (26.3 tcp + mptcp calls before they were folded, 8.4 net)
        fails here rather than in a benchmark."""
        sim = Simulation(seed=3)
        routes, _ = two_path_routes(sim, rtts=(0.05, 0.2))
        flow = MptcpFlow(sim, routes, make_controller("mptcp"), name="m")
        flow.start()
        sim.run_until(2.0)
        base = flow.packets_delivered
        with python_calls() as calls:
            sim.run_until(12.0)
        delivered = flow.packets_delivered - base
        assert delivered == 10134
        assert (calls["tcp"] + calls["mptcp"]) / delivered <= 15.0
        assert calls["net"] / delivered <= 7.6
