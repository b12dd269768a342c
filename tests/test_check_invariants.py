"""The invariant monitor (repro.check): clean runs stay clean, broken
protocol behaviour is caught at the offending event with a replayable
trace-tail, and the pytest ``invariants`` marker wires the monitor into
the shared ``sim`` fixture."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantMonitor, InvariantViolation, trace_override
from repro.core.mptcp_lia import LinkedIncreasesController
from repro.core.registry import make_controller
from repro.exp import ScenarioSpec, TaskSpec, execute_task
from repro.harness.experiment import make_flow
from repro.mptcp.connection import MptcpFlow
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.obs import MemorySink, TraceBus, validate_event
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow

from conftest import bottleneck_route, lossy_route

pytestmark = pytest.mark.invariants


def _monitored(seed=42):
    sink = MemorySink()
    bus = TraceBus(sinks=[sink])
    simulation = Simulation(seed=seed, trace=bus)
    monitor = InvariantMonitor().attach(simulation)
    return simulation, monitor, sink


class TestFixtureWiring:
    def test_marked_test_gets_monitored_sim(self, sim):
        # The `invariants` module marker makes the sim fixture attach a
        # monitor; everything this test builds is auto-watched.
        monitor = sim.check_monitor
        assert isinstance(monitor, InvariantMonitor)
        route, queue = bottleneck_route(sim, rate_pps=500.0)
        flow = TcpFlow(sim, route, make_controller("reno"), name="f")
        flow.start()
        sim.run_until(8.0)
        assert queue in monitor.queues
        assert flow.sender in monitor.senders
        assert monitor.events_seen > 0
        assert monitor.checks_run > monitor.events_seen
        assert monitor.violations == 0

    def test_attach_requires_a_trace_bus(self):
        with pytest.raises(ValueError, match="TraceBus"):
            InvariantMonitor().attach(Simulation(seed=1))


class TestCleanRunsSatisfyInvariants:
    def test_multipath_with_shared_buffer_flow_control(self, sim):
        # The tightest invariant surface: bounded shared buffer, slow
        # application, lossy paths — buffer accounting, DSN monotonicity
        # and exactly-once delivery all checked at every event.
        routes = [
            lossy_route(sim, 0.01, name="a"),
            lossy_route(sim, 0.03, name="b"),
        ]
        flow = MptcpFlow(
            sim, routes, make_controller("lia"), name="m",
            receive_buffer=32, app_read_rate=800.0,
        )
        flow.start()
        sim.run_until(12.0)
        sim.check_monitor.finish()
        assert flow.packets_delivered > 0
        assert sim.check_monitor.violations == 0

    def test_conservation_tolerates_counter_resets(self, sim):
        # torus_balance resets queue counters mid-run; the conservation
        # check must rebase instead of flagging the discontinuity.
        route, queue = bottleneck_route(sim, rate_pps=400.0, buffer_pkts=20)
        flow = TcpFlow(sim, route, make_controller("reno"), name="f")
        flow.start()
        sim.run_until(4.0)
        queue.reset_counters()
        sim.run_until(8.0)
        sim.check_monitor.finish()
        assert sim.check_monitor.violations == 0


class TestCounterResets:
    """``reset_counters()`` is told from a leak by the queue's monotonic
    ``total_*`` counters, not by guessing from ``arrivals`` going
    backwards."""

    @staticmethod
    def _running_bottleneck():
        simulation, monitor, _ = _monitored()
        route, queue = bottleneck_route(
            simulation, rate_pps=400.0, buffer_pkts=20
        )
        flow = TcpFlow(simulation, route, make_controller("reno"), name="f")
        flow.start()
        simulation.run_until(1.0)
        assert queue.occupancy > 0  # the reset below shifts the balance
        return simulation, monitor, queue

    def test_reset_unseen_between_sweeps_is_not_a_leak(self):
        # With the bus paused the monitor next looks at the queue after
        # ``arrivals`` has grown back past its pre-reset value, so nothing
        # "went backwards" — the old heuristic called this a leak.
        simulation, monitor, queue = self._running_bottleneck()
        simulation.trace.pause()
        queue.reset_counters()
        simulation.run_until(6.0)
        assert queue.arrivals > 400
        monitor.finish()
        assert monitor.violations == 0

    def test_leak_coincident_with_a_reset_is_caught(self):
        # The old heuristic re-based on whatever balance it found after a
        # reset, absorbing a leak that fell between the same two sweeps.
        simulation, monitor, queue = self._running_bottleneck()
        occ = queue.occupancy
        queue.reset_counters()
        queue.drops += 2
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run_until(6.0)
        assert excinfo.value.invariant == "queue_conservation"
        assert excinfo.value.detail.endswith(
            f"(balance {-occ - 2}, expected {-occ})"
        )


class TestPinnedCounters:
    def test_fixed_seed_torus_point_counts_the_same_checks(self):
        # The sweep points and what each sweep counts are contract: the
        # literal goldens carry check.stats lines.  One sweep per record,
        # one check per watched queue and receiver per sweep.
        sink = MemorySink()
        spec = ScenarioSpec(
            "torus_balance", seed=1, warmup=0.5, duration=1.0,
            params={"algo": "lia", "capacity_c": 250.0, "check": 1},
        )
        with trace_override(TraceBus(sinks=[sink])):
            row = execute_task(TaskSpec(0, spec))
        (stats,) = sink.of_type("check.stats")
        assert (stats["events"], stats["checks"]) == (22081, 341120)
        assert stats["violations"] == row["violations"] == 0


class _Discard:
    """Route tail: swallows whatever the last queue serves."""

    def receive(self, packet):
        pass


class TestSweepAgreesWithOracle:
    """The sweep only compares a queue's since-reset balance with the one
    it expects and hands anything else to its slow path; an oracle that
    recomputes every queue invariant from scratch over the ``total_*``
    counters must agree with it at every step of any interleaving of
    traffic, counter resets and corruption."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"), st.integers(0, 1)),
            st.tuples(st.just("service")),
            st.tuples(st.just("reset"), st.integers(0, 1)),
            st.tuples(
                st.just("corrupt"), st.integers(0, 1),
                st.sampled_from(
                    ["arrivals", "departures", "drops", "capacity"]
                ),
                st.integers(-3, 3).filter(bool),
            ),
        ),
        min_size=1,
        max_size=60,
    )

    @staticmethod
    def _oracle(queues):
        """(invariant, queue name) of the first broken queue invariant, in
        the sweep's order, or None."""
        for queue in queues:
            occ = queue.occupancy
            if not 0 <= occ <= queue.capacity:
                return "queue_bounds", queue.name
            # Both queues were created empty, so the conserved total is 0.
            if (
                queue.total_arrivals - queue.total_departures
                - queue.total_drops - occ
            ):
                return "queue_conservation", queue.name
        return None

    @given(ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_monitor_raises_exactly_when_the_oracle_does(self, ops):
        simulation, monitor, _ = _monitored(seed=1)
        # Capacity 3 so overflow drops happen; a service takes 1 s.
        queues = [
            DropTailQueue(simulation, 1.0, 3, name=f"q{i}", jitter=0.0)
            for i in range(2)
        ]
        elements = queues + [_Discard()]
        for op in ops:
            undo = None
            if op[0] == "enqueue":
                packet = Packet(elements, 1.0, None)
                packet.hop = op[1]
                elements[op[1]].receive(packet)
            elif op[0] == "service":
                simulation.run(max_events=1)
            elif op[0] == "reset":
                queues[op[1]].reset_counters()
            else:
                _, index, field, delta = op
                undo = (queues[index], field, getattr(queues[index], field))
                setattr(queues[index], field, undo[2] + delta)
            expected = self._oracle(queues)
            try:
                # Any record makes the monitor sweep; this one marks the
                # end of the step.
                simulation.trace.emit("test.step", simulation.now)
                raised = None
            except InvariantViolation as violation:
                raised = (
                    violation.invariant,
                    violation.detail.split("'")[1],
                )
            assert raised == expected, op
            if expected is not None:
                # Repair, as a violation ends a real run: every step
                # starts from a state the oracle accepts.
                setattr(*undo)
        monitor.finish()


class TestViolationsAreCaught:
    def test_lia_increase_beyond_uncoupled_bound(self, monkeypatch):
        # The acceptance scenario: mutate LIA to grow faster than 1/w per
        # ACK (breaking §2.5's constraint (4)); the monitor must stop the
        # run at the first offending ACK.
        def too_aggressive(self, subflow):
            subflow.cwnd += 2.0 / subflow.cwnd + 0.5

        monkeypatch.setattr(LinkedIncreasesController, "on_ack", too_aggressive)
        simulation, monitor, sink = _monitored()
        routes = [
            lossy_route(simulation, 0.01, name="a"),
            lossy_route(simulation, 0.02, name="b"),
        ]
        flow = MptcpFlow(simulation, routes, make_controller("lia"), name="m")
        flow.start()
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run_until(20.0)
        violation = excinfo.value
        assert violation.invariant == "coupled_increase_bound"
        assert "lia" in violation.detail
        # The exception carries a replayable trace-tail: real, schema-valid
        # records in emission order, ending just before the violation.
        assert violation.tail
        for record in violation.tail:
            assert validate_event(record) == []
        indices = [r["i"] for r in violation.tail]
        assert indices == sorted(indices)
        # A check.violation record went out on the bus before the raise.
        (emitted,) = sink.of_type("check.violation")
        assert emitted["invariant"] == "coupled_increase_bound"
        assert emitted["tail"] == len(violation.tail)
        assert validate_event(emitted) == []

    def test_queue_conservation_tamper(self):
        simulation, monitor, _ = _monitored()
        route, queue = bottleneck_route(simulation, rate_pps=400.0)
        flow = TcpFlow(simulation, route, make_controller("reno"), name="f")
        flow.start()
        simulation.run_until(2.0)
        queue.drops += 3  # claim drops that never happened
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run_until(4.0)
        assert excinfo.value.invariant == "queue_conservation"
        assert queue.name in excinfo.value.detail

    @pytest.mark.parametrize(
        "tamper",
        ["queue_over_capacity", "extra_delivery", "negative_unread",
         "buffer_over_capacity"],
    )
    def test_sweep_catches_state_tamper(self, tamper):
        # The sweep's other four violation branches (queue_conservation is
        # the test above): break one field between two events and the
        # very next record — the engine firing the next event, before any
        # callback has touched the state — must carry the violation.
        simulation, monitor, _ = _monitored()
        routes = [
            bottleneck_route(simulation, rate_pps=400.0, name="a")[0],
            bottleneck_route(simulation, rate_pps=300.0, name="b")[0],
        ]
        flow = MptcpFlow(
            simulation, routes, make_controller("lia"), name="m",
            receive_buffer=64, app_read_rate=200.0,
        )
        flow.start()
        simulation.run_until(1.0)  # queue and shared buffer both non-empty
        queue = routes[0].queues[0]
        receiver = flow.receiver
        reassembler, buffer = receiver.reassembler, receiver.buffer
        if tamper == "queue_over_capacity":
            occ = queue.occupancy
            assert occ > 0
            queue.capacity = occ - 1
            invariant = "queue_bounds"
            detail = f"queue 'a.q' occupancy {occ} outside [0, {occ - 1}]"
        elif tamper == "extra_delivery":
            reassembler.delivered += 1
            invariant = "exactly_once_delivery"
            detail = (
                f"receiver 'm.rx' delivered {reassembler.delivered} packets "
                f"but the data cumulative ACK is {reassembler.data_cum_ack}; "
                f"every DSN below it must be delivered exactly once"
            )
        elif tamper == "negative_unread":
            buffer.unread = -1
            invariant = "receive_buffer_bound"
            detail = "receiver 'm.rx' has negative unread count -1"
        else:
            occ = buffer.occupancy
            assert occ > 1
            buffer.capacity = occ - 1
            invariant = "receive_buffer_bound"
            detail = (
                f"receiver 'm.rx' shared buffer holds {occ} > capacity "
                f"{occ - 1} ({reassembler.buffered} out-of-order + "
                f"{buffer.unread} unread)"
            )
        next_index = simulation.trace.events_emitted
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run_until(2.0)
        violation = excinfo.value
        assert violation.invariant == invariant
        assert violation.detail == detail
        assert violation.event["ev"] == "engine.event_fired"
        assert violation.event["i"] == next_index
        # write() appends before it checks: the tail ends with the
        # offending record itself.
        assert violation.tail[-1] is violation.event
        assert len(violation.tail) == monitor.tail.maxlen
        for record in violation.tail:
            assert validate_event(record) == []

    def test_out_of_order_delivery_event(self):
        simulation, monitor, _ = _monitored()
        bus = simulation.trace
        bus.emit("pkt.deliver", 0.0, flow="f", seq=0, dsn=None)
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit("pkt.deliver", 0.1, flow="f", seq=2, dsn=None)
        assert excinfo.value.invariant == "exactly_once_delivery"
        assert excinfo.value.event["seq"] == 2

    def test_dsn_ack_regression_event(self):
        simulation, monitor, _ = _monitored()
        bus = simulation.trace
        bus.emit("mptcp.dsn_ack", 0.0, conn="m", data_ack=10, rwnd=None)
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit("mptcp.dsn_ack", 0.1, conn="m", data_ack=10, rwnd=None)
        assert excinfo.value.invariant == "dsn_monotonic"

    def test_nonpositive_cwnd_event(self):
        simulation, monitor, _ = _monitored()
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.trace.emit(
                "cc.cwnd_update", 0.0, flow="f", cwnd=0.0, ssthresh=None,
                reason="ack",
            )
        assert excinfo.value.invariant == "window_sanity"


class TestLifecycleRecords:
    def test_attach_and_stats_records_are_emitted_and_valid(self):
        simulation, monitor, sink = _monitored()
        route, _ = bottleneck_route(simulation, rate_pps=400.0)
        flow = TcpFlow(simulation, route, make_controller("reno"), name="f")
        monitor.emit_attach(faults=0)
        flow.start()
        simulation.run_until(3.0)
        monitor.finish()
        (attach,) = sink.of_type("check.attach")
        assert attach["queues"] >= 1 and attach["senders"] == 1
        assert attach["faults"] == 0
        (stats,) = sink.of_type("check.stats")
        assert stats["events"] == monitor.events_seen
        assert stats["violations"] == 0
        for record in (attach, stats):
            assert validate_event(record) == []

    def test_finish_is_idempotent(self):
        simulation, monitor, sink = _monitored()
        monitor.finish()
        monitor.finish()
        assert len(sink.of_type("check.stats")) == 1

    def test_cubic_is_exempt_from_the_increase_bound(self, sim):
        # CUBIC's window growth is deliberately not per-ACK bounded; the
        # monitor must not flag it.
        route, _ = bottleneck_route(sim, rate_pps=600.0, buffer_pkts=40)
        flow = TcpFlow(sim, route, make_controller("cubic"), name="c")
        flow.start()
        sim.run_until(10.0)
        sim.check_monitor.finish()
        assert sim.check_monitor.violations == 0
