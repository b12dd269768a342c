"""The invariant monitor (repro.check): clean runs stay clean, broken
protocol behaviour is caught at the next record naming the broken
component (or by ``finish()``) with a replayable trace-tail, and the
pytest ``invariants`` marker wires the monitor into the shared ``sim``
fixture."""

import collections
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantMonitor, InvariantViolation, trace_override
from repro.check import hooks
from repro.cli import main
from repro.core.mptcp_lia import LinkedIncreasesController
from repro.core.registry import make_controller
from repro.exp import ScenarioSpec, TaskSpec, execute_task, specs_for_grid
from repro.harness.experiment import make_flow
from repro.mptcp.connection import MptcpFlow
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.obs import DEFAULT_EVENTS, MemorySink, TraceBus, validate_event
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow
from repro.topology.scenarios import build_fixed_loss_route

from conftest import bottleneck_route, python_calls

pytestmark = pytest.mark.invariants


def _monitored(seed=42):
    sink = MemorySink()
    bus = TraceBus(sinks=[sink])
    simulation = Simulation(seed=seed, trace=bus)
    monitor = InvariantMonitor().attach(simulation)
    return simulation, monitor, sink


#: The field by which a record names a watched component, per event type.
NAMING_FIELD = {
    "pkt.enqueue": "queue", "pkt.drop": "elem",
    "pkt.deliver": "flow", "mptcp.dsn_ack": "conn",
}


@pytest.fixture
def point_monitors(monkeypatch):
    """Every monitor a point function's CheckContext builds, in order."""
    monitors = []
    monkeypatch.setattr(
        "repro.check.invariants.InvariantMonitor",
        lambda: monitors.append(InvariantMonitor()) or monitors[-1],
    )
    return monitors


class TestFixtureWiring:
    def test_marked_test_gets_monitored_sim(self, sim):
        # The `invariants` module marker makes the sim fixture attach a
        # monitor; everything this test builds is auto-watched.
        monitor = sim.check_monitor
        assert isinstance(monitor, InvariantMonitor)
        sink = sim.trace.add_sink(MemorySink())
        route, queue = bottleneck_route(sim, rate_pps=500.0)
        flow = TcpFlow(sim, route, make_controller("reno"), name="f")
        controller, on_acks = flow.sender.controller, []
        checked_on_ack = controller.on_ack  # the monitor's wrapper
        controller.on_ack = lambda subflow: (
            on_acks.append(subflow), checked_on_ack(subflow))
        flow.start()
        sim.run_until(8.0)
        assert queue in monitor.queues
        assert flow.sender in monitor.senders
        # The fixture's bus carries no scheduler records, and the monitor
        # saw every record the bus did.
        assert not sink.of_type("engine.event_fired")
        assert monitor.events_seen == len(sink) > 0
        # Each record ran the check of its own fields plus one per
        # component it names — the queue for an enqueue or a drop, nothing
        # further for a plain TCP delivery (no multipath receiver is
        # watched) or a window update — and each congestion-avoidance
        # on_ack ran the increase bound.  Nothing else counts as a check.
        count = collections.Counter(record["ev"] for record in sink)
        assert count["pkt.enqueue"] and count["pkt.deliver"] and on_acks
        assert monitor.checks_run == (
            2 * count["pkt.enqueue"] + count["pkt.drop"]
            + count["pkt.deliver"] + count["cc.cwnd_update"] + len(on_acks)
        )
        assert monitor.violations == 0

    def test_attach_requires_a_trace_bus(self):
        with pytest.raises(ValueError, match="TraceBus"):
            InvariantMonitor().attach(Simulation(seed=1))

    def test_attach_refuses_a_bus_that_hides_checked_types(self):
        # A bus filtered to pkt.drop used to starve a check=1 point's
        # monitor silently: it ran about a ninth of its checks.
        hidden = "cc.cwnd_update, mptcp.dsn_ack, pkt.deliver, pkt.enqueue"
        narrow = TraceBus(events={"pkt.drop"})
        with pytest.raises(ValueError, match=hidden):
            InvariantMonitor().attach(Simulation(seed=1, trace=narrow))
        with trace_override(TraceBus(events={"pkt.drop"})):
            with pytest.raises(ValueError, match=hidden):
                execute_task(TaskSpec(0, PINNED_SPEC))


class TestCleanRunsSatisfyInvariants:
    def test_multipath_with_shared_buffer_flow_control(self, sim):
        # The tightest invariant surface: bounded shared buffer, slow
        # application, lossy paths — buffer accounting, DSN monotonicity
        # and exactly-once delivery all checked at every event.
        routes = [
            build_fixed_loss_route(sim, 0.01, name="a"),
            build_fixed_loss_route(sim, 0.03, name="b"),
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


PINNED_SPEC = ScenarioSpec(
    "torus_balance", seed=1, warmup=0.5, duration=1.0,
    params={"algo": "lia", "capacity_c": 250.0, "check": 1},
)


class TestPinnedCounters:
    def test_fixed_seed_torus_point_counts_the_same_checks(self):
        # Which record checks what is contract: the literal goldens carry
        # check.stats lines.  A record counts one check for its own fields
        # (none for pkt.drop, which has no field check) and one per
        # component it names; here every name resolves to exactly one:
        #   2 x (4325 pkt.enqueue + 3535 pkt.deliver + 959 mptcp.dsn_ack)
        #   + 850 pkt.drop + 937 cc.cwnd_update
        #   + 150 congestion-avoidance on_ack calls (the increase bound)
        #   + 15 (finish(): 10 queues + 5 receivers)         = 19590
        # and the 820 tcp.fast_retransmit records bring events to 11426.
        sink = MemorySink()
        with trace_override(TraceBus(sinks=[sink], events=DEFAULT_EVENTS)):
            row = execute_task(TaskSpec(0, PINNED_SPEC))
        (stats,) = sink.of_type("check.stats")
        (attach,) = sink.of_type("check.attach")
        count = collections.Counter(record["ev"] for record in sink)
        del count["check.attach"], count["check.stats"]
        assert stats["events"] == sum(count.values())
        assert stats["checks"] - 150 == (
            2 * (count["pkt.enqueue"] + count["pkt.deliver"]
                 + count["mptcp.dsn_ack"])
            + count["pkt.drop"] + count["cc.cwnd_update"]
            + attach["queues"] + attach["buffers"]
        )
        assert (stats["events"], stats["checks"]) == (11426, 19590)
        assert stats["violations"] == row["violations"] == 0

    def test_cli_and_runner_monitor_the_same_records(
        self, tmp_path, point_monitors
    ):
        # `repro point --trace` hands the point its own bus, execute_task
        # lets the point build a private one; both are DEFAULT_EVENTS
        # buses, so the monitor counts the same records and checks either
        # way.  With no --param the CLI runs the Fig 8 grid's first point.
        out = tmp_path / "check.jsonl"
        assert main(["point", "torus_balance", "--seed", "1",
                     "--warmup", "0.5", "--duration", "1",
                     "--trace", str(out)]) == 0
        sink = MemorySink()
        with open(out) as fh:
            for line in fh:
                sink.write(json.loads(line))
        (cli_stats,) = sink.of_type("check.stats")
        params = dict(specs_for_grid("fig8_torus")[0].params, check=1)
        execute_task(TaskSpec(0, ScenarioSpec(
            "torus_balance", seed=1, warmup=0.5, duration=1.0, params=params,
        )))
        _, monitor = point_monitors  # the CLI's, then this one
        assert not monitor.bus.records("engine.event_fired")
        assert monitor.stats() == {
            key: cli_stats[key] for key in ("events", "checks", "violations")
        }


class _Discard:
    """Route tail: swallows whatever the last queue serves."""

    def receive(self, packet):
        pass


class TestSweepAgreesWithOracle:
    """The monitor's fast path compares a queue's counters once and hands
    anything else to its slow path; an oracle that recomputes every queue
    invariant from scratch must agree with it — about the queue a record
    names at every step of any interleaving of traffic and corruption,
    and about both queues at ``finish()``."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"), st.integers(0, 1)),
            st.tuples(st.just("service")),
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
        the monitor's order, or None."""
        for queue in queues:
            occ = queue.occupancy
            if not 0 <= occ <= queue.capacity:
                return "queue_bounds", queue.name
            # Both queues were created empty, so the conserved total is 0.
            if queue.arrivals - queue.departures - queue.drops - occ:
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

        def outcome(look):
            try:
                look()
            except InvariantViolation as violation:
                return violation.invariant, violation.detail.split("'")[1]
            return None

        for step, op in enumerate(ops):
            undo = None
            if op[0] == "service":
                departed = [queue.departures for queue in queues]
                simulation.run(max_events=1)
                touched = [
                    queue for queue, before in zip(queues, departed)
                    if queue.departures != before
                ]
            else:
                touched = [queues[op[1]]]
                if op[0] == "enqueue":
                    packet = Packet(elements, 1.0, None)
                    packet.hop = op[1]
                    elements[op[1]].receive(packet)
                else:
                    _, _, field, delta = op
                    undo = (touched[0], field, getattr(touched[0], field))
                    setattr(touched[0], field, undo[2] + delta)
            # The step ends with one record per queue, the one it touched
            # last (an injected drop: no field check, only the live state
            # of the queue it names).  The monitor looks at that queue
            # alone: damage to the other is not this record's to report.
            for queue in sorted(queues, key=touched.__contains__):
                expected = self._oracle([queue])
                raised = outcome(lambda: simulation.trace.emit(
                    "pkt.drop", simulation.now, elem=queue.name,
                    kind="fault", flow=None, seq=None,
                ))
                assert raised == expected, op
                if expected is not None and step < len(ops) - 1:
                    # Repair, as a violation ends a real run: every step
                    # starts from a state the oracle accepts.  The last
                    # step's damage is left for finish() to find again.
                    setattr(*undo)
        assert outcome(monitor.finish) == self._oracle(queues)


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
            build_fixed_loss_route(simulation, 0.01, name="a"),
            build_fixed_loss_route(simulation, 0.02, name="b"),
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
        # first later record *naming the tampered component* — an enqueue
        # or drop at ``a.q``, a delivery or data ACK of ``m`` — must carry
        # the violation; the records before it name something else and
        # must not.
        simulation, monitor, sink = _monitored()
        routes = [
            bottleneck_route(simulation, rate_pps=400.0, name="a")[0],
            bottleneck_route(simulation, rate_pps=300.0, name="b")[0],
        ]
        flow = MptcpFlow(
            simulation, routes, make_controller("lia"), name="m",
            receive_buffer=64, app_read_rate=200.0,
        )
        flow.start()
        # Queue and shared buffer both non-empty, and the next arrival at
        # ``a.q`` finds it no emptier: a lowered capacity is the one tamper
        # here that a departure would cure before anything names the queue.
        simulation.run_until(1.5)
        queue = routes[0].queues[0]
        receiver = flow.receiver
        reassembler, buffer = receiver.reassembler, receiver.buffer
        named = {("pkt.deliver", "m.sf0"), ("pkt.deliver", "m.sf1"),
                 ("mptcp.dsn_ack", "m")}
        if tamper == "queue_over_capacity":
            occ = queue.occupancy
            assert occ > 0
            queue.capacity = occ - 1
            invariant = "queue_bounds"
            detail = f"queue 'a.q' occupancy {occ} outside [0, {occ - 1}]"
            named = {("pkt.enqueue", "a.q"), ("pkt.drop", "a.q")}
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
        later = [r for r in sink if r["i"] >= next_index]
        assert later.pop()["ev"] == "check.violation"  # the only one, last
        names = [(r["ev"], r.get(NAMING_FIELD.get(r["ev"]))) for r in later]
        # Records came and went between the tamper and the report (the
        # engine firing the next event, at the least), none naming the
        # component; the one that does is the last the run emitted.
        assert len(later) > 1
        assert named.isdisjoint(names[:-1]) and names[-1] in named
        assert violation.event is later[-1]
        # write() appends before it checks: the tail ends with the
        # reporting record itself.
        assert violation.tail[-1] is violation.event
        assert len(violation.tail) == monitor.tail.maxlen
        for record in violation.tail:
            assert validate_event(record) == []

    def test_tamper_on_a_component_never_named_again_waits_for_finish(self):
        # Nothing flows over route ``b``, so no record ever names ``b.q``:
        # the run goes on past the damage and finish()'s full sweep, which
        # has no record to blame, reports it.
        simulation, monitor, sink = _monitored()
        route, _ = bottleneck_route(simulation, rate_pps=400.0, name="a")
        _, idle = bottleneck_route(simulation, rate_pps=300.0, name="b")
        flow = TcpFlow(simulation, route, make_controller("reno"), name="f")
        flow.start()
        simulation.run_until(1.0)
        idle.drops += 1
        simulation.run_until(2.0)
        assert monitor.violations == 0
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.finish()
        violation = excinfo.value
        assert violation.invariant == "queue_conservation"
        assert violation.detail == (
            "queue 'b.q' leaks packets: arrivals 0 != departures 0 + "
            "drops 1 + occupancy 0 (balance -1, expected 0)"
        )
        assert violation.event is None
        assert violation.tail[-1] is list(sink)[-2]  # then check.violation

    @pytest.mark.parametrize("name", ["", "twin"])
    def test_queues_sharing_a_name_are_checked_together(self, name):
        # A name that is empty or used twice cannot tell its queues apart,
        # so a record carrying it checks all of them: damage to the second
        # is reported by the first's next enqueue.
        simulation, monitor, _ = _monitored()
        first, second = [
            DropTailQueue(simulation, 100.0, 5, name=name) for _ in range(2)
        ]
        DropTailQueue(simulation, 100.0, 5, name="other").arrivals += 1
        second.arrivals += 1
        packet = Packet([first, _Discard()], 1.0, None)
        with pytest.raises(InvariantViolation) as excinfo:
            first.receive(packet)
        assert excinfo.value.invariant == "queue_conservation"
        assert excinfo.value.event["ev"] == "pkt.enqueue"
        assert excinfo.value.event["queue"] == name
        assert monitor.checks_run == 3  # the occ field, first, second
        # The differently-named queue was not that record's to check.
        second.arrivals -= 1
        with pytest.raises(InvariantViolation, match="'other'"):
            monitor.finish()

    def test_unresolved_flow_checks_every_receiver(self):
        # ``m2`` never starts, so nothing names it and the records of
        # ``m1`` (which resolve to m1's receiver alone) run on past its
        # damage; a delivery whose flow the monitor cannot place checks
        # every receiver it watches — too much, never nothing.
        simulation, monitor, _ = _monitored()
        flows = [
            MptcpFlow(
                simulation,
                [bottleneck_route(simulation, 400.0, name=f"{name}.a")[0]],
                make_controller("lia"), name=name,
            )
            for name in ("m1", "m2")
        ]
        flows[0].start()
        simulation.run_until(0.5)
        flows[1].receiver.reassembler.delivered += 1
        simulation.run_until(1.0)
        assert flows[0].packets_delivered > 0 and monitor.violations == 0
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.trace.emit(
                "pkt.deliver", simulation.now, flow="stranger", seq=0, dsn=0
            )
        assert excinfo.value.invariant == "exactly_once_delivery"
        assert excinfo.value.detail.startswith("receiver 'm2.rx' delivered 1 ")

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


class TestTraceOverride:
    def test_none_is_a_no_op_and_blocks_nest(self):
        # A point's records land on the innermost bus that is not None,
        # and leaving a block puts the enclosing override back in force
        # (entering one with None used to clear it, for good).
        outer_sink, inner_sink = MemorySink(), MemorySink()
        outer, inner = (
            TraceBus(sinks=[sink], events=DEFAULT_EVENTS)
            for sink in (outer_sink, inner_sink)
        )

        def runs():
            context = hooks.CheckContext.from_spec(PINNED_SPEC)
            context.simulation()
            context.arm()  # emits check.attach onto the point's bus
            return [len(sink.of_type("check.attach"))
                    for sink in (outer_sink, inner_sink)]

        with trace_override(outer):
            with trace_override(None):
                assert runs() == [1, 0]
            with trace_override(inner):
                with trace_override(None):
                    assert runs() == [1, 1]
                assert runs() == [1, 2]
            assert runs() == [2, 2]
        assert runs() == [2, 2]  # no override left: a private bus

    def test_observe_simulations_sees_each_sim_and_blocks_nest(self):
        outer, inner = [], []

        def build():
            return hooks.CheckContext.from_spec(PINNED_SPEC).simulation()

        with hooks.observe_simulations(outer.append):
            first = build()
            with hooks.observe_simulations(None):
                second = build()
            with hooks.observe_simulations(inner.append):
                third = build()
        build()  # no observer left
        assert outer == [first, second, third] and inner == [third]


class TestCheckBudget:
    def test_calls_and_records_per_engine_event(self, point_monitors):
        """Python calls inside repro/check + repro/obs, and records handed
        to the monitor, per engine event of the pinned checked point.  A
        count, not a clock: it repeats exactly, so re-growing the
        per-record work (7.2 calls and 2.07 records when every record
        swept every component and the scheduler emitted one per dispatch)
        fails here rather than in a benchmark."""
        write = InvariantMonitor.write.__code__
        with python_calls(lambda code: code is write and "written") as calls:
            execute_task(TaskSpec(0, PINNED_SPEC))
        (monitor,) = point_monitors
        fired = monitor.sim.scheduler.events_run
        assert fired == 10655
        assert (calls["check"] + calls["obs"]) / fired <= 4.5
        assert calls["written"] / fired <= 1.2
