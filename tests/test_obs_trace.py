"""Unit tests for the trace bus, sinks, schema and instrumentation hooks.

The golden-file test pins the event sequence a 2-subflow scenario emits
(seeded, so fully deterministic).  To regenerate the golden file after an
intentional instrumentation change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_obs_trace.py::TestGoldenTrace -q
"""

import json
import os
import pathlib

import pytest

from repro.harness.experiment import make_flow
from repro.obs import (
    DEFAULT_EVENTS,
    EVENT_TYPES,
    JsonlSink,
    MemorySink,
    NULL_TRACE,
    TraceBus,
    TraceSchemaError,
    validate_event,
    validate_jsonl,
)
from repro.net.pipe import LossyPipe
from repro.net.queue import DropTailQueue
from repro.net.route import Route
from repro.sim.simulation import Simulation
from repro.topology import build_two_links

from conftest import lossy_route

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_two_subflow.txt"

pytestmark = pytest.mark.obs


class TestTraceBus:
    def test_fan_out_to_multiple_sinks(self):
        a, b = MemorySink(), MemorySink()
        bus = TraceBus(sinks=[a])
        bus.add_sink(b)
        bus.emit("pkt.deliver", 1.0, flow="f", seq=0, dsn=None)
        assert len(a) == len(b) == 1
        assert a.events[0]["ev"] == "pkt.deliver"

    def test_emission_index_is_monotonic(self):
        sink = MemorySink()
        bus = TraceBus(sinks=[sink])
        for seq in range(5):
            bus.emit("pkt.deliver", 0.5, flow="f", seq=seq, dsn=None)
        assert [r["i"] for r in sink] == [0, 1, 2, 3, 4]

    def test_event_type_filter(self):
        sink = MemorySink()
        bus = TraceBus(sinks=[sink], events={"tcp.timeout"})
        bus.emit("pkt.deliver", 0.0, flow="f", seq=0, dsn=None)
        bus.emit("tcp.timeout", 0.0, flow="f", rto=0.4, cwnd=2.0)
        assert sink.counts() == {"tcp.timeout": 1}
        assert bus.events_emitted == 1

    def test_pause_resume(self):
        sink = MemorySink()
        bus = TraceBus(sinks=[sink])
        bus.pause()
        bus.emit("pkt.deliver", 0.0, flow="f", seq=0, dsn=None)
        bus.resume()
        bus.emit("pkt.deliver", 0.1, flow="f", seq=1, dsn=None)
        assert len(sink) == 1
        assert sink.events[0]["seq"] == 1

    def test_null_trace_is_disabled_and_inert(self):
        assert NULL_TRACE.enabled is False
        NULL_TRACE.flush()
        NULL_TRACE.close()

    def test_context_manager_closes_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceBus(sinks=[JsonlSink(str(path))]) as bus:
            bus.emit("pkt.deliver", 0.0, flow="f", seq=0, dsn=None)
        assert path.read_text().count("\n") == 1

    def test_memory_sink_limit_counts_dropped(self):
        sink = MemorySink(limit=2)
        bus = TraceBus(sinks=[sink])
        for seq in range(5):
            bus.emit("pkt.deliver", 0.0, flow="f", seq=seq, dsn=None)
        assert len(sink) == 2
        assert sink.dropped == 3


class TestDefaultWiring:
    def test_simulation_defaults_to_null_trace(self):
        sim = Simulation(seed=1)
        assert sim.trace is NULL_TRACE
        assert sim.scheduler.trace is NULL_TRACE

    def test_scheduler_is_traced_only_by_a_bus_that_records_its_events(self):
        full = TraceBus(sinks=[MemorySink()])
        assert Simulation(seed=1, trace=full).scheduler.trace is full
        assert DEFAULT_EVENTS == set(EVENT_TYPES) - {"engine.event_fired"}
        quiet = TraceBus(sinks=[MemorySink()], events=DEFAULT_EVENTS)
        assert quiet.records("pkt.enqueue")
        assert not quiet.records("engine.event_fired")
        quiet.pause()  # the filter, not the switch, decides
        sim = Simulation(seed=1, trace=quiet)
        assert sim.trace is quiet and sim.scheduler.trace is NULL_TRACE

    def test_components_inherit_sim_trace(self):
        bus = TraceBus(sinks=[MemorySink()])
        sim = Simulation(seed=1, trace=bus)
        q = DropTailQueue(sim, 100.0, 10)
        p = LossyPipe(sim, 0.01, 0.1)
        assert q.trace is bus and p.trace is bus

    def test_explicit_trace_kwarg_overrides(self):
        bus = TraceBus(sinks=[MemorySink()])
        sim = Simulation(seed=1)
        q = DropTailQueue(sim, 100.0, 10, trace=bus)
        assert q.trace is bus and sim.trace is NULL_TRACE

    def test_untraced_run_emits_nothing(self):
        # The disabled no-op path: a full scenario run with no bus attached
        # must not record anything anywhere (and must not crash).
        sim = Simulation(seed=3)
        sc = build_two_links(sim, 200.0, 200.0)
        flow = make_flow(sim, sc.routes("multi"), "mptcp", name="m")
        flow.start()
        sim.run_until(2.0)
        assert flow.packets_delivered > 0


class TestInstrumentationEvents:
    def _traced_run(self, seed=7, seconds=3.0, **bus_kwargs):
        sink = MemorySink()
        bus = TraceBus(sinks=[sink], **bus_kwargs)
        sim = Simulation(seed=seed, trace=bus)
        sc = build_two_links(
            sim, 200.0, 200.0, buffer1_pkts=10, buffer2_pkts=10
        )
        flow = make_flow(sim, sc.routes("multi"), "mptcp", name="m")
        flow.start()
        sim.run_until(seconds)
        return sink, flow, sc

    def test_two_subflow_run_emits_documented_types(self):
        sink, _, _ = self._traced_run()
        counts = sink.counts()
        for ev in (
            "pkt.enqueue",
            "pkt.deliver",
            "pkt.drop",
            "cc.cwnd_update",
            "tcp.fast_retransmit",
            "mptcp.dsn_ack",
            "engine.event_fired",
        ):
            assert counts.get(ev, 0) > 0, f"no {ev} events emitted"

    def test_all_emitted_events_validate_against_schema(self):
        sink, _, _ = self._traced_run()
        for record in sink:
            assert validate_event(record) == [], record

    def test_enqueue_occupancy_and_drop_fields(self):
        sink, _, sc = self._traced_run()
        q = sc.net.link("s1", "d1").queue
        drops = [r for r in sink.of_type("pkt.drop") if r["elem"] == q.name]
        assert len(drops) == q.drops > 0
        assert all(r["kind"] == "queue" for r in drops)
        # Overflow drops happen exactly when the buffer is full.
        assert all(r["occ"] == q.capacity for r in drops)
        enqueues = [
            r for r in sink.of_type("pkt.enqueue") if r["queue"] == q.name
        ]
        assert all(1 <= r["occ"] <= q.capacity for r in enqueues)

    def test_deliver_count_matches_receiver_counters(self):
        sink, flow, _ = self._traced_run()
        subflow_total = sum(
            r.packets_delivered for r in flow.receiver.subflow_receivers
        )
        assert len(sink.of_type("pkt.deliver")) == subflow_total

    def test_cwnd_updates_track_subflow_names(self):
        sink, flow, _ = self._traced_run()
        names = {r["flow"] for r in sink.of_type("cc.cwnd_update")}
        assert {s.name for s in flow.subflows} <= names

    def test_dsn_ack_monotonic_and_reaches_connection_state(self):
        sink, flow, _ = self._traced_run()
        acks = [r["data_ack"] for r in sink.of_type("mptcp.dsn_ack")]
        assert acks == sorted(acks)
        assert acks[-1] == flow.connection.data_acked

    def test_pipe_drop_events(self):
        sink = MemorySink()
        bus = TraceBus(sinks=[sink])
        sim = Simulation(seed=9, trace=bus)
        route = lossy_route(sim, loss_prob=0.05)
        flow = make_flow(sim, [route], "reno", name="f")
        flow.start()
        sim.run_until(5.0)
        pipe_drops = [
            r for r in sink.of_type("pkt.drop") if r["kind"] == "pipe"
        ]
        assert pipe_drops
        assert all(validate_event(r) == [] for r in pipe_drops)

    def test_timeout_events_on_heavy_loss(self):
        sink = MemorySink()
        bus = TraceBus(sinks=[sink])
        sim = Simulation(seed=5, trace=bus)
        route = lossy_route(sim, loss_prob=0.4, rate_pps=500.0)
        flow = make_flow(sim, [route], "reno", name="f")
        flow.start()
        sim.run_until(20.0)
        timeouts = sink.of_type("tcp.timeout")
        assert len(timeouts) == flow.sender.timeouts > 0
        assert all(r["rto"] > 0 for r in timeouts)


class TestSchemaValidation:
    def test_unknown_event_type_rejected(self):
        problems = validate_event({"ev": "nope", "t": 0.0, "i": 0})
        assert any("unknown event type" in p for p in problems)

    def test_missing_required_field_rejected(self):
        record = {"ev": "pkt.drop", "t": 0.0, "i": 0, "kind": "queue",
                  "flow": "f", "seq": 1}
        problems = validate_event(record)
        assert any("elem" in p for p in problems)

    def test_undocumented_field_rejected(self):
        record = {"ev": "pkt.deliver", "t": 0.0, "i": 0, "flow": "f",
                  "seq": 1, "dsn": None, "surprise": 1}
        problems = validate_event(record)
        assert any("undocumented" in p for p in problems)

    def test_wrong_type_and_bad_null_rejected(self):
        record = {"ev": "pkt.deliver", "t": 0.0, "i": 0, "flow": "f",
                  "seq": "one"}
        assert any("seq" in p for p in validate_event(record))
        record = {"ev": "cc.cwnd_update", "t": 0.0, "i": 0, "flow": "f",
                  "cwnd": None, "ssthresh": None, "reason": "ack"}
        assert any("cwnd" in p for p in validate_event(record))

    def test_unknown_cwnd_reason_rejected(self):
        record = {"ev": "cc.cwnd_update", "t": 0.0, "i": 0, "flow": "f",
                  "cwnd": 2.0, "ssthresh": None, "reason": "vibes"}
        assert any("reason" in p for p in validate_event(record))

    def test_every_schema_type_is_exercised_by_two_subflow_run(self):
        # Guards schema/instrumentation drift in both directions: every
        # documented simulation type except engine-level ones must come
        # out of an ordinary lossy multipath run (engine.event_fired is
        # checked in TestInstrumentationEvents; the exp.* sweep-runner
        # events are exercised in tests/test_exp_runner.py; the check.*
        # and fault.* layers in tests/test_check_invariants.py and
        # tests/test_fault_injection.py; the pathmgr.* lifecycle events
        # in tests/test_pathmgr.py; the hybrid.* flow-class events in
        # tests/test_hybrid.py; the farm.* broker events in
        # tests/test_farm.py; the rt.* real-backend events in
        # tests/test_rt_loop.py).
        assert set(EVENT_TYPES) == {
            "pkt.enqueue", "pkt.drop", "pkt.deliver", "cc.cwnd_update",
            "tcp.timeout", "tcp.fast_retransmit", "mptcp.dsn_ack",
            "engine.event_fired",
            "exp.task_start", "exp.task_done", "exp.task_retry",
            "exp.task_failed", "exp.cache_hit",
            "farm.serve", "farm.enqueue", "farm.lease", "farm.task_done",
            "farm.task_failed", "farm.lease_expired", "farm.requeue",
            "farm.exhausted", "farm.complete",
            "check.attach", "check.violation", "check.stats",
            "fault.armed", "fault.fire",
            "pathmgr.add_addr", "pathmgr.remove_addr",
            "pathmgr.subflow_open", "pathmgr.join_failed",
            "pathmgr.subflow_close", "pathmgr.path_down",
            "pathmgr.path_up", "pathmgr.standby_activate",
            "pathmgr.handover",
            "hybrid.attach", "hybrid.class_state", "hybrid.link_state",
            "rt.run", "rt.channel_open", "rt.ctrl", "rt.codec_error",
            "rt.netem",
        }

    def test_validate_jsonl_roundtrip_and_errors(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        bus = TraceBus(sinks=[sink])
        bus.emit("pkt.deliver", 0.0, flow="f", seq=0, dsn=None)
        bus.emit("pkt.deliver", 0.5, flow="f", seq=1, dsn=None)
        bus.close()
        assert validate_jsonl(str(path)) == 2

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(TraceSchemaError):
            validate_jsonl(str(bad))

        ooo = tmp_path / "ooo.jsonl"
        ooo.write_text(
            json.dumps({"ev": "pkt.deliver", "t": 1.0, "i": 1,
                        "flow": "f", "seq": 0, "dsn": None}) + "\n" +
            json.dumps({"ev": "pkt.deliver", "t": 0.5, "i": 2,
                        "flow": "f", "seq": 1, "dsn": None}) + "\n"
        )
        with pytest.raises(TraceSchemaError, match="backwards"):
            validate_jsonl(str(ooo))


def _event_signature(record: dict) -> str:
    """Stable per-event label for the golden sequence: type + actor."""
    actor = (
        record.get("flow")
        or record.get("conn")
        or record.get("queue")
        or record.get("elem")
        or ""
    )
    return f"{record['ev']} {actor}".rstrip()


class TestGoldenTrace:
    def test_two_subflow_scenario_matches_golden_sequence(self):
        sink = MemorySink()
        # Deterministic: seeded RNG, no wall-clock inputs; engine events
        # excluded to keep the golden focused on protocol behaviour.
        bus = TraceBus(sinks=[sink], events=DEFAULT_EVENTS)
        sim = Simulation(seed=11, trace=bus)
        sc = build_two_links(
            sim, 100.0, 100.0, buffer1_pkts=5, buffer2_pkts=5
        )
        flow = make_flow(sim, sc.routes("multi"), "mptcp", name="m")
        flow.start()
        sim.run_until(1.0)
        got = [_event_signature(r) for r in sink.events[:120]]
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text("\n".join(got) + "\n")
            pytest.skip("golden file regenerated")
        assert GOLDEN.exists(), (
            "golden trace missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        expected = GOLDEN.read_text().splitlines()
        assert got == expected


class TestColumnarSink:
    """The struct-of-arrays sink must reconstruct the exact dict stream a
    MemorySink keeps — same records, same field values (None included),
    same emission order."""

    def _run_traced(self, sinks):
        bus = TraceBus(sinks=sinks, events=DEFAULT_EVENTS)
        sim = Simulation(seed=11, trace=bus)
        sc = build_two_links(sim, 100.0, 100.0, buffer1_pkts=5, buffer2_pkts=5)
        flow = make_flow(sim, sc.routes("multi"), "mptcp", name="m")
        flow.start()
        sim.run_until(1.0)

    def test_reconstructs_memory_sink_stream_exactly(self):
        from repro.obs import ColumnarSink

        memory = MemorySink()
        columnar = ColumnarSink()
        self._run_traced([memory, columnar])
        assert len(memory.events) > 100
        assert columnar.records() == memory.events
        assert columnar.counts() == memory.counts()
        assert len(columnar) == len(memory)

    def test_columns_are_flat_parallel_lists(self):
        from repro.obs import ColumnarSink

        columnar = ColumnarSink()
        self._run_traced([columnar])
        seqs = columnar.column("pkt.deliver", "seq")
        times = columnar.column("pkt.deliver", "t")
        assert len(seqs) == len(times) == columnar.counts()["pkt.deliver"]
        assert all(isinstance(s, int) for s in seqs)

    def test_schema_drift_pads_without_corrupting_values(self):
        from repro.obs import ColumnarSink

        sink = ColumnarSink()
        sink.write({"ev": "x", "t": 0.0, "i": 0, "a": 1})
        sink.write({"ev": "x", "t": 0.5, "i": 1, "b": None})   # a missing, b new
        sink.write({"ev": "x", "t": 1.0, "i": 2, "a": 2, "b": 3})
        assert sink.records() == [
            {"ev": "x", "t": 0.0, "i": 0, "a": 1},
            {"ev": "x", "t": 0.5, "i": 1, "b": None},
            {"ev": "x", "t": 1.0, "i": 2, "a": 2, "b": 3},
        ]
