"""Tests for the flow-class / fluid-hybrid tier (repro.hybrid)."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import python_calls
from repro.check import InvariantMonitor
from repro.exp.grids import point_function
from repro.exp.spec import ScenarioSpec
from repro.harness.experiment import make_flow, measure
from repro.hybrid import ClassPath, FlowClass, HybridLink, HybridSimulation
from repro.net.pipe import Pipe
from repro.net.queue import DropTailQueue
from repro.net.route import Route
from repro.obs import TraceBus
from repro.obs.schema import validate_event
from repro.obs.sinks import MemorySink
from repro.topology.scenarios import build_torus, build_two_links

pytestmark = pytest.mark.hybrid


def clean_route(sim, rate_pps, name, rtt=0.1, buffer_pkts=50):
    """One drop-tail bottleneck, congestion losses only."""
    queue = DropTailQueue(
        sim, rate_pps=rate_pps, capacity=buffer_pkts, name=f"{name}.q",
        jitter=0.0,
    )
    pipe = Pipe(sim, delay=rtt / 2.0, name=f"{name}.p")
    return Route(sim, [queue, pipe], reverse_delay=rtt / 2.0, name=name)


class TestConstruction:
    def test_cubic_is_rejected_with_guidance(self):
        sim = HybridSimulation(seed=1)
        route = clean_route(sim, 1000.0, "l")
        with pytest.raises(ValueError, match="cubic has no fluid model"):
            sim.add_class([route], "cubic", count=10)

    def test_unknown_algorithm_rejected(self):
        sim = HybridSimulation(seed=1)
        route = clean_route(sim, 1000.0, "l")
        with pytest.raises(ValueError, match="unknown fluid algorithm"):
            sim.add_class([route], "psychic", count=10)

    def test_count_and_dt_validation(self):
        sim = HybridSimulation(seed=1)
        route = clean_route(sim, 1000.0, "l")
        with pytest.raises(ValueError):
            sim.add_class([route], "lia", count=0)
        with pytest.raises(ValueError):
            HybridSimulation(seed=1, dt=0.0)
        with pytest.raises(ValueError):
            sim.add_class([route], "lia", count=1, rtt_scale=0.0)

    def test_links_are_shared_between_classes(self):
        sim = HybridSimulation(seed=1)
        route = clean_route(sim, 1000.0, "l")
        a = sim.add_class([route], "reno", count=10, name="a")
        b = sim.add_class([route], "reno", count=20, name="b")
        assert a.paths[0].links[0] is b.paths[0].links[0]
        assert len(sim.hybrid_links) == 1
        assert sim.aggregate_flows == 30

    def test_simulation_api_matches_packet_engine(self):
        # The front-end must accept the (seed, trace) constructor shape
        # so CheckContext / exp specs can substitute it for Simulation.
        sim = HybridSimulation(seed=7, trace=TraceBus())
        assert sim.seed == 7
        assert sim.now == 0.0
        sim.run_until(1.0)
        sim.finish()


class TestFluidDynamics:
    def test_single_class_fills_its_bottleneck(self):
        sim = HybridSimulation(seed=1, dt=0.01)
        route = clean_route(sim, 500.0, "l")
        fc = sim.add_class([route], "reno", count=50, name="c")
        m = measure(sim, {"c": fc}, warmup=10.0, duration=20.0)
        # 50 Reno flows against a 500 pkt/s drop-tail link: the fluid
        # sawtooth (synchronised multiplicative decrease) averages out in
        # the 70–100% utilisation band, never above capacity.
        assert 0.70 * 500.0 < m["c"] <= 500.0 + 1e-6

    def test_windows_stay_at_or_above_floor_and_finite(self):
        sim = HybridSimulation(seed=1, dt=0.01)
        route = clean_route(sim, 200.0, "l")
        fc = sim.add_class([route], "lia", count=400, name="c")
        sim.run_until(30.0)
        assert all(math.isfinite(w) and w >= fc.floor for w in fc.windows)

    def test_lossy_pipe_contributes_intrinsic_loss(self):
        from conftest import lossy_route

        sim = HybridSimulation(seed=1, dt=0.01)
        route = lossy_route(sim, 0.01, rtt=0.1, name="a")
        fc = sim.add_class([route], "reno", count=1, name="c")
        assert fc.paths[0].extra_loss == pytest.approx(0.01)
        sim.run_until(100.0)
        # sqrt(2/p)/RTT = sqrt(200)/0.1 ~ 141 pkt/s equilibrium rate
        rate = fc.windows[0] / fc.paths[0].rtt
        assert rate == pytest.approx(math.sqrt(2 / 0.01) / 0.1, rel=0.1)

    def test_determinism_per_seed(self):
        def run():
            sim = HybridSimulation(seed=5, dt=0.01)
            sc = build_two_links(sim, 400.0, 800.0)
            fc = sim.add_class(sc.routes("multi"), "lia", count=100, name="c")
            tr = make_flow(sim, sc.routes("link1"), "reno", name="tr",
                           max_cwnd=64.0)
            tr.start(at=0.5)
            sim.run_until(20.0)
            return (list(fc.windows), fc.packets_delivered,
                    tr.packets_delivered)

        assert run() == run()


class TestCoupling:
    def test_fluid_load_throttles_tracer(self):
        def tracer_rate(class_count):
            sim = HybridSimulation(seed=3, dt=0.01)
            route = clean_route(sim, 1000.0, "l")
            if class_count:
                sim.add_class([route], "reno", count=class_count, name="c")
            tr = make_flow(sim, [route], "reno", name="tr", max_cwnd=64.0)
            tr.start()
            m = measure(sim, {"tr": tr}, warmup=10.0, duration=20.0)
            return m["tr"]

        alone = tracer_rate(0)
        crowded = tracer_rate(100)
        assert crowded < 0.5 * alone

    def test_tracer_load_feeds_back_into_fluid(self):
        def class_rate(with_tracer):
            bus = TraceBus()
            sink = MemorySink()
            bus.add_sink(sink)
            sim = HybridSimulation(seed=3, trace=bus, dt=0.01,
                                   snapshot_every=10)
            route = clean_route(sim, 300.0, "l")
            fc = sim.add_class([route], "reno", count=10, name="c")
            flows = {"c": fc}
            if with_tracer:
                tr = make_flow(sim, [route], "reno", name="tr",
                               max_cwnd=64.0)
                tr.start(at=0.5)
                flows["tr"] = tr
            rate = measure(sim, flows, warmup=10.0, duration=20.0)["c"]
            states = sink.of_type("hybrid.link_state")
            return rate, max(r["tracer_pps"] for r in states)

        with_rate, with_peak = class_rate(True)
        alone_rate, alone_peak = class_rate(False)
        # The tracer's slow-start burst is measured into the link totals…
        assert with_peak > 0.1 * 300.0
        assert alone_peak == 0.0
        # …and, once the link saturates, the class gives up exactly the
        # trickle the tracer keeps (deterministic, so strict < is safe;
        # the displacement is small because a lone tracer among count=10
        # fluid flows is entitled to little).
        assert with_rate < alone_rate

    def test_hybrid_drops_are_deterministic_and_traced(self):
        def run():
            bus = TraceBus()
            sink = MemorySink()
            bus.add_sink(sink)
            sim = HybridSimulation(seed=11, trace=bus, dt=0.01)
            route = clean_route(sim, 300.0, "l", buffer_pkts=20)
            sim.add_class([route], "reno", count=60, name="c")
            tr = make_flow(sim, [route], "reno", name="tr", max_cwnd=32.0)
            tr.start()
            sim.run_until(25.0)
            return [r for r in sink.events
                    if r["ev"] == "pkt.drop" and r["kind"] == "hybrid"]

        drops = run()
        assert drops, "saturated link should shed tracer packets"
        for record in drops[:20]:
            assert validate_event(record) == []
            assert record["flow"] == "tr"
        assert drops == run()

    def test_invariants_hold_under_hybrid_load(self):
        bus = TraceBus()
        sim = HybridSimulation(seed=13, trace=bus, dt=0.01)
        monitor = InvariantMonitor()
        monitor.attach(sim)
        sc = build_torus(sim, [500.0] * 5, delay=0.05)
        for i in range(5):
            sim.add_class(sc.routes(f"f{i}"), "lia", count=20, name=f"c{i}")
        tracers = {}
        for k in range(3):
            f = make_flow(sim, sc.routes(f"f{k}"), "lia", name=f"tr{k}",
                          max_cwnd=64.0)
            f.start(at=0.1 * k)
            tracers[f"tr{k}"] = f
        sim.run_until(30.0)
        monitor.finish()
        assert monitor.violations == 0
        assert all(f.packets_delivered > 0 for f in tracers.values())


class TestTraceEvents:
    def test_attach_and_snapshots_are_schema_valid(self):
        bus = TraceBus()
        sink = MemorySink()
        bus.add_sink(sink)
        sim = HybridSimulation(seed=2, trace=bus, dt=0.01, snapshot_every=50)
        sc = build_two_links(sim, 400.0, 800.0)
        sim.add_class(sc.routes("multi"), "lia", count=10, name="c")
        sim.run_until(5.0)
        by_type = {}
        for record in sink.events:
            by_type.setdefault(record["ev"], []).append(record)
        assert len(by_type["hybrid.attach"]) == 1
        attach = by_type["hybrid.attach"][0]
        assert attach["classes"] == 1 and attach["flows"] == 10
        assert by_type["hybrid.class_state"]
        assert by_type["hybrid.link_state"]
        for ev in ("hybrid.attach", "hybrid.class_state",
                   "hybrid.link_state"):
            for record in by_type[ev]:
                assert validate_event(record) == [], (ev, record)

    def test_snapshots_off_by_default(self):
        bus = TraceBus()
        sink = MemorySink()
        bus.add_sink(sink)
        sim = HybridSimulation(seed=2, trace=bus, dt=0.01)
        sc = build_two_links(sim, 400.0, 800.0)
        sim.add_class(sc.routes("multi"), "lia", count=10, name="c")
        sim.run_until(5.0)
        assert not any(r["ev"].startswith("hybrid.class") for r in
                       sink.events)

    def test_series_recorder_rides_the_hybrid_clock(self):
        sim = HybridSimulation(seed=2, dt=0.01)
        route = clean_route(sim, 500.0, "l")
        fc = sim.add_class([route], "reno", count=25, name="c")
        from repro.obs.series import SeriesRecorder

        rec = SeriesRecorder(sim, interval=0.5, warmup=5.0)
        rec.add_rate_probe("goodput.c", lambda: fc.packets_delivered)
        rec.add_probe("w.c", lambda: sum(fc.windows))
        rec.start()
        sim.run_until(20.0)
        assert len(rec.rows) == 30
        assert rec.mean("goodput.c") > 0


class TestScale:
    def test_memory_is_per_class_not_per_flow(self):
        """docs/HYBRID.md § Scale: 100x the flows in the same five torus
        classes allocates the same heap (~120 KiB either way)."""
        def peak_heap(flows_per_class):
            spec = ScenarioSpec(
                scenario="torus_hybrid", seed=61, warmup=0.5, duration=0.5,
                params={"classes": 5, "flows_per_class": flows_per_class,
                        "tracers": 1},
            )
            tracemalloc.start()
            try:
                row = point_function("torus_hybrid")(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert row["aggregate_flows"] == 5 * flows_per_class + 1
            return peak

        small, large = peak_heap(2_000), peak_heap(200_000)
        assert large / small < 1.25
        assert max(small, large) < 8 * 1024 * 1024


class TestFluidBudget:
    def test_calls_per_class_step(self):
        """Python calls per class-step, by layer, over simulated seconds
        1-3 of ten two-path LIA classes on the torus.  A count, not a
        clock: it repeats exactly, so re-growing the per-stage plumbing
        of the fluid step (83.0 fluid + core calls when every RK4 stage
        went through window_derivative and mptcp_increases, 27.1 hybrid
        when advance read each path through properties and generators)
        fails here rather than in a benchmark."""
        sim = HybridSimulation(seed=1, dt=0.02)
        sc = build_torus(sim, [2000.0] * 5)
        for c in range(10):
            sim.add_class(sc.routes(f"f{c % 5}"), "lia", count=100,
                          name=f"c{c}")
        sim.run_until(1.01)
        with python_calls(also=lambda code: code.co_name) as calls:
            sim.run_until(3.01)
        class_steps = calls["step_windows"]
        assert class_steps == 1000
        assert (calls["fluid"] + calls["core"]) / class_steps <= 12.0
        assert calls["hybrid"] / class_steps <= 10.0


#: Capacity-conservation property (the hypothesis satellite): however the
#: classes are configured, delivered fluid can never exceed capacity.
@settings(max_examples=20, deadline=None)
@given(
    caps=st.lists(
        st.floats(min_value=50.0, max_value=5000.0), min_size=2, max_size=3
    ),
    counts=st.lists(
        st.integers(min_value=1, max_value=400), min_size=1, max_size=3
    ),
    algo=st.sampled_from(
        ["reno", "ewtcp", "coupled", "semicoupled", "lia", "olia", "balia",
         "wvegas"]
    ),
    horizon=st.floats(min_value=2.0, max_value=25.0),
)
# Found by the random search: post-step rates against the previous step's
# served fractions read 0.1012 % over capacity.
@example(caps=[51.0, 2511.0], counts=[6], algo="coupled", horizon=7.0)
def test_fluid_throughput_never_exceeds_capacity(caps, counts, algo, horizon):
    sim = HybridSimulation(seed=17, dt=0.01)
    routes = [clean_route(sim, cap, f"l{i}") for i, cap in enumerate(caps)]
    classes = []
    for i, count in enumerate(counts):
        # Alternate single-path and all-path classes over the same links.
        use = [routes[i % len(routes)]] if (algo == "reno" or i % 2) \
            else routes
        classes.append(
            sim.add_class(use, "reno" if algo == "reno" else algo,
                          count=count, name=f"c{i}")
        )
    sim.run_until(horizon)
    for link, cap in zip(sim.hybrid_links, caps):
        delivered = link.served_fraction * (link.fluid_pps + link.tracer_pps)
        assert delivered <= cap * (1.0 + 1e-9)
    # Cumulative conservation is exact: delivered packets integrate the
    # same rates the links' served fractions were computed from.
    assert sum(fc.packets_delivered for fc in classes) \
        <= sum(caps) * horizon * (1.0 + 1e-9)
    # So is the rate estimator: it reads the rates the last step deposited
    # against the served fractions they produced.
    assert sum(fc.throughput_pps() for fc in classes) \
        <= sum(caps) * (1.0 + 1e-9)
    for fc in classes:
        assert all(math.isfinite(w) and w >= fc.floor for w in fc.windows)
