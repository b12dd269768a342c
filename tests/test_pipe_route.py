"""Unit tests for pipes (lossless and lossy) and routes."""

import pytest

from repro.net.network import Network, mbps_to_pps, pps_to_mbps
from repro.net.packet import Packet
from repro.net.pipe import Pipe
from repro.net.queue import DropTailQueue
from repro.net.route import Route
from repro.sim.simulation import Simulation


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append(self.sim.now)


class TestPipe:
    def test_delivers_after_delay(self):
        sim = Simulation()
        pipe = Pipe(sim, delay=0.25)
        sink = Collector(sim)
        Packet((pipe, sink), size=1.0, flow=None).send()
        sim.run()
        assert sink.arrivals == [0.25]

    def test_zero_delay_delivers_inline(self):
        sim = Simulation()
        pipe = Pipe(sim, delay=0.0)
        sink = Collector(sim)
        Packet((pipe, sink), size=1.0, flow=None).send()
        assert sink.arrivals == [0.0]

    def test_unlimited_capacity(self):
        sim = Simulation()
        pipe = Pipe(sim, delay=0.1)
        sink = Collector(sim)
        for _ in range(50):
            Packet((pipe, sink), size=1.0, flow=None).send()
        sim.run()
        assert len(sink.arrivals) == 50

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            Pipe(Simulation(), delay=-1.0)

    def test_nan_delay_raises(self):
        with pytest.raises(ValueError, match="pipe delay must be >= 0"):
            Pipe(Simulation(), delay=float("nan"))


class TestPipeLoss:
    def test_zero_loss_passes_everything(self):
        sim = Simulation()
        pipe = Pipe(sim, delay=0.0)
        sink = Collector(sim)
        for _ in range(100):
            Packet((pipe, sink), size=1.0, flow=None).send()
        sim.run()
        assert len(sink.arrivals) == 100
        assert pipe.drops == 0

    def test_loss_prob_statistics(self):
        sim = Simulation(seed=1)
        pipe = Pipe(sim, delay=0.0, loss_prob=0.3)
        sink = Collector(sim)
        n = 20000
        for _ in range(n):
            Packet((pipe, sink), size=1.0, flow=None).send()
        sim.run()
        observed = pipe.drops / n
        assert observed == pytest.approx(0.3, abs=0.02)
        assert len(sink.arrivals) == n - pipe.drops

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Pipe(Simulation(), delay=0.0, loss_prob=1.0)
        with pytest.raises(ValueError):
            Pipe(Simulation(), delay=0.0, loss_prob=-0.1)

    def test_default_rng_is_the_simulations_seeded_stream(self):
        """Regression: loss patterns must be reproducible from the sim
        seed alone (the exp result cache and golden traces key on it), so
        a pipe draws from ``sim.rng`` — never an unseeded stream."""
        sim = Simulation(seed=5)
        pipe = Pipe(sim, delay=0.0, loss_prob=0.3)
        sink = Collector(sim)
        pattern = []
        for _ in range(200):
            before = pipe.drops
            Packet((pipe, sink), size=1.0, flow=None).send()
            pattern.append(pipe.drops > before)
        stream = Simulation(seed=5).rng
        assert pattern == [stream.random() < 0.3 for _ in range(200)]


class TestPipeRngStream:
    """Every packet-tier golden rests on the order of draws from
    ``sim.rng``: a lossless pipe must never draw, a lossy one exactly once
    per packet it sees."""

    def test_lossless_pipe_never_draws(self):
        sim = Simulation(seed=3)
        pipe = Pipe(sim, delay=0.01)
        sink = Collector(sim)
        state = sim.rng.getstate()
        for _ in range(1000):
            Packet((pipe, sink), size=1.0, flow=None).send()
        sim.run()
        assert len(sink.arrivals) == 1000
        assert sim.rng.getstate() == state

    def test_lossy_pipe_draws_once_per_unintercepted_arrival(self):
        sim = Simulation(seed=3)
        pipe = Pipe(sim, delay=0.0, loss_prob=0.2)
        sink = Collector(sim)
        # Consume every third packet before the pipe sees it.
        seen = []
        pipe.intercept = lambda pkt: seen.append(pkt) or len(seen) % 3 == 0
        twin = Simulation(seed=3).rng
        for _ in range(999):
            Packet((pipe, sink), size=1.0, flow=None).send()
        for _ in range(666):
            twin.random()
        assert sim.rng.getstate() == twin.getstate()
        assert pipe.drops + len(sink.arrivals) == 666


class TestRoute:
    def test_properties(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=100.0, capacity=10)
        q2 = DropTailQueue(sim, rate_pps=50.0, capacity=10)
        p = Pipe(sim, delay=0.02)
        route = Route(sim, [q, p, q2], reverse_delay=0.03, name="r")
        assert route.queues == [q, q2]
        assert route.propagation_delay == pytest.approx(0.02)
        assert route.rtt_floor == pytest.approx(0.05)
        assert route.bottleneck_rate == 50.0

    def test_route_without_queues_has_no_bottleneck(self):
        sim = Simulation()
        route = Route(sim, [Pipe(sim, 0.01)], reverse_delay=0.01)
        with pytest.raises(ValueError):
            _ = route.bottleneck_rate


class TestNetwork:
    def test_rate_conversions_roundtrip(self):
        assert pps_to_mbps(mbps_to_pps(100.0)) == pytest.approx(100.0)
        # 100 Mb/s of 1500-byte packets is ~8333 pkt/s
        assert mbps_to_pps(100.0) == pytest.approx(8333.3, rel=1e-3)

    def test_bidirectional_links(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10)
        assert net.link("a", "b").rate_pps == 100.0
        assert net.link("b", "a").rate_pps == 100.0

    def test_one_way_link(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10, bidirectional=False)
        with pytest.raises(KeyError):
            net.link("b", "a")

    def test_duplicate_link_rejected(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10)
        with pytest.raises(ValueError):
            net.add_link("a", "b", 100.0, 0.01, 10)

    def test_route_uses_shared_queues(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10)
        r1 = net.route(["a", "b"])
        r2 = net.route(["a", "b"])
        assert r1.queues[0] is r2.queues[0]

    def test_route_reverse_delay_sums_links(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10)
        net.add_link("b", "c", 100.0, 0.02, 10)
        route = net.route(["a", "b", "c"])
        assert route.reverse_delay == pytest.approx(0.03)
        assert route.rtt_floor == pytest.approx(0.06)

    def test_shortest_paths(self):
        sim = Simulation()
        net = Network(sim)
        for a, b in (("a", "m1"), ("a", "m2"), ("m1", "z"), ("m2", "z")):
            net.add_link(a, b, 100.0, 0.01, 10)
        paths = net.shortest_paths("a", "z")
        assert sorted(p[1] for p in paths) == ["m1", "m2"]

    def test_unreachable_destination_is_a_value_error(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10, bidirectional=False)
        net.add_node("z")
        for query in (
            lambda: net.shortest_paths("a", "z"),
            lambda: net.shortest_paths("b", "a"),
            lambda: net.random_shortest_path("a", "z"),
            lambda: net.random_paths("a", "z", count=3),
        ):
            with pytest.raises(ValueError, match="no path"):
                query()

    def test_unknown_source_is_a_value_error(self):
        sim = Simulation()
        net = Network(sim)
        net.add_link("a", "b", 100.0, 0.01, 10)
        for query in (
            lambda: net.shortest_paths("x", "b"),
            lambda: net.random_shortest_path("x", "b"),
            lambda: net.random_paths("x", "b", count=3),
        ):
            with pytest.raises(ValueError, match="no path x->b: x is not a node"):
                query()

    def test_random_shortest_path_is_shortest(self):
        sim = Simulation(seed=4)
        net = Network(sim)
        for a, b in (("a", "m1"), ("a", "m2"), ("m1", "z"), ("m2", "z"), ("m1", "m2")):
            net.add_link(a, b, 100.0, 0.01, 10)
        for _ in range(10):
            path = net.random_shortest_path("a", "z")
            assert len(path) == 3

    def test_random_paths_distinct(self):
        sim = Simulation(seed=4)
        net = Network(sim)
        for mid in ("m1", "m2", "m3"):
            net.add_link("a", mid, 100.0, 0.01, 10)
            net.add_link(mid, "z", 100.0, 0.01, 10)
        paths = net.random_paths("a", "z", count=3)
        assert len(paths) == 3
        assert len({tuple(p) for p in paths}) == 3

    def test_route_needs_two_nodes(self):
        sim = Simulation()
        net = Network(sim)
        with pytest.raises(ValueError):
            net.route(["a"])
