"""Unit tests for drop-tail queues, including run-time rate changes."""

import pytest

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.simulation import Simulation


class Collector:
    """Terminal route element recording arrival times."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append(self.sim.now)


def send_packets(sim, queue, collector, count, size=1.0):
    for _ in range(count):
        Packet((queue, collector), size=size, flow=None).send()


class TestDropTailQueue:
    def test_serves_at_configured_rate(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=10.0, capacity=100, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 5)
        sim.run()
        assert sink.arrivals == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_jitter_preserves_mean_rate(self):
        sim = Simulation(seed=3)
        q = DropTailQueue(sim, rate_pps=100.0, capacity=10**6, jitter=0.2)
        sink = Collector(sim)
        send_packets(sim, q, sink, 1000)
        sim.run()
        # 1000 packets at 100/s -> ~10s; jitter is mean-preserving
        assert sink.arrivals[-1] == pytest.approx(10.0, rel=0.05)

    def test_drops_when_full(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=3, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 10)  # burst of 10 into capacity 3
        sim.run()
        assert q.drops == 7
        assert len(sink.arrivals) == 3

    def test_loss_rate(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=2, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 4)
        sim.run()
        assert q.loss_rate == pytest.approx(0.5)

    def test_drop_hook_invoked(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=1, jitter=0.0)
        dropped = []
        q.drop_hook = dropped.append
        sink = Collector(sim)
        send_packets(sim, q, sink, 3)
        sim.run()
        assert len(dropped) == 2

    def test_occupancy_counts_in_service_packet(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 4)
        assert q.occupancy == 4
        sim.run()
        assert q.occupancy == 0

    def test_work_conserving_after_idle(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=10.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 1)
        sim.run()
        sim.scheduler.schedule_at(5.0, lambda: send_packets(sim, q, sink, 1))
        sim.run()
        assert sink.arrivals == pytest.approx([0.1, 5.1])

    def test_reset_counters(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=1, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 3)
        sim.run()
        q.reset_counters()
        assert q.arrivals == 0 and q.drops == 0 and q.loss_rate == 0.0

    def test_loss_rate_covers_only_the_window_since_reset(self):
        """After reset_counters(), loss_rate must reflect the new window
        alone — pre-reset drops must not linger in the ratio."""
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=1, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 4)   # 1 served+queued, 3 dropped
        sim.run()
        assert q.loss_rate == pytest.approx(0.75)
        q.reset_counters()
        send_packets(sim, q, sink, 1)   # capacity free again: no drop
        sim.run()
        assert q.drops == 0
        assert q.loss_rate == 0.0

    def test_totals_are_monotonic_across_resets(self):
        """total_* keep counting from creation; meters baselined before a
        reset_counters() must never see the counters go backwards."""
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=1, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 3)   # 1 accepted, 2 dropped
        sim.run()
        base_arrivals, base_drops = q.total_arrivals, q.total_drops
        assert (base_arrivals, base_drops) == (3, 2)
        q.reset_counters()
        assert q.total_arrivals == 3 and q.total_drops == 2
        assert q.total_departures == q.departures + 1  # pre-reset service
        send_packets(sim, q, sink, 3)
        sim.run()
        # The window spanning the reset stays exact: 3 new arrivals, 2 new
        # drops, never negative.
        assert q.total_arrivals - base_arrivals == 3
        assert q.total_drops - base_drops == 2

    def test_loss_meter_window_spanning_a_reset(self):
        """Regression: a loss measurement baselined before
        reset_counters() used to go stale (negative windows) when it
        read ``arrivals``/``drops``; ``total_arrivals``/``total_drops``
        stay monotonic across the reset, so the window stays exact."""
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=1.0, capacity=1, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 2)   # 1 accepted, 1 dropped
        sim.run()
        base_arrivals, base_drops = q.total_arrivals, q.total_drops
        q.reset_counters()              # e.g. a warmup re-baseline
        assert (q.arrivals, q.drops) == (0, 0)
        assert (q.total_arrivals, q.total_drops) == (base_arrivals, base_drops)
        send_packets(sim, q, sink, 4)   # 1 accepted, 3 dropped
        sim.run()
        arrivals = q.total_arrivals - base_arrivals
        drops = q.total_drops - base_drops
        assert drops / arrivals == pytest.approx(0.75)

    def test_smaller_packets_serve_faster(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=10.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 1, size=0.5)
        sim.run()
        assert sink.arrivals == pytest.approx([0.05])

    def test_invalid_parameters(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            DropTailQueue(sim, rate_pps=-1, capacity=10)
        with pytest.raises(ValueError):
            DropTailQueue(sim, rate_pps=10, capacity=0)
        with pytest.raises(ValueError):
            DropTailQueue(sim, rate_pps=10, capacity=10, jitter=1.5)


class TestRateChanges:
    def test_rate_change_applies_to_next_packet(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=10.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 2)
        sim.run_until(0.05)         # mid-service of the first packet
        q.set_rate(1.0)             # in-flight service finishes at old rate
        sim.run()
        assert sink.arrivals == pytest.approx([0.1, 1.1])

    def test_outage_stalls_and_resumes(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=10.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        sim.scheduler.schedule_at(0.0, lambda: q.set_rate(0.0))
        sim.scheduler.schedule_at(0.01, lambda: send_packets(sim, q, sink, 2))
        sim.scheduler.schedule_at(5.0, lambda: q.set_rate(10.0))
        sim.run()
        assert len(sink.arrivals) == 2
        assert sink.arrivals[0] == pytest.approx(5.1)

    def test_outage_mid_service_completes_the_packet_in_transmission(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=10.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 3)
        sim.run_until(0.05)
        q.set_rate(0.0)
        sim.run_until(2.0)
        assert sink.arrivals == pytest.approx([0.1])
        assert q.occupancy == 2
        q.set_rate(10.0)
        sim.run()
        assert sink.arrivals == pytest.approx([0.1, 2.1, 2.2])

    def test_buffered_during_outage_up_to_capacity(self):
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=0.0, capacity=3, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 5)
        sim.run()
        assert q.drops == 2
        assert q.occupancy == 3

    def test_construct_stalled_reports_true_rate(self):
        """Regression: rate 0 at construction used to be smuggled through
        validation as a placeholder 1.0, so a registration watcher (or
        anything reading ``rate_pps`` before the first ``set_rate``) saw a
        phantom 1 pkt/s link."""
        sim = Simulation()
        seen = []
        sim.on_register(
            lambda c: seen.append(c.rate_pps)
            if isinstance(c, DropTailQueue) else None
        )
        q = DropTailQueue(sim, rate_pps=0.0, capacity=4, jitter=0.0)
        assert q.rate_pps == 0.0
        assert seen == [0.0]

    def test_construct_stalled_then_set_rate_serves_exactly(self):
        """A queue born stalled must serve at exactly the first positive
        rate it is given — no division by the placeholder, no residue."""
        sim = Simulation()
        q = DropTailQueue(sim, rate_pps=0.0, capacity=10, jitter=0.0)
        sink = Collector(sim)
        send_packets(sim, q, sink, 3)
        sim.run_until(1.0)
        assert sink.arrivals == []          # still stalled, nothing served
        q.set_rate(4.0)
        sim.run()
        assert sink.arrivals == pytest.approx([1.25, 1.5, 1.75])

    def test_negative_rate_rejected_at_construction(self):
        # 0 builds a stalled queue; a negative rate is a caller's error at
        # construction, while set_rate() clamps it to 0 (an outage).
        sim = Simulation()
        with pytest.raises(ValueError, match="queue rate must be >= 0"):
            DropTailQueue(sim, rate_pps=-1.0, capacity=4)
        q = DropTailQueue(sim, rate_pps=10.0, capacity=4)
        q.set_rate(-1.0)
        assert q.rate_pps == 0.0
