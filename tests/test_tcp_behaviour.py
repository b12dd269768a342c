"""Behavioural tests for the TCP sender/receiver pair on small scenarios."""

import pytest

from repro.core.uncoupled import RenoController
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow
from repro.tcp.source import FiniteSource
from repro.topology.scenarios import build_fixed_loss_route

from conftest import bottleneck_route


def make_lossy_flow(sim, p, rtt=0.1, **kwargs):
    route = build_fixed_loss_route(sim, p, rtt=rtt)
    return TcpFlow(sim, route, RenoController(), name="f", **kwargs)


class TestBasicTransfer:
    def test_lossless_delivery_in_order(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0, source=FiniteSource(500))
        flow.start()
        sim.run_until(60.0)
        assert flow.sender.completed
        assert flow.receiver.packets_delivered == 500
        assert flow.receiver.duplicates == 0

    def test_completion_callback_fires_once(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0, source=FiniteSource(50))
        done = []
        flow.sender.on_complete = done.append
        flow.start()
        sim.run_until(30.0)
        assert len(done) == 1

    def test_transfer_completes_despite_loss(self):
        sim = Simulation(seed=2)
        flow = make_lossy_flow(sim, 0.05, source=FiniteSource(300))
        flow.start()
        sim.run_until(200.0)
        assert flow.sender.completed
        assert flow.receiver.packets_delivered == 300

    def test_delayed_start(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0)
        flow.start(at=5.0)
        sim.run_until(4.9)
        assert flow.packets_delivered == 0
        sim.run_until(10.0)
        assert flow.packets_delivered > 0

    def test_stop_halts_transmission(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0)
        flow.start()
        sim.run_until(5.0)
        flow.stop()
        count = flow.packets_delivered
        sim.run_until(10.0)
        # in-flight packets may still land, but no new ones are sent
        assert flow.packets_delivered <= count + flow.sender.cwnd + 1


class TestSlowStart:
    def test_window_doubles_per_rtt_initially(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0, rtt=0.1)
        flow.start()
        sim.run_until(0.55)  # ~5 RTTs
        # init 2, doubling each RTT: expect >= 2^5 = 32
        assert flow.sender.cwnd >= 32

    def test_slow_start_exits_at_ssthresh(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0, rtt=0.1)
        flow.sender.ssthresh = 16.0
        flow.start()
        sim.run_until(2.0)
        assert not flow.sender.in_slow_start
        # growth is additive after ssthresh: far below doubling
        assert flow.sender.cwnd < 16 + 2.0 / 0.1 + 5


class TestLossRecovery:
    def test_fast_retransmit_on_three_dupacks(self):
        sim = Simulation(seed=3)
        route, queue = bottleneck_route(sim, rate_pps=500.0, buffer_pkts=30)
        flow = TcpFlow(sim, route, RenoController(), name="f")
        flow.start()
        sim.run_until(30.0)
        assert flow.sender.loss_events > 0
        assert flow.sender.timeouts <= 1  # SACK recovery, not RTO storms

    def test_loss_event_halves_window(self):
        sim = Simulation(seed=1)
        flow = make_lossy_flow(sim, 0.0)
        sender = flow.sender
        flow.start()
        sim.run_until(1.0)
        sender.ssthresh = sender.cwnd  # leave slow start
        before = sender.cwnd
        sender._loss_event()
        assert sender.cwnd == pytest.approx(before / 2)
        assert sender.in_recovery

    def test_retransmissions_happen_under_loss(self):
        sim = Simulation(seed=4)
        flow = make_lossy_flow(sim, 0.03)
        flow.start()
        sim.run_until(60.0)
        assert flow.sender.retransmissions > 0
        # goodput continuity: receiver got a contiguous prefix
        assert flow.receiver.packets_delivered == flow.receiver.expected

    def test_rto_fires_when_whole_window_lost(self):
        sim = Simulation(seed=5)
        # loss probability so high the window often cannot raise 3 dupacks
        flow = make_lossy_flow(sim, 0.35)
        flow.start()
        sim.run_until(120.0)
        assert flow.sender.timeouts > 0
        assert flow.receiver.packets_delivered > 0  # still makes progress

    def test_no_sack_mode_still_recovers(self):
        sim = Simulation(seed=6)
        flow = make_lossy_flow(sim, 0.02, enable_sack=False)
        flow.start()
        sim.run_until(120.0)
        assert flow.receiver.packets_delivered > 500

    def test_sack_recovers_faster_than_newreno(self):
        def run(enable_sack):
            sim = Simulation(seed=7)
            route, queue = bottleneck_route(
                sim, rate_pps=1000.0, buffer_pkts=100
            )
            flow = TcpFlow(
                sim, route, RenoController(), name="f", enable_sack=enable_sack
            )
            flow.start()
            sim.run_until(60.0)
            return flow.packets_delivered

        assert run(True) > run(False)


class TestEquilibriumFormula:
    # The absolute rate-vs-sqrt(2/p)/RTT band is covered for every
    # registered controller by tests/test_differential_fluid.py; here we
    # keep the sharper *relative* scaling checks.

    def test_rate_scales_with_inverse_sqrt_p(self):
        def run(p):
            sim = Simulation(seed=9)
            flow = make_lossy_flow(sim, p, rtt=0.1)
            flow.start()
            sim.run_until(20.0)
            base = flow.packets_delivered
            sim.run_until(140.0)
            return (flow.packets_delivered - base) / 120.0

        ratio = run(0.005) / run(0.02)
        assert ratio == pytest.approx(2.0, rel=0.3)  # sqrt(4) = 2

    def test_rate_inversely_proportional_to_rtt(self):
        def run(rtt):
            sim = Simulation(seed=10)
            flow = make_lossy_flow(sim, 0.01, rtt=rtt)
            flow.start()
            sim.run_until(20.0)
            base = flow.packets_delivered
            sim.run_until(140.0)
            return (flow.packets_delivered - base) / 120.0

        ratio = run(0.05) / run(0.2)
        assert ratio == pytest.approx(4.0, rel=0.35)

    def test_bottleneck_fully_utilised_with_adequate_buffer(self):
        sim = Simulation(seed=11)
        route, queue = bottleneck_route(
            sim, rate_pps=1000.0, rtt=0.1, buffer_pkts=100
        )
        flow = TcpFlow(sim, route, RenoController(), name="f")
        flow.start()
        sim.run_until(10.0)
        base = flow.packets_delivered
        sim.run_until(60.0)
        rate = (flow.packets_delivered - base) / 50.0
        assert rate > 950.0


class TestAckClocking:
    def test_inflight_bounded_by_window_history(self):
        """After a halving, in-flight data drains over one RTT, so the
        sequence range outstanding never exceeds roughly twice the current
        window (plus SACK-recovery slack); unbounded growth would indicate
        a recovery wedge."""
        sim = Simulation(seed=12)
        flow = make_lossy_flow(sim, 0.01)
        sender = flow.sender
        flow.start()
        for t in range(1, 120):
            sim.run_until(t * 0.5)
            assert sender.in_flight <= 2 * sender.effective_window() + 10

    def test_cumulative_ack_never_regresses(self):
        sim = Simulation(seed=13)
        flow = make_lossy_flow(sim, 0.05)
        sender = flow.sender
        flow.start()
        last = 0
        for t in range(1, 60):
            sim.run_until(t * 0.5)
            assert sender.last_acked >= last
            last = sender.last_acked

    def test_srtt_reflects_path_rtt(self):
        sim = Simulation(seed=14)
        # Cap the window below the path's bandwidth-delay product so the
        # loss-free flow does not build a standing queue that inflates RTT.
        flow = make_lossy_flow(sim, 0.0, rtt=0.25, max_cwnd=100)
        flow.start()
        sim.run_until(10.0)
        assert flow.sender.srtt == pytest.approx(0.25, rel=0.2)
