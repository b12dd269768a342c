"""Tests for the wireless path models and their scripted rate steps (§5)."""

import pytest

from repro.core.registry import make_controller
from repro.fault import FaultSpec, arm_faults
from repro.net.network import mbps_to_pps
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow
from repro.topology.wireless import build_3g_path, build_wifi_path


class TestPathModels:
    def test_wifi_defaults_match_section5(self):
        sim = Simulation()
        wifi = build_wifi_path(sim)
        assert wifi.queue.rate_pps == pytest.approx(mbps_to_pps(14.4))
        assert wifi.route().rtt_floor == pytest.approx(0.010)
        assert wifi.pipe.loss_prob > 0  # lossy medium

    def test_3g_is_overbuffered(self):
        """Full 3G buffer must imply an RTT well over a second (§5)."""
        sim = Simulation()
        path = build_3g_path(sim)
        worst_queueing = path.queue.capacity / path.queue.rate_pps
        assert worst_queueing > 1.0

    def test_routes_share_the_access_queue(self):
        sim = Simulation()
        wifi = build_wifi_path(sim)
        r1, r2 = wifi.route("a"), wifi.route("b")
        assert r1.queues[0] is r2.queues[0]

    def test_3g_flow_builds_seconds_of_queueing_delay(self):
        """A single greedy TCP on the overbuffered 3G path should drive the
        smoothed RTT well above the propagation floor."""
        sim = Simulation(seed=1)
        path = build_3g_path(sim)
        flow = TcpFlow(sim, path.route(), make_controller("reno"), name="f")
        flow.start()
        sim.run_until(60.0)
        assert flow.sender.srtt > 0.8

    def test_wifi_flow_keeps_short_rtt(self):
        sim = Simulation(seed=1)
        path = build_wifi_path(sim)
        flow = TcpFlow(sim, path.route(), make_controller("reno"), name="f")
        flow.start()
        sim.run_until(30.0)
        assert flow.sender.srtt < 0.05

    def test_wifi_throughput_near_link_rate(self):
        sim = Simulation(seed=2)
        path = build_wifi_path(sim)
        flow = TcpFlow(sim, path.route(), make_controller("reno"), name="f")
        flow.start()
        sim.run_until(10.0)
        base = flow.packets_delivered
        sim.run_until(40.0)
        rate = (flow.packets_delivered - base) / 30.0
        # lossy medium keeps it below capacity but in the right regime
        assert rate > 0.5 * mbps_to_pps(14.4)


def _rate(start, mbps, target="wifi"):
    return FaultSpec("rate", target, start, {"mbps": mbps})


class TestRateEvents:
    def test_events_apply_in_order(self):
        sim = Simulation()
        wifi = build_wifi_path(sim)
        seen = []
        for step in arm_faults(sim, [_rate(2.0, 0.0), _rate(1.0, 7.2)]):
            step.subscribe(lambda now, path, mbps: seen.append((now, mbps)))
        sim.run_until(1.5)
        assert wifi.queue.rate_pps == pytest.approx(mbps_to_pps(7.2))
        sim.run_until(2.5)
        assert wifi.queue.rate_pps == 0.0
        assert seen == [(1.0, 7.2), (2.0, 0.0)]

    def test_outage_and_recovery_affect_flow(self):
        sim = Simulation(seed=3)
        wifi = build_wifi_path(sim, loss_prob=0.0)
        flow = TcpFlow(sim, wifi.route(), make_controller("reno"), name="f")
        arm_faults(sim, [_rate(5.0, 0.0), _rate(10.0, 14.4)])
        flow.start()
        sim.run_until(6.0)
        during_outage_start = flow.packets_delivered
        sim.run_until(9.5)
        assert flow.packets_delivered - during_outage_start < 50
        sim.run_until(20.0)
        assert flow.packets_delivered > during_outage_start + 1000
