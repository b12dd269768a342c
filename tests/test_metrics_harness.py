"""Tests for the experiment harness: fairness, tables, sweeps, flows."""

import ast
import pathlib

import pytest

import repro.exp
from repro.core.registry import make_controller
from repro.exp.spec import grid_points, merge_row
from repro.harness import Table, format_value, jain_index, make_flow, measure
from repro.mptcp.connection import MptcpFlow
from repro.net.queue import DropTailQueue
from repro.net.pipe import Pipe
from repro.net.route import Route
from repro.pathmgr import ManagedMptcpFlow
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow
from repro.topology import build_two_links

from conftest import sweep


class TestJainIndex:
    def test_equal_rates_give_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_flow_is_one(self):
        assert jain_index([3.0]) == 1.0

    def test_worst_case_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_known_value(self):
        # (1+2+3)^2 / (3 * 14) = 36/42
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36 / 42)

    def test_scale_invariant(self):
        rates = [1.0, 2.0, 5.0]
        assert jain_index(rates) == pytest.approx(
            jain_index([r * 7 for r in rates])
        )

    def test_all_zero_is_one(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([-1.0])


class TestTable:
    def test_render_alignment(self):
        t = Table(["algo", "paper", "measured"])
        t.add_row(["MPTCP", 95, 93.66])
        t.add_row(["EWTCP", 92, None])
        out = t.render(title="FatTree TP1")
        lines = out.splitlines()
        assert lines[0] == "FatTree TP1"
        assert "MPTCP" in out and "93.7" in out and "-" in out

    def test_row_width_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(1.234, precision=2) == "1.23"
        assert format_value("x") == "x"
        assert format_value(7) == "7"


class TestSweep:
    def test_grid_points_product(self):
        points = grid_points({"a": [1, 2], "b": ["x", "y"]})
        assert len(points) == 4
        assert {"a": 2, "b": "y"} in points

    def test_grid_points_empty(self):
        assert grid_points({}) == [{}]

    def test_sweep_merges_results(self):
        rows = sweep({"x": [2, 3]}, lambda x: {"square": x * x})
        assert rows == [{"x": 2, "square": 4}, {"x": 3, "square": 9}]

    def test_sweep_result_key_collision_raises(self):
        # Regression: a result key equal to a parameter name used to
        # silently overwrite the parameter value in the output row.
        with pytest.raises(ValueError, match="collide.*'x'"):
            merge_row({"x": 1}, {"x": 99, "y": 0})

    def test_sweep_collision_raises_on_runner_path_too(self):
        with pytest.raises(ValueError, match="collide"):
            sweep({"x": [1]}, lambda x: {"x": 99})


class TestMakeFlowAndMeasure:
    def _route(self, sim):
        q = DropTailQueue(sim, 1000.0, 100, jitter=0.0)
        return Route(sim, [q, Pipe(sim, 0.01)], reverse_delay=0.01)

    def test_single_route_builds_tcp_flow(self):
        sim = Simulation()
        flow = make_flow(sim, [self._route(sim)], "reno")
        assert isinstance(flow, TcpFlow)

    def test_multiple_routes_build_mptcp_flow(self):
        sim = Simulation()
        flow = make_flow(sim, [self._route(sim), self._route(sim)], "mptcp")
        assert isinstance(flow, MptcpFlow)
        assert len(flow.subflows) == 2

    def test_controller_kwargs_forwarded(self):
        sim = Simulation()
        flow = make_flow(
            sim,
            [self._route(sim), self._route(sim)],
            "ewtcp",
            controller_kwargs={"a": 0.5},
        )
        assert flow.controller.a == 0.5

    def test_measure_reports_rates(self):
        sim = Simulation(seed=1)
        flow = make_flow(sim, [self._route(sim)], "reno", name="f")
        flow.start()
        m = measure(sim, {"f": flow}, warmup=5.0, duration=10.0)
        assert m["f"] > 900.0
        assert m.total() == m["f"]

    def test_measure_subflow_rates(self):
        sim = Simulation(seed=2)
        flow = make_flow(sim, [self._route(sim), self._route(sim)], "mptcp", name="m")
        flow.start()
        m = measure(sim, {"m": flow}, warmup=5.0, duration=10.0)
        assert len(m.subflow_rates["m"]) == 2
        assert sum(m.subflow_rates["m"]) == pytest.approx(m["m"], rel=0.05)

    def test_measure_loss_covers_the_window_alone(self):
        sim = Simulation(seed=3)
        sc = build_two_links(sim, 500.0, 500.0, buffer1_pkts=10)
        flow = make_flow(sim, sc.routes("link1"), "reno", name="f")
        flow.start()
        busy, idle = sc.net.link("s1", "d1"), sc.net.link("s2", "d2")
        sim.run_until_elapsed(5.0)
        arrivals, drops = busy.queue.arrivals, busy.queue.drops
        m = measure(sim, {"f": flow}, warmup=5.0, duration=10.0,
                    links=[busy, idle])
        window_drops = busy.queue.drops - drops
        window_arrivals = busy.queue.arrivals - arrivals
        assert window_drops > 0
        assert m.loss[busy.name] == window_drops / window_arrivals
        assert m.arrivals[busy.name] == window_arrivals
        # A link no packet reached reads 0.0.
        assert (m.loss[idle.name], m.arrivals[idle.name]) == (0.0, 0)

    def test_consecutive_windows_leave_the_counters_counting_up(self):
        # A window reads the queue counters; it never resets them, so two
        # back-to-back windows and the warm-up add up to the queue's count.
        sim = Simulation(seed=3)
        sc = build_two_links(sim, 500.0, 500.0, buffer1_pkts=10)
        flow = make_flow(sim, sc.routes("link1"), "reno", name="f")
        flow.start()
        busy = sc.net.link("s1", "d1")
        sim.run_until_elapsed(2.0)
        warmup_arrivals = busy.queue.arrivals
        first = measure(sim, {"f": flow}, warmup=2.0, duration=3.0,
                        links=[busy])
        second = measure(sim, {"f": flow}, warmup=5.0, duration=3.0,
                         links=[busy])
        assert warmup_arrivals > 0 and second.arrivals[busy.name] > 0
        assert busy.queue.arrivals == (
            warmup_arrivals + first.arrivals[busy.name]
            + second.arrivals[busy.name]
        )

    def test_measure_rates_are_delivered_counts_over_duration(self):
        sim = Simulation(seed=4)
        flows = {"f": make_flow(sim, [self._route(sim)], "reno", name="f"),
                 "m": make_flow(sim, [self._route(sim), self._route(sim)],
                                "mptcp", name="m")}
        for flow in flows.values():
            flow.start()
        m = measure(sim, flows, warmup=2.0, duration=3.0)
        assert m.loss == {} and m.arrivals == {}
        for name in flows:
            assert isinstance(m.delivered[name], int) and m.delivered[name] > 0
            assert m[name] == m.delivered[name] / 3.0

    def test_measure_managed_flow_on_the_packet_tier(self):
        sim = Simulation(seed=5)
        sc = build_two_links(sim, 500.0, 500.0)
        routes = sc.routes("multi")
        flow = ManagedMptcpFlow(sim, make_controller("lia"), name="m")
        flow.add_path(routes[0], name="p0")
        flow.add_path(routes[1], name="p1")
        flow.start()
        sim.run_until_elapsed(2.0)
        before = flow.packets_delivered
        m = measure(sim, {"m": flow}, warmup=2.0, duration=4.0,
                    links=sc.net.all_links())
        assert m.delivered["m"] == flow.packets_delivered - before
        assert 800.0 < m["m"] <= 1000.0
        assert m.arrivals["s1->d1"] > 0 and m.arrivals["s2->d2"] > 0
        # A managed flow's subflow set changes over time: no split.
        assert m.subflow_rates == {}

    def test_measure_validates_duration(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            measure(sim, {}, warmup=0.0, duration=0.0)


class TestOneWindow:
    def test_no_point_module_runs_or_resets_a_window_by_hand(self):
        """Point functions say what they measure and when; how (running
        to the window, reading link counters) is ``measure``'s job."""
        exp_dir = pathlib.Path(repro.exp.__file__).parent
        calls = [
            f"{path.name}:{node.lineno} {node.func.attr}"
            for path in sorted(exp_dir.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run_until_elapsed"
        ]
        assert calls == []
