"""Tests for metrics and the experiment harness."""

import pytest

from repro.core.registry import make_controller
from repro.exp.spec import grid_points, merge_row
from repro.harness import Table, format_value, make_flow, measure
from repro.metrics import jain_index, windowed_rate
from repro.mptcp.connection import MptcpFlow
from repro.net.queue import DropTailQueue
from repro.net.pipe import Pipe
from repro.net.route import Route
from repro.sim.simulation import Simulation
from repro.tcp.sender import TcpFlow

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


class TestMeters:
    def test_windowed_rate(self):
        assert windowed_rate(100, 400, 10.0) == 30.0
        with pytest.raises(ValueError):
            windowed_rate(0, 1, 0.0)

    def test_windowed_rate_rejects_nonpositive_window(self):
        # Regression: the raise on window <= 0 is documented behaviour
        # (module docstring + docs/API.md), not an accident — both zero
        # and negative windows must raise, with the offending value named.
        with pytest.raises(ValueError, match="window must be positive"):
            windowed_rate(0, 10, 0.0)
        with pytest.raises(ValueError, match="-2.5"):
            windowed_rate(0, 10, -2.5)
        # ... and a positive window keeps working, including negative
        # deltas (callers may pass re-baselined counters).
        assert windowed_rate(10, 5, 5.0) == -1.0


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

    def test_measure_validates_duration(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            measure(sim, {}, warmup=0.0, duration=0.0)
