"""Tests for the CLI and the ASCII plotting helpers."""

import json

import pytest

from repro.cli import main
from repro.exp import SCENARIOS, specs_for_grid
from repro.topology import SWEEP_GRIDS
from repro.harness.plotting import ascii_bars, ascii_timeseries


class TestCli:
    def test_algorithms_lists_everything(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("mptcp", "ewtcp", "coupled", "semicoupled", "reno", "lia"):
            assert name in out

    def test_twolinks_runs_and_reports(self, capsys):
        code = main([
            "point", "two_links", "--param", "algo=mptcp",
            "--param", "rates=[300, 300]",
            "--warmup", "5", "--duration", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total_pps" in out and "path1_pps" in out

    def test_bottleneck_reports_ratio(self, capsys):
        code = main([
            "point", "shared_bottleneck", "--param", "algo=uncoupled",
            "--param", "competitors=2", "--param", "rate=800",
            "--warmup", "5", "--duration", "15",
        ])
        assert code == 0
        assert "ratio" in capsys.readouterr().out

    def test_torus_reports_losses(self, capsys):
        code = main([
            "point", "torus_balance", "--param", "algo=ewtcp",
            "--param", "capacity_c=500", "--warmup", "5", "--duration", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jain" in out and "pa_pc_ratio" in out

    def test_fattree_small(self, capsys):
        code = main([
            "point", "datacenter", "--param", "k=4", "--param", "paths=2",
            "--param", "rate=500", "--warmup", "1.5", "--duration", "1.5",
        ])
        assert code == 0
        assert "util_pct" in capsys.readouterr().out

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            main(["point", "two_links", "--param", "algo=warp-drive"])

    def test_deleted_commands_are_invalid_choices(self, capsys):
        # The rt handover is `point wifi_3g_handover --param tier=rt`; a
        # farm grid is `sweep <grid> --farm DIR`.
        for argv in (["bottleneck"], ["twolinks"], ["wireless"], ["torus"],
                     ["fattree"], ["check"], ["handover"], ["rt"],
                     ["point", "rt_handover"], ["farm", "serve"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_point_defaults_to_the_first_grid_point(self, capsys):
        # No --param: rtt_ratio runs fig16_rtt's first point (its params
        # and seed), with only the windows overridden.
        assert main(["point", "rtt_ratio", "--warmup", "0.5",
                     "--duration", "1"]) == 0
        (first,) = specs_for_grid("fig16_rtt")[:1]
        out = capsys.readouterr().out
        assert json.dumps(first.params) in out
        assert f"(seed {first.seed}, warm-up 0.5 s, 1 s)" in out

    def test_a_delivery_gap_fails_the_point(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.cli.point_function",
                            lambda name: lambda spec: {"delivery_gap": 1})
        assert main(["point", "wifi_3g_handover"]) == 1
        assert "FAIL: nonzero delivery gap" in capsys.readouterr().err

    @pytest.mark.realnet
    def test_sweep_prints_rows_of_both_tiers(self, capsys):
        # Only rt-tier rows carry the wire's counters; packet rows print
        # "-" in those columns.
        assert main(["sweep", "rt_loopback", "--no-cache",
                     "--warmup", "0.1", "--duration", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "ctrl_frames" in out and "claims skipped" in out

    def test_every_scenario_is_named_by_a_grid(self):
        """`point` takes its defaults from the scenario's first grid, so
        a scenario no grid names would have none."""
        gridded = {grid["scenario"] for grid in SWEEP_GRIDS.values()}
        assert sorted(set(SCENARIOS) - gridded) == []

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestPlotting:
    def test_timeseries_renders_all_series(self):
        chart = ascii_timeseries(
            [
                ("up", [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]),
                ("down", [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)]),
            ],
            width=20,
            height=5,
        )
        assert "*" in chart and "o" in chart
        assert "up" in chart and "down" in chart

    def test_timeseries_empty(self):
        assert ascii_timeseries([("a", [])]) == "(no data)"

    def test_timeseries_single_point(self):
        chart = ascii_timeseries([("dot", [(1.0, 5.0)])], width=10, height=3)
        assert "*" in chart

    def test_bars_scale_and_reference(self):
        chart = ascii_bars(
            [("a", 10.0), ("b", 5.0)], width=20, unit=" pkt/s", reference=10.0
        )
        lines = chart.splitlines()
        assert lines[0].count("#") > lines[1].count("#")
        assert "|" in lines[1]

    def test_bars_empty(self):
        assert ascii_bars([]) == "(no data)"
