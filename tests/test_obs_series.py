"""Unit tests for the time-series recorder and ``repro point --series``."""

import csv
import io
import json

import pytest

from repro.cli import main
from repro.net.queue import DropTailQueue
from repro.obs import SeriesRecorder, cwnd_probe, queue_depth_probe, rtt_probe
from repro.sim.simulation import Simulation

pytestmark = pytest.mark.obs


class TestSeriesRecorder:
    def test_gauge_and_rate_probes_sample_together(self):
        sim = Simulation()
        counter = {"n": 0}

        def bump():
            counter["n"] += 10
            sim.schedule_in(0.1, bump)

        sim.schedule_at(0.0, bump)
        rec = SeriesRecorder(sim, interval=1.0)
        rec.add_probe("gauge", lambda: counter["n"])
        rec.add_rate_probe("rate", lambda: counter["n"])
        rec.start()
        sim.run_until(5.0)
        times, gauges = rec.series("gauge")
        _, rates = rec.series("rate")
        assert len(times) == 5
        assert gauges[0] > 0
        # 10 increments of 10 per simulated second.
        assert rec.mean("rate") == pytest.approx(100.0, rel=0.05)

    def test_warmup_samples_discarded_but_rates_rebaselined(self):
        sim = Simulation()
        counter = {"n": 0}

        def bump():
            counter["n"] += 1
            sim.schedule_in(0.01, bump)

        sim.schedule_at(0.0, bump)
        rec = SeriesRecorder(sim, interval=1.0, warmup=3.0)
        rec.add_rate_probe("rate", lambda: counter["n"])
        rec.start()
        sim.run_until(6.0)
        times, rates = rec.series("rate")
        assert all(t > 3.0 for t in times)
        # Warm-up ticks still re-baselined the counter, so the first
        # retained sample covers one interval, not four.
        assert all(r == pytest.approx(100.0, rel=0.05) for r in rates)

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            SeriesRecorder(sim, interval=0.0)
        with pytest.raises(ValueError):
            SeriesRecorder(sim, warmup=-1.0)
        rec = SeriesRecorder(sim)
        rec.add_probe("x", lambda: 1.0)
        with pytest.raises(ValueError):
            rec.add_rate_probe("x", lambda: 1)
        with pytest.raises(KeyError):
            rec.series("missing")
        with pytest.raises(ValueError):
            rec.mean("x")  # no samples yet

    def test_stop_halts_sampling(self):
        sim = Simulation()
        rec = SeriesRecorder(sim, interval=1.0)
        rec.add_probe("x", lambda: 1.0)
        rec.start()
        sim.run_until(2.5)
        rec.stop()
        sim.run_until(10.0)
        assert len(rec.rows) == 2

    def test_csv_export(self, tmp_path):
        sim = Simulation()
        rec = SeriesRecorder(sim, interval=1.0)
        rec.add_probe("a", lambda: 1.5)
        rec.add_probe("b", lambda: None)
        rec.start()
        sim.run_until(2.0)
        path = tmp_path / "s.csv"
        rec.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a,b"
        assert lines[1].endswith(",1.5,")  # None -> empty cell

    def test_jsonl_export_to_file_object(self):
        sim = Simulation()
        rec = SeriesRecorder(sim, interval=0.5)
        rec.add_probe("x", lambda: 2.0)
        rec.start()
        sim.run_until(1.0)
        buf = io.StringIO()
        rec.to_jsonl(buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows and all(r["x"] == 2.0 for r in rows)
        assert rows[0]["t"] == pytest.approx(0.5)

    def test_probe_factories(self):
        sim = Simulation()
        q = DropTailQueue(sim, 100.0, 10, jitter=0.0)

        class FakeSender:
            cwnd = 4.5
            srtt = None

        assert queue_depth_probe(q)() == 0
        assert cwnd_probe(FakeSender())() == 4.5
        assert rtt_probe(FakeSender())() is None


class TestStandardSeries:
    """``repro point --series``: every queue, sender and multipath
    receiver a registered point builds, sampled 100 times after warm-up."""

    WINDOWS = ["--warmup", "1", "--duration", "3"]

    def test_standard_probes_for_mixed_flows(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        assert main(["point", "two_links", "--param", "cross=tcp",
                     *self.WINDOWS, "--series", str(path)]) == 0
        assert f"to {path}" in capsys.readouterr().out
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {"goodput.m.rx", "cwnd.m.sf0", "rtt.m.sf1", "cwnd.S1",
                "qdepth.s1->d1"} <= set(rows[0])
        assert 95 <= len(rows) <= 101
        assert all(float(row["t"]) > 1.0 for row in rows)
        assert max(float(row["goodput.m.rx"]) for row in rows) > 0
        assert min(float(row["cwnd.m.sf0"]) for row in rows) >= 1.0

    def test_a_subflow_joined_mid_run_is_empty_before_it_joined(
            self, tmp_path):
        path = tmp_path / "s.jsonl"
        assert main(["point", "wifi_3g_handover", *self.WINDOWS,
                     "--series", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        cells = [row["cwnd.m.wifi.j2"] for row in rows]
        joined = next(i for i, cell in enumerate(cells) if cell is not None)
        assert 0 < joined and all(cell is not None for cell in cells[joined:])

    def test_the_row_is_the_same_with_and_without_a_series(
            self, tmp_path, capsys):
        argv = ["point", "torus_balance", *self.WINDOWS]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--series", "-"]) == 0
        sampled = capsys.readouterr()
        assert sampled.err.startswith(plain)
        assert sampled.out.startswith("t,qdepth.")

    def test_stdout_is_for_one_of_trace_and_series(self, capsys):
        assert main(["point", "two_links", "--trace", "-",
                     "--series", "-"]) == 2
        assert "stdout" in capsys.readouterr().err
