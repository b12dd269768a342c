"""The parallel experiment runner (repro.exp): fan-out, deterministic
aggregation, retries, fault tolerance, progress events, and the CLI.

Point functions used out of process live at module level so they pickle
by reference into worker processes; cross-attempt state (forcing a first
failure, a worker kill, a stall) goes through flag files because workers
share no memory with the parent.
"""

from __future__ import annotations

import contextlib
import glob
import json
import multiprocessing
import os
import pathlib
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.exp import Runner, ScenarioSpec, TaskError, specs_for_grid
from repro.exp.spec import target_id
from repro.farm import work
from repro.obs import JsonlSink, MemorySink, TraceBus, validate_event

from conftest import sweep

pytestmark = pytest.mark.sweep


# -- module-level point functions (picklable into workers) -------------


def square_point(x):
    return {"sq": x * x}


def slow_by_index(i):
    # Later grid points finish first, so completion order inverts grid
    # order under any parallelism.
    time.sleep(0.05 * (3 - i))
    return {"v": i * 10}


def always_fails(x):
    raise RuntimeError("boom")


def flaky_point(flag_dir, x):
    flag = pathlib.Path(flag_dir) / f"ran-{x}"
    if not flag.exists():
        flag.write_text("")
        raise RuntimeError("transient failure")
    return {"ok": x}


def killer_point(flag_dir, x):
    flag = pathlib.Path(flag_dir) / f"died-{x}"
    if not flag.exists():
        flag.write_text("")
        os._exit(13)  # simulate a worker process dying mid-task, once
    return {"ok": x}


def sleepy_point(flag_dir, x):
    flag = pathlib.Path(flag_dir) / f"slept-{x}"
    if not flag.exists():
        flag.write_text("")
        time.sleep(2.5)
    return {"ok": x}


def always_sleeps(x):
    time.sleep(30.0)
    return {"ok": x}


def set_row_point(x):
    return {"val": {x}}  # a set: JSON cannot carry it across processes


def sim_point(seed, c2):
    """A real (tiny) simulation point: explicit seed through
    Simulation/make_flow/measure, so reruns are bit-identical."""
    from repro import Simulation, make_flow, measure
    from repro.topology import build_two_links

    sim = Simulation(seed=seed)
    sc = build_two_links(sim, 400.0, c2, delay1=0.05, delay2=0.05)
    flow = make_flow(sim, sc.routes("multi"), "mptcp", name="m")
    flow.start()
    m = measure(sim, {"m": flow}, warmup=0.5, duration=1.0)
    return {"rate": m["m"]}


def flaky_sim_point(flag_dir, seed, c2):
    flag = pathlib.Path(flag_dir) / f"sim-{c2}"
    if not flag.exists():
        flag.write_text("")
        raise RuntimeError("lost worker")
    return sim_point(seed, c2)


def assert_stream_closed(events):
    """Every ``exp.task_start`` must be closed by exactly one terminal
    event — ``exp.task_done``, ``exp.task_retry`` or ``exp.task_failed``
    — carrying the same task and attempt."""
    starts = {}
    closures = {}
    for record in events:
        key = (record.get("task"), record.get("attempt"))
        if record["ev"] == "exp.task_start":
            starts[key] = starts.get(key, 0) + 1
        elif record["ev"] in ("exp.task_done", "exp.task_retry",
                              "exp.task_failed"):
            closures[key] = closures.get(key, 0) + 1
    assert starts, "no exp.task_start events in the stream"
    for key, n in starts.items():
        assert closures.get(key, 0) == n, (
            f"task/attempt {key}: {n} start(s) but "
            f"{closures.get(key, 0)} closure(s)"
        )


#: The three ways to ask a Runner for the same grid.  One rule set must
#: hold on each: ``timeout`` bounds every attempt, one budget, one error.
SPELLINGS = ["parallel=1", "parallel=2", "farm"]


def spelling(name, tmp_path):
    return {
        "parallel=1": {"parallel": 1},
        "parallel=2": {"parallel": 2},
        "farm": {"parallel": 2, "farm": str(tmp_path / "farm")},
    }[name]


@contextlib.contextmanager
def no_leftovers():
    """After a run — clean, timed-out or failed — no worker process and
    no temporary farm directory may remain."""
    pattern = os.path.join(tempfile.gettempdir(), "repro-farm-*")
    before = set(glob.glob(pattern))
    try:
        yield
    finally:
        assert multiprocessing.active_children() == []
        assert set(glob.glob(pattern)) <= before


# -- deterministic aggregation -----------------------------------------


class TestAggregation:
    def test_rows_follow_grid_order_not_completion_order(self):
        rows = sweep({"i": [0, 1, 2, 3]}, slow_by_index, parallel=2)
        assert rows == [{"i": i, "v": i * 10} for i in range(4)]

    def test_parallel_rows_bit_identical_to_serial(self):
        serial = sweep({"x": [1, 2, 3, 4]}, square_point, parallel=1)
        parallel = sweep({"x": [1, 2, 3, 4]}, square_point, parallel=4)
        assert serial == parallel
        assert json.dumps(serial) == json.dumps(parallel)

    def test_sim_grid_bit_identical_serial_vs_parallel(self):
        specs = specs_for_grid("demo_rtt", warmup=0.5, duration=1.0)
        serial = Runner(parallel=1).run(specs)
        parallel = Runner(parallel=2).run(specs)
        assert json.dumps(serial) == json.dumps(parallel)
        # Grid order: c2 is the slow axis of demo_rtt's cartesian product.
        assert [r["c2"] for r in serial] == [400.0] * 4 + [800.0] * 4

    def test_unknown_scenario_fails_clearly(self):
        with pytest.raises(TaskError, match="unknown scenario"):
            Runner(retries=0).run([ScenarioSpec(scenario="no-such")])


# -- determinism matrix (hot-path rewrite pin) --------------------------


class TestDeterminismMatrix:
    """Serial, parallel and warm-cache executions must agree bit for bit
    with the array hot path underneath (batched dispatch, SoA network
    state, columnar trace capture).

    The golden suite pins the current build against a committed
    artefact; this matrix pins the runner's execution *modes* against
    each other, so a rewrite that is internally consistent but
    mode-dependent — dispatch order varying with worker count, a cache
    round-trip canonicalising floats differently — cannot slip through.
    """

    def test_rows_bit_identical_serial_parallel_and_warm_cache(self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.5, duration=1.0)
        serial = Runner(parallel=1).run(specs)
        parallel = Runner(parallel=2).run(specs)
        cache_dir = str(tmp_path / "cache")
        cold = Runner(parallel=2, cache=cache_dir).run(specs)
        warm_runner = Runner(parallel=2, cache=cache_dir)
        warm = warm_runner.run(specs)
        assert warm_runner.cache_hits == len(specs)
        assert warm_runner.executed == 0
        farm_runner = Runner(parallel=2, farm=str(tmp_path / "farm"))
        farm = farm_runner.run(specs)
        assert farm_runner.executed == len(specs)
        dumps = [
            json.dumps(rows, sort_keys=True)
            for rows in (serial, parallel, cold, warm, farm)
        ]
        assert len(set(dumps)) == 1

    def test_columnar_capture_preserves_the_golden_digest(self):
        """A monitored point traced into a ColumnarSink must reconstruct
        the exact stream a row-wise sink digests: replaying the columnar
        tables through a fresh TraceDigest reproduces the run's digest,
        record for record."""
        from repro.exp.golden import TraceDigest, golden_specs
        from repro.check.hooks import trace_override
        from repro.exp.spec import TaskSpec, execute_task
        from repro.obs import ColumnarSink

        spec = golden_specs("demo_rtt")[0]

        digest = TraceDigest()
        columnar = ColumnarSink()
        bus = TraceBus(sinks=[digest, columnar])
        with trace_override(bus):
            row = execute_task(TaskSpec(index=0, spec=spec))

        replayed = TraceDigest()
        for record in columnar.records():
            replayed.write(record)
        assert replayed.records == digest.records
        assert replayed.hexdigest() == digest.hexdigest()

        # And the whole traced run is itself deterministic: a second
        # execution (the retry/replay path) produces the same row and
        # the same digest.
        again = TraceDigest()
        with trace_override(TraceBus(sinks=[again])):
            row2 = execute_task(TaskSpec(index=0, spec=spec))
        assert json.dumps(row2, sort_keys=True, default=str) == json.dumps(
            row, sort_keys=True, default=str
        )
        assert again.hexdigest() == digest.hexdigest()


# -- fault tolerance ----------------------------------------------------


class TestFaultTolerance:
    def test_retry_replays_the_exact_run_it_replaces(self, tmp_path):
        clean = sweep({"seed": [5], "c2": [300.0, 600.0]}, sim_point)
        sink = MemorySink()
        bus = TraceBus(sinks=[sink])
        retried = sweep(
            {"flag_dir": [str(tmp_path)], "seed": [5], "c2": [300.0, 600.0]},
            flaky_sim_point, parallel=2, trace=bus,
        )
        assert [r["rate"] for r in retried] == [r["rate"] for r in clean]
        assert len(sink.of_type("exp.task_retry")) == 2

    def test_worker_death_is_an_ordinary_failure(self, tmp_path):
        # Each point kills its worker once.  The death is charged to the
        # point like any other failure and the retry runs in a fresh
        # worker — never inside the runner's own process.
        sink = MemorySink()
        with no_leftovers():
            rows = sweep(
                {"flag_dir": [str(tmp_path)], "x": [1, 2, 3]},
                killer_point, parallel=2, trace=TraceBus(sinks=[sink]),
            )
        assert [r["ok"] for r in rows] == [1, 2, 3]
        retries = sink.of_type("exp.task_retry")
        assert [r["reason"] for r in retries] == ["worker_died"] * 3
        assert sorted(r["task"] for r in retries) == [0, 1, 2]
        assert {r["failures"] for r in sink.of_type("farm.requeue")} == {1}
        expired = sink.of_type("farm.lease_expired")
        assert [r["reason"] for r in expired] == ["worker_died"] * 3
        for record in sink.events:
            assert validate_event(record) == []
        assert_stream_closed(sink.events)

    @pytest.mark.parametrize("how", SPELLINGS)
    def test_stuck_point_is_retried_within_bound(self, tmp_path, how):
        # The first attempt of each point stalls for 2.5 s; with a 0.4 s
        # timeout it is preempted and the retry (instant: the flag file
        # exists) finishes long before the stall would have.
        sink = MemorySink()
        start = time.monotonic()
        with no_leftovers():
            rows = sweep(
                {"flag_dir": [str(tmp_path)], "x": [1, 2]},
                sleepy_point, timeout=0.4, trace=TraceBus(sinks=[sink]),
                **spelling(how, tmp_path),
            )
        wall = time.monotonic() - start
        assert [r["ok"] for r in rows] == [1, 2]
        reasons = [r["reason"] for r in sink.of_type("exp.task_retry")]
        assert reasons == ["timeout"] * 2
        assert wall < 2.2, f"{how}: stalled attempts were waited out"
        for record in sink.events:
            assert validate_event(record) == []
        assert_stream_closed(sink.events)

    @pytest.mark.parametrize("how", SPELLINGS)
    def test_point_stalling_on_every_attempt_fails_in_bounded_time(
            self, tmp_path, how):
        # timeout applies to the retry too: (retries + 1) x timeout plus
        # one back-off, not a 30 s hang on the second attempt.
        start = time.monotonic()
        with no_leftovers():
            with pytest.raises(TaskError, match="exhausted: timeout"):
                sweep({"x": [1]}, always_sleeps, timeout=0.3, retries=1,
                      **spelling(how, tmp_path))
        assert time.monotonic() - start < 2 * 0.3 + 2.0

    def test_stuck_tasks_share_one_deadline_and_workers_are_reaped(
            self, tmp_path):
        # Three tasks all stall past the timeout on their first attempt.
        # Each is timed from its own claim, so they expire together
        # after ~1 x timeout (not one after another), their workers are
        # killed, and fresh workers run the instant retries.
        sink = MemorySink()
        runner_timeout = 1.0
        start = time.monotonic()
        with no_leftovers():
            rows = sweep(
                {"flag_dir": [str(tmp_path)], "x": [1, 2, 3]},
                sleepy_point, parallel=3, timeout=runner_timeout,
                trace=TraceBus(sinks=[sink]),
            )
        wall = time.monotonic() - start
        assert [r["ok"] for r in rows] == [1, 2, 3]
        # Generous headroom for worker start-up on a loaded single-CPU
        # machine; anything well under 3 x timeout proves the point.
        assert wall < 2.5 * runner_timeout, (
            f"stall took {wall:.2f}s — timeouts are serialised again?"
        )
        reasons = [r["reason"] for r in sink.of_type("exp.task_retry")]
        assert reasons.count("timeout") == 3
        assert_stream_closed(sink.events)

    @pytest.mark.parametrize("how", SPELLINGS)
    def test_budget_exhaustion_is_the_same_error_on_every_spelling(
            self, tmp_path, how):
        sink = MemorySink()
        with no_leftovers():
            with pytest.raises(TaskError) as err:
                sweep({"x": [1]}, always_fails, retries=1,
                      trace=TraceBus(sinks=[sink]),
                      **spelling(how, tmp_path))
        assert str(err.value) == (
            f"task 0 ({target_id(always_fails)}) failed 2 time(s), "
            "retry budget exhausted: RuntimeError: boom"
        )
        failed = sink.of_type("exp.task_failed")
        assert [(r["attempt"], r["failures"]) for r in failed] == [(2, 2)]
        assert_stream_closed(sink.events)

    def test_unserializable_row_out_of_process_fails_naming_the_task(self):
        # Rows cross the process boundary through the JSON store; the
        # in-process tolerance (tests/test_exp_cache.py) cannot apply.
        with pytest.raises(TaskError, match=r"task [01] \(.*set_row_point\) "
                           "returned a row that is not JSON-serialisable"):
            sweep({"x": [1, 2]}, set_row_point, parallel=2, retries=0)

    def test_no_startable_worker_process_runs_in_process(self, monkeypatch):
        def refuse(self):
            raise OSError("no more processes")

        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        with no_leftovers():
            rows = sweep({"x": [1, 2, 3]}, square_point, parallel=2)
        assert rows == [{"x": x, "sq": x * x} for x in (1, 2, 3)]

    def test_retry_budget_exhausted_raises(self):
        with pytest.raises(TaskError, match="retry budget exhausted"):
            sweep({"x": [1]}, always_fails, parallel=1, retries=1)

    def test_exhaustion_emits_terminal_task_failed_event(self):
        # The stream must close even when the runner raises: the final
        # exp.task_start is answered by exp.task_failed, not silence.
        sink = MemorySink()
        with pytest.raises(TaskError):
            sweep({"x": [1]}, always_fails, parallel=1, retries=1,
                  trace=TraceBus(sinks=[sink]))
        failed = sink.of_type("exp.task_failed")
        assert len(failed) == 1
        assert failed[0]["failures"] == 2
        assert "RuntimeError: boom" in failed[0]["reason"]
        assert_stream_closed(sink.events)

    def test_zero_retries_fails_on_first_error(self):
        with pytest.raises(TaskError, match="failed 1 time"):
            sweep({"x": [1]}, always_fails, parallel=1, retries=0)

    def test_unpicklable_point_function_runs_serially(self):
        offset = 7  # closure → unpicklable → must stay in this process
        rows = sweep({"x": [1, 2]}, lambda x: {"y": x + offset}, parallel=2)
        assert rows == [{"x": 1, "y": 8}, {"x": 2, "y": 9}]

    def test_invalid_runner_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="parallel must be >= 1, got 0"):
            Runner(parallel=0)
        with pytest.raises(ValueError, match="parallel must be >= 0"):
            Runner(parallel=-1, farm=str(tmp_path / "farm"))
        with pytest.raises(ValueError):
            Runner(retries=-1)
        # With a farm directory 0 means broker only: a worker drains the
        # grid, even one started before the directory is served.
        root = str(tmp_path / "farm")
        drain = threading.Thread(target=work, args=(root,),
                                 kwargs=dict(idle_timeout=30.0))
        drain.start()
        try:
            rows = sweep({"x": [1, 2]}, square_point, parallel=0, farm=root,
                         cache=str(tmp_path / "cache"))
        finally:
            drain.join(timeout=30.0)
        assert rows == [{"x": 1, "sq": 1}, {"x": 2, "sq": 4}]
        assert not drain.is_alive()


# -- progress events ----------------------------------------------------


class TestRunnerEvents:
    def test_events_conform_to_schema(self, tmp_path):
        sink = MemorySink()
        sweep(
            {"flag_dir": [str(tmp_path)], "x": [1, 2]},
            flaky_point, parallel=2, trace=TraceBus(sinks=[sink]),
        )
        assert sink.events, "runner emitted no events"
        for record in sink.events:
            assert validate_event(record) == []
        counts = sink.counts()
        assert counts["exp.task_done"] == 2
        assert counts["exp.task_retry"] >= 1
        assert_stream_closed(sink.events)

    @pytest.mark.parametrize("how", SPELLINGS)
    def test_one_lifecycle_on_every_spelling(self, tmp_path, how):
        # The same exp.* lifecycle whichever loop ran the point: two
        # failed first attempts, two successful second ones.
        sink = MemorySink()
        sweep(
            {"flag_dir": [str(tmp_path)], "x": [1, 2]},
            flaky_point, trace=TraceBus(sinks=[sink]),
            **spelling(how, tmp_path),
        )
        for record in sink.events:
            assert validate_event(record) == []

        def seen(ev):
            return sorted((r["task"], r["attempt"])
                          for r in sink.of_type(ev))

        assert seen("exp.task_start") == [(0, 1), (0, 2), (1, 1), (1, 2)]
        assert seen("exp.task_retry") == [(0, 1), (1, 1)]
        assert seen("exp.task_done") == [(0, 2), (1, 2)]
        assert {r["reason"] for r in sink.of_type("exp.task_retry")} == {
            "RuntimeError: transient failure"}
        assert_stream_closed(sink.events)

    def test_trace_validate_accepts_runner_jsonl(self, tmp_path):
        trace_path = tmp_path / "sweep.jsonl"
        bus = TraceBus(sinks=[JsonlSink(str(trace_path))])
        sweep({"x": [1, 2, 3]}, square_point, parallel=1, trace=bus)
        bus.close()
        assert main(["trace-validate", str(trace_path)]) == 0


# -- the repro sweep CLI ------------------------------------------------


class TestSweepCli:
    def test_list_names_the_grids(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("demo_rtt", "fig8_torus", "fig16_rtt"):
            assert name in out

    def test_grid_required_without_list(self, capsys):
        assert main(["sweep"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--parallel", "0", "error: parallel must be >= 1, got 0"),
        ("--retries", "-1", "error: retries must be >= 0, got -1"),
    ])
    def test_bad_count_is_a_usage_error(self, tmp_path, capsys,
                                        flag, value, message):
        trace = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "demo_rtt", flag, value, "--no-cache",
                   "--trace", str(trace)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == message
        assert not trace.exists()  # rejected before the sink is opened

    def test_cold_then_warm_run(self, tmp_path, capsys):
        args = [
            "sweep", "demo_rtt", "--parallel", "2",
            "--warmup", "0.5", "--duration", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args + ["--out", str(tmp_path / "cold.json")]) == 0
        cold = capsys.readouterr().out
        assert "8 executed, 0 cache hits" in cold
        assert main(args + ["--out", str(tmp_path / "warm.json")]) == 0
        warm = capsys.readouterr().out
        assert "0 executed, 8 cache hits" in warm
        cold_rows = (tmp_path / "cold.json").read_text()
        warm_rows = (tmp_path / "warm.json").read_text()
        assert cold_rows == warm_rows
