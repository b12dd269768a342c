"""The distributed, resumable experiment farm (repro.farm).

Covers the lease protocol (claim, heartbeat, expiry, requeue with
exponential backoff), failure budgets, the crash-resume property — a
worker SIGKILLed mid-lease and a broker SIGKILLed mid-grid must both
resume to rows bit-identical to an uninterrupted serial run — plus the
``farm.*`` trace events and the ``repro farm`` CLI.

Point functions live at module level so their pickles resolve by
reference inside worker subprocesses (the broker propagates ``sys.path``
to spawned workers, so this test module imports there too).
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.exp import (
    Runner, ResultCache, TaskError, execute_task, specs_for_grid,
)
from repro.exp.spec import ScenarioSpec, TaskSpec, target_id
from repro.farm import (
    Broker, FarmError, FarmLayout, farm_status, run_farm, work,
)
from repro.farm import broker as farm_broker
from repro.obs import MemorySink, TraceBus, validate_event

from conftest import sweep

pytestmark = pytest.mark.farm

# Fast knobs for every in-test broker: real deployments keep the
# defaults (15 s leases), tests shrink the clock.
FAST = dict(lease_ttl=1.0, backoff=0.05, poll=0.02)


# -- module-level point functions (picklable into worker processes) ----


def square_point(x):
    return {"sq": x * x}


def always_fails(x):
    raise RuntimeError("boom")


def flaky_point(flag_dir, x):
    flag = pathlib.Path(flag_dir) / f"ran-{x}"
    if not flag.exists():
        flag.write_text("")
        raise RuntimeError("transient failure")
    return {"ok": x}


def slow_once_point(flag_dir, x):
    """Sleeps long on first execution only — long enough to SIGKILL the
    executing worker mid-lease; the resumed attempt is instant."""
    flag = pathlib.Path(flag_dir) / f"slow-{x}"
    if not flag.exists():
        flag.write_text("")
        time.sleep(5.0)
    return {"ok": x}


def _fn_tasks(fn, points):
    return [
        TaskSpec(index=i,
                 spec=ScenarioSpec(scenario=target_id(fn), params=p),
                 fn=fn)
        for i, p in enumerate(points)
    ]


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(f"timed out waiting for {what}")


# -- basic farm execution ----------------------------------------------


class TestFarmExecution:
    def test_demo_rtt_rows_bit_identical_to_serial(self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.4)
        serial = Runner(parallel=1).run(specs)
        farm_runner = Runner(parallel=2, farm=str(tmp_path / "farm"))
        rows = farm_runner.run(specs)
        assert json.dumps(rows) == json.dumps(serial)
        assert farm_runner.executed == len(specs)
        assert farm_runner.cache_hits == 0

    def test_resume_serves_every_row_from_the_store(self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.4)
        farm_dir = str(tmp_path / "farm")
        first = Runner(parallel=2, farm=farm_dir).run(specs)
        again = Runner(parallel=1, farm=farm_dir)
        rows = again.run(specs)
        assert json.dumps(rows) == json.dumps(first)
        assert again.executed == 0
        assert again.cache_hits == len(specs)

    def test_rows_jsonl_streams_merged_rows_in_grid_order(self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.4)
        farm_dir = tmp_path / "farm"
        rows = Runner(parallel=2, farm=str(farm_dir)).run(specs)
        streamed = [
            json.loads(line)
            for line in (farm_dir / "rows.jsonl").read_text().splitlines()
        ]
        assert json.dumps(streamed) == json.dumps(rows)

    def test_fn_tasks_through_sweep_farm(self, tmp_path):
        rows = sweep({"x": [1, 2, 3, 4]}, square_point,
                     parallel=2, farm=str(tmp_path / "farm"))
        assert rows == [{"x": x, "sq": x * x} for x in (1, 2, 3, 4)]

    def test_external_cache_is_the_shared_store(self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.4)
        cache_dir = str(tmp_path / "cache")
        Runner(parallel=2, cache=cache_dir,
               farm=str(tmp_path / "farm")).run(specs)
        # A plain cached runner (no farm) reuses the farm's results.
        warm = Runner(parallel=1, cache=cache_dir)
        warm.run(specs)
        assert warm.cache_hits == len(specs)
        assert warm.executed == 0

    def test_different_grid_in_same_root_is_refused(self, tmp_path):
        root = str(tmp_path / "farm")
        run_farm(_fn_tasks(square_point, [{"x": 1}]), root, workers=1,
                 **FAST)
        with pytest.raises(FarmError, match="different grid"):
            Broker(root, tasks=_fn_tasks(square_point, [{"x": 2}]))

    def test_uninitialised_root_is_refused(self, tmp_path):
        with pytest.raises(FarmError, match="not an initialised farm"):
            Broker(str(tmp_path / "nothing-here"))
        with pytest.raises(FarmError):
            farm_status(str(tmp_path / "nothing-here"))


# -- lease expiry, backoff, failure budget ------------------------------


class TestFaultHandling:
    def test_transient_failure_requeues_then_succeeds(self, tmp_path):
        tasks = _fn_tasks(flaky_point,
                          [{"flag_dir": str(tmp_path), "x": x}
                           for x in (1, 2)])
        broker = run_farm(tasks, str(tmp_path / "farm"), workers=1,
                          max_failures=2, **FAST)
        assert [broker.raw[i]["ok"] for i in (0, 1)] == [1, 2]
        assert broker.requeued == 2
        ops = [r["op"] for r in FarmLayout(tmp_path / "farm").iter_journal()]
        assert "failed" in ops and "requeue" in ops

    def test_failure_budget_exhaustion_raises_and_marks_failed(
            self, tmp_path):
        root = tmp_path / "farm"
        tasks = _fn_tasks(always_fails, [{"x": 1}])
        with pytest.raises(TaskError, match="failed 2 time"):
            run_farm(tasks, str(root), workers=1, max_failures=1, **FAST)
        layout = FarmLayout(root)
        assert layout.finished() == "failed"
        assert "failed 2 time" in layout.failed_marker.read_text()

    def test_requeue_backoff_grows_exponentially(self, tmp_path):
        root = tmp_path / "farm"
        with pytest.raises(TaskError):
            run_farm(_fn_tasks(always_fails, [{"x": 1}]), str(root),
                     workers=1, max_failures=2, **FAST)
        delays = [r["delay"]
                  for r in FarmLayout(root).iter_journal()
                  if r["op"] == "requeue"]
        assert delays == [0.05, 0.10]

    def test_expired_lease_is_requeued_and_completed(self, tmp_path):
        root = str(tmp_path / "farm")
        tasks = _fn_tasks(square_point, [{"x": 3}])
        sink = MemorySink()
        broker = Broker(root, tasks=tasks, trace=TraceBus(sinks=[sink]),
                        max_failures=2, lease_ttl=0.2, backoff=0.05,
                        poll=0.02)
        # Simulate a worker that claimed the task and died without a
        # heartbeat: the lease's deadline is already in the past.
        layout = broker.layout
        assert layout.claim(0) is not None
        layout.write_lease(0, "dead-worker", 1, time.time() - 1.0)
        # A live in-process worker picks the task up once it is requeued.
        t = threading.Thread(
            target=work,
            kwargs=dict(root=root, worker_id="rescuer", idle_timeout=10.0,
                        poll=0.02),
        )
        t.start()
        try:
            broker.run()
        finally:
            t.join(timeout=10.0)
        assert broker.raw[0] == {"sq": 9}
        assert broker.requeued == 1
        ops = [r["op"] for r in layout.iter_journal()]
        assert "expired" in ops
        counts = sink.counts()
        assert counts["farm.lease_expired"] == 1
        assert counts["farm.requeue"] == 1
        assert counts["farm.task_done"] == 1

    def test_journal_survives_corrupt_lines(self, tmp_path):
        root = tmp_path / "farm"
        run_farm(_fn_tasks(square_point, [{"x": 2}]), str(root),
                 workers=1, **FAST)
        layout = FarmLayout(root)
        with open(layout.journal_path, "a", encoding="utf-8") as fh:
            fh.write("{torn json...\n")
            fh.write('{"op": "trailing-partial"')  # no newline
        records = list(layout.iter_journal())
        assert all("op" in r for r in records)
        # Resume over the journal with garbage in it still works.
        again = Runner(parallel=1, farm=str(root))
        rows = again.run_tasks(_fn_tasks(square_point, [{"x": 2}]))
        assert rows == [{"x": 2, "sq": 4}]


# -- crash-resume property ---------------------------------------------


class TestCrashResume:
    @pytest.mark.parametrize("grid", ["demo_rtt", "fig8_torus"])
    def test_worker_sigkill_mid_lease_then_resume_bit_identical(
            self, tmp_path, grid):
        specs = specs_for_grid(grid, warmup=0.2, duration=0.4)
        serial = Runner(parallel=1).run(specs)

        root = str(tmp_path / "farm")
        tasks = [TaskSpec(index=i, spec=s) for i, s in enumerate(specs)]
        Broker(root, tasks=tasks, **FAST)  # serve only, no run
        layout = FarmLayout(root)
        proc = farm_broker.spawn_worker(root, worker_id="victim",
                                        lease_ttl=1.0)
        try:
            # A fast grid can drain every task between two of our polls
            # (points here run in milliseconds), so accept either
            # outcome: caught mid-lease, or the grid already finished —
            # the resume below is then pure cache hits, which is exactly
            # the completion-authority property under test.
            _wait_for(
                lambda: layout.leases()
                or farm_status(root)["done"] == len(specs),
                timeout=30.0,
                what="the worker to lease a task or finish the grid",
            )
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            # Never block on a worker that was not killed (it polls
            # until a DONE marker appears, and no broker is running).
            if proc.poll() is None:
                proc.kill()
            proc.wait()

        resumed = Runner(parallel=2, farm=root)
        rows = resumed.run(specs)
        assert json.dumps(rows) == json.dumps(serial)
        # The victim's lease either expired (counted, requeued) or its
        # task was reconciled; either way every task ends done.
        status = farm_status(root)
        assert status["state"] == "done"
        assert status["done"] == len(specs)

    def test_broker_sigkill_mid_grid_then_resume_bit_identical(
            self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.5, duration=1.0)
        serial = Runner(parallel=1).run(specs)

        root = str(tmp_path / "farm")
        tasks = [TaskSpec(index=i, spec=s) for i, s in enumerate(specs)]
        Broker(root, tasks=tasks, **FAST)  # initialise the directory
        layout = FarmLayout(root)
        store = ResultCache(layout.store_root())
        manifest = layout.read_manifest()

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        # The broker to kill is a broker-only sweep (`--parallel 0`)
        # that resumes the directory initialised above.
        broker_proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "demo_rtt",
             "--farm", root, "--parallel", "0", "--no-cache",
             "--warmup", "0.5", "--duration", "1.0"],
            env=env, stdout=subprocess.DEVNULL,
        )
        worker_proc = farm_broker.spawn_worker(root, worker_id="survivor",
                                               lease_ttl=1.0)
        try:
            # Let the grid get partway — at least two rows published —
            # then SIGKILL the broker, not the worker.
            _wait_for(
                lambda: sum(1 for k in manifest["keys"]
                            if store.contains(k)) >= 2,
                timeout=60.0, what="two rows to land in the store",
            )
            os.kill(broker_proc.pid, signal.SIGKILL)
            broker_proc.wait()

            # Resume: a fresh broker over the same directory finishes the
            # remainder (the orphaned worker keeps helping) and the rows
            # are bit-identical to the uninterrupted serial run.
            resumed = Runner(parallel=1, farm=root)
            rows = resumed.run(specs)
            assert json.dumps(rows) == json.dumps(serial)
            assert resumed.cache_hits >= 2  # the pre-kill rows resumed
        finally:
            if broker_proc.poll() is None:
                broker_proc.kill()
                broker_proc.wait()
            # The DONE marker written by the resumed broker stops the
            # orphaned worker; insist if it lingers.
            try:
                worker_proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker_proc.kill()
                worker_proc.wait()

    def test_slow_task_worker_kill_leaves_no_orphan_lease(self, tmp_path):
        # Deterministic mid-execution kill: the point sleeps until
        # SIGKILLed, so the lease is guaranteed live when the worker
        # dies; resume completes instantly (flag file short-circuits).
        root = str(tmp_path / "farm")
        tasks = _fn_tasks(slow_once_point,
                          [{"flag_dir": str(tmp_path), "x": x}
                           for x in (1, 2)])
        Broker(root, tasks=tasks, **FAST)
        layout = FarmLayout(root)
        proc = farm_broker.spawn_worker(root, worker_id="victim",
                                        lease_ttl=0.5)
        try:
            _wait_for(lambda: layout.leases(), timeout=30.0,
                      what="the worker to lease a slow task")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        assert layout.leases(), "kill raced the lease away"

        broker = run_farm(tasks, root, workers=1, max_failures=3, **FAST)
        assert [broker.raw[i]["ok"] for i in (0, 1)] == [1, 2]
        assert not FarmLayout(root).leases()
        assert FarmLayout(root).finished() == "done"

    def test_reconcile_counts_a_failure_journalled_since_the_last_drain(
            self, tmp_path):
        # A worker journals "failed", then releases its lease.  A
        # reconcile scan in between must charge the failure (attempt 2
        # follows its backoff), not re-enqueue attempt 1.
        root = str(tmp_path / "farm")
        broker = Broker(root, tasks=_fn_tasks(square_point, [{"x": 1}]),
                        **FAST)
        layout = FarmLayout(root)
        assert layout.claim(0) is not None
        layout.journal("failed", task=0, worker="w", attempt=1,
                       reason="RuntimeError: boom")
        layout.release_lease(0)
        broker._reconcile()
        assert layout.queued_tasks() == []
        assert broker._failures == {0: 1} and 0 in broker._delayed

    def test_finished_farm_releases_a_lease_on_a_done_task(self, tmp_path):
        # A worker journals "done" before its lease is released; a broker
        # that finishes in between must not leave that lease behind.
        # Every row is published and one lease written by hand, so the
        # broker sees the whole grid done before its loop starts.
        root = str(tmp_path / "farm")
        cache = ResultCache(str(tmp_path / "store"))
        tasks = _fn_tasks(square_point, [{"x": x} for x in (1, 2)])
        for task in tasks:
            cache.store(cache.key(task), task, square_point(**task.spec.params))
        broker = Broker(root, tasks=tasks, cache=cache, **FAST)
        layout = FarmLayout(root)
        layout.write_lease(1, "gone", attempt=1, deadline=time.time() + 60.0)
        assert [row["sq"] for row in broker.run(workers=0)] == [1, 4]
        assert layout.leases() == []
        assert layout.finished() == "done"

    def test_a_row_is_counted_once_even_when_its_done_record_follows(
            self, tmp_path):
        # Both rows are in the store when the broker first scans it, and
        # task 1's "done" is journalled too (a worker published it just
        # before the scan).  Task 0 is a store hit, task 1 executed, and
        # a second "done" for task 1 (a re-run) counts nothing more.
        root = str(tmp_path / "farm")
        cache = ResultCache(str(tmp_path / "store"))
        tasks = _fn_tasks(square_point, [{"x": x} for x in (1, 2)])
        broker = Broker(root, tasks=tasks, cache=cache, **FAST)
        layout = FarmLayout(root)
        for task in tasks:
            cache.store(cache.key(task), task,
                        square_point(**task.spec.params))
        for _ in range(2):
            layout.journal("done", task=1, worker="w", attempt=1,
                           wall=0.0, key=cache.key(tasks[1]))
        broker._scan_store(initial=True)
        broker._drain_journal()
        assert (broker.store_hits, broker.executed) == (1, 1)
        assert broker.executed + broker.store_hits == len(tasks)

    def test_rows_already_in_the_store_are_not_run_again(self, tmp_path):
        # The broker's first store scan withdraws the queue tokens of the
        # rows it finds; before, workers leased and re-ran all of them.
        root = str(tmp_path / "farm")
        cache = ResultCache(str(tmp_path / "store"))
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.3)[:3]
        tasks = [TaskSpec(index=i, spec=s) for i, s in enumerate(specs)]
        for task in tasks[:2]:
            cache.store(cache.key(task), task, execute_task(task))
        broker = Broker(root, tasks=tasks, cache=cache, **FAST)
        broker.run(workers=1)
        leases = [record["task"] for record in FarmLayout(root).iter_journal()
                  if record["op"] == "lease"]
        assert leases == [2]
        assert (broker.executed, broker.store_hits) == (1, 2)

    def test_status_counts_a_task_that_ran_twice_once(self, tmp_path):
        root = str(tmp_path / "farm")
        Broker(root, tasks=_fn_tasks(square_point, [{"x": 1}]), **FAST)
        layout = FarmLayout(root)
        for _ in range(2):
            layout.journal("done", task=0, worker="w", attempt=1, wall=0.0)
        assert farm_status(root)["executed"] == 1


# -- farm.* events ------------------------------------------------------


class TestFarmEvents:
    def test_events_conform_to_schema_and_cover_the_lifecycle(
            self, tmp_path):
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.4)
        sink = MemorySink()
        Runner(parallel=2, farm=str(tmp_path / "farm"),
               trace=TraceBus(sinks=[sink])).run(specs)
        assert sink.events, "farm emitted no events"
        for record in sink.events:
            assert validate_event(record) == []
        counts = sink.counts()
        assert counts["farm.enqueue"] == len(specs)
        assert counts["farm.serve"] == 1
        assert counts["farm.lease"] == len(specs)
        assert counts["farm.task_done"] == len(specs)
        assert counts["farm.complete"] == 1

    def test_event_times_are_monotonic_wall_clock(self, tmp_path):
        sink = MemorySink()
        sweep({"x": [1, 2]}, square_point, farm=str(tmp_path / "farm"),
              trace=TraceBus(sinks=[sink]))
        times = [r["t"] for r in sink.events]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)


# -- the repro farm CLI -------------------------------------------------


class TestFarmCli:
    def test_serve_then_status(self, tmp_path, capsys):
        root = str(tmp_path / "farm")
        assert main([
            "sweep", "demo_rtt", "--farm", root,
            "--warmup", "0.2", "--duration", "0.4",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "8 points in" in out and "8 executed" in out
        assert main(["farm", "status", root]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "8" in out

    def test_work_exits_on_done_marker(self, tmp_path, capsys):
        root = str(tmp_path / "farm")
        assert main([
            "sweep", "demo_rtt", "--farm", root,
            "--warmup", "0.2", "--duration", "0.4", "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert main(["farm", "work", root]) == 0
        assert "0 task(s) processed" in capsys.readouterr().out

    def test_broker_only_sweep_is_drained_by_a_farm_worker(
            self, tmp_path, capsys):
        root = str(tmp_path / "farm")
        args = ["sweep", "demo_rtt", "--farm", root, "--parallel", "0",
                "--warmup", "0.2", "--duration", "0.4",
                "--cache-dir", str(tmp_path / "cache")]
        worker = threading.Thread(target=main, args=(
            ["farm", "work", root, "--idle-timeout", "30"],))
        worker.start()
        try:
            assert main(args) == 0
        finally:
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert "8 executed, 0 cache hits" in capsys.readouterr().out
        assert main(args) == 0
        assert "0 executed, 8 cache hits" in capsys.readouterr().out

    def test_another_grids_farm_is_a_usage_error(self, tmp_path, capsys):
        root = str(tmp_path / "farm")
        args = ["sweep", "demo_rtt", "--farm", root, "--duration", "0.4",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args + ["--warmup", "0.2"]) == 0
        capsys.readouterr()
        assert main(args + ["--warmup", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "different grid" in err

    def test_rerun_resumes_a_partly_published_farm(self, tmp_path, capsys):
        # The state an interrupted `sweep --farm` leaves: the whole grid
        # served, three rows published to the sweep's cache, no broker.
        root, cache = str(tmp_path / "farm"), str(tmp_path / "cache")
        window = ["--warmup", "0.2", "--duration", "0.4"]
        specs = specs_for_grid("demo_rtt", warmup=0.2, duration=0.4)
        Broker(root, tasks=[TaskSpec(index=i, spec=s)
                            for i, s in enumerate(specs)],
               cache=ResultCache(cache), **FAST)
        assert work(root, max_tasks=3, poll=0.02) == 3
        resumed, reference = tmp_path / "resumed.json", tmp_path / "ref.json"
        assert main(["sweep", "demo_rtt", "--farm", root, "--cache-dir",
                     cache, "--out", str(resumed)] + window) == 0
        assert "5 executed, 3 cache hits" in capsys.readouterr().out
        assert main(["sweep", "demo_rtt", "--no-cache",
                     "--out", str(reference)] + window) == 0
        assert resumed.read_bytes() == reference.read_bytes()

    def test_status_on_missing_farm_fails(self, tmp_path, capsys):
        assert main(["farm", "status", str(tmp_path / "void")]) == 1
        assert "error" in capsys.readouterr().err
