"""``exec_paths``: one grid of short tasks executed four ways."""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

from ..trace import percentile, spans_from_events
from . import Checks, Sample, Workload, stopwatch

#: ``seeds`` copies of demo_rtt's 8 points, ~20 ms of simulation each.
#: ``warm_s``: the warm pass repeats until this much wall time is spent.
SIZES = {
    "full": {"seeds": 8, "warmup": 0.5, "duration": 1.5, "warm_s": 0.5},
    "smoke": {"seeds": 1, "warmup": 0.25, "duration": 0.5, "warm_s": 0.1},
}

PATHS = ("cold", "warm", "pool", "farm")
#: ``farm.*`` event -> work count it adds to.
FARM_EVENT_COUNTS = {"farm.lease": "farm.leases",
                     "farm.requeue": "farm.requeues",
                     "farm.lease_expired": "farm.lease_expired"}


class ExecPaths(Workload):
    name = "exec_paths"

    def __init__(self, seed, scale, scratch, tracer):
        super().__init__(seed, scale, scratch, tracer)
        from repro.exp import specs_for_grid

        size = SIZES[scale]
        self.warm_s = size["warm_s"]
        self.specs = []
        with tracer.span("exp.expand", grid="demo_rtt"):
            for k in range(size["seeds"]):
                self.specs += specs_for_grid(
                    "demo_rtt", seed=seed * 1000 + k,
                    warmup=size["warmup"], duration=size["duration"])
        self.sim_seconds = len(self.specs) * (
            size["warmup"] + size["duration"])
        self.workers = min(2, os.cpu_count() or 1)
        self.kinds = list(PATHS)
        self.slice_kinds = list(PATHS)
        self._serial = 0
        self._cold_dir = None
        self.counts = dict.fromkeys(
            ("exp.executed", "exp.cache_hits", "exp.retried", "farm.leases",
             "farm.requeues", "farm.lease_expired"), 0)
        #: Per-path event lists of the most recent pass (traced runs).
        self.events: Dict[str, List[dict]] = {}

    # ------------------------------------------------------------------
    def _fresh_dir(self, label: str):
        self._serial += 1
        path = self.scratch / f"exec-{self._serial}-{label}"
        path.mkdir(parents=True)
        return path

    def _tally(self, runner) -> None:
        self.counts["exp.executed"] += runner.executed
        self.counts["exp.cache_hits"] += runner.cache_hits
        self.counts["exp.retried"] += runner.retried

    def run_unit(self, kind: str) -> Sample:
        sample = Sample(kind, work=len(self.specs))
        sink = None
        if self.bus is not None:
            sink = self.bus.sinks[0]
            sink.clear()
        getattr(self, f"_run_{kind}")(sample)
        if sink is not None:
            self.events[kind] = list(sink)
            self._count_farm_events(self.events[kind])
            if self.tracer.enabled and self.last_span is not None:
                spans_from_events(self.tracer, self.events[kind],
                                  self.last_span["start"],
                                  self.last_span["id"])
        return sample

    def _run(self, sample: Sample, **runner_kwargs) -> None:
        with stopwatch(sample):
            sample.rows, runner = self.run_specs(self.specs, **runner_kwargs)
        self._tally(runner)

    def _run_cold(self, sample: Sample) -> None:
        if self._cold_dir is not None:
            shutil.rmtree(self._cold_dir, ignore_errors=True)
        self._cold_dir = self._fresh_dir("cache")
        self._run(sample, parallel=1, cache=self._traced_cache(self._cold_dir))

    def _run_warm(self, sample: Sample) -> None:
        if self._cold_dir is None:
            raise RuntimeError("warm pass before any cold pass")
        passes = 0
        with stopwatch(sample):
            begin = time.perf_counter()
            while True:
                rows, runner = self.run_specs(
                    self.specs, parallel=1,
                    cache=self._traced_cache(self._cold_dir))
                self._tally(runner)
                passes += 1
                if runner.cache_hits != len(self.specs):
                    raise RuntimeError(
                        f"warm pass had {runner.cache_hits} hits of "
                        f"{len(self.specs)}")
                # A traced invocation runs a fixed slice: one warm pass.
                if (self.bus is not None
                        or time.perf_counter() - begin >= self.warm_s):
                    break
        sample.rows = rows
        sample.work = passes * len(self.specs)

    def _run_pool(self, sample: Sample) -> None:
        self._run(sample, parallel=self.workers, cache=None)

    def _run_farm(self, sample: Sample) -> None:
        root = self._fresh_dir("farm")
        try:
            self._run(sample, parallel=self.workers,
                      farm=str(root / "farm"), cache=str(root / "store"))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _traced_cache(self, root):
        """The runner's cache; in a traced pass its key/load/store calls
        are wrapped in ``exp.cache.*`` spans."""
        from repro.exp import ResultCache

        cache = ResultCache(str(root))
        if self.tracer.enabled:
            for op in ("key", "load", "store"):
                setattr(cache, op, _spanned(self.tracer, f"exp.cache.{op}",
                                            getattr(cache, op)))
        return cache

    def _count_farm_events(self, events: List[dict]) -> None:
        for ev in events:
            counter = FARM_EVENT_COUNTS.get(ev["ev"])
            if counter is not None:
                self.counts[counter] += 1

    def work_counts(self):
        return dict(self.counts)

    # ------------------------------------------------------------------
    def metrics(self, by_kind):
        paths = [k for k in PATHS if k in by_kind]
        out = {
            "wall_s": sum(self.cost(by_kind[k], "wall") for k in paths),
            "cpu_s": sum(self.cost(by_kind[k], "cpu") for k in paths),
        }
        simulated = sum(self.sim_seconds for k in paths if k != "warm")
        out["sim_s_per_s"] = simulated / out["cpu_s"]
        names = {"cold": "serial_tasks_per_s", "warm": "warm_hits_per_s",
                 "pool": "pool_tasks_per_s", "farm": "farm_tasks_per_s"}
        for kind in paths:
            out[names[kind]] = self.rate(by_kind[kind], "wall")
        return out

    def event_metrics(self, by_kind) -> Dict[str, float]:
        """Waiting and overhead, from the ``exp.*``/``farm.*`` events of
        the most recent untraced pass of a traced invocation."""
        out: Dict[str, float] = {}
        walls = [1e3 * ev["wall"] for kind in ("cold", "pool")
                 for ev in self.events.get(kind, ())
                 if ev["ev"] == "exp.task_done"]
        walls += [1e3 * ev["wall"] for ev in self.events.get("farm", ())
                  if ev["ev"] == "farm.task_done"]
        if walls:
            out["exp.task_ms.p50"] = percentile(walls, 0.5)
            out["exp.task_ms.p90"] = percentile(walls, 0.9)
        for kind, label, done, workers in (
                ("cold", "serial", "exp.task_done", 1),
                ("pool", "pool", "exp.task_done", self.workers),
                ("farm", "farm", "farm.task_done", self.workers)):
            events = self.events.get(kind)
            if not events or kind not in by_kind:
                continue
            busy = sum(ev["wall"] for ev in events if ev["ev"] == done)
            path_wall = by_kind[kind][-1].wall
            out[f"exp.overhead_ms_per_task.{label}"] = (
                1e3 * (path_wall - busy / workers) / len(self.specs))
        queued, waits = {}, []
        for ev in self.events.get("farm", ()):
            if ev["ev"] == "farm.enqueue":
                queued[ev["task"]] = ev["t"]
            elif ev["ev"] == "farm.lease" and ev["task"] in queued:
                waits.append(1e3 * (ev["t"] - queued.pop(ev["task"])))
        if waits:
            out["farm.queue_wait_ms.p50"] = percentile(waits, 0.5)
        return out

    def verify(self, by_kind) -> Checks:
        checks = Checks()
        checks.errors(by_kind)
        reference = None
        for kind in PATHS:
            for sample in by_kind.get(kind, ()):
                if sample.error is not None:
                    continue
                if reference is None:
                    reference = sample.rows
                checks.check(sample.rows == reference,
                             f"{kind}: rows differ from the first pass")
                checks.check(len(sample.rows) == len(self.specs),
                             f"{kind}: {len(sample.rows)} rows for "
                             f"{len(self.specs)} tasks")
        return checks

    def digest_rows(self, by_kind):
        from . import rows_digest

        cold = [s for s in by_kind.get("cold", ()) if s.error is None]
        return rows_digest(cold[0].rows) if cold else None

    def close(self) -> None:
        if self._cold_dir is not None:
            shutil.rmtree(self._cold_dir, ignore_errors=True)


def _spanned(tracer, name, fn):
    def call(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return call


build = ExecPaths
