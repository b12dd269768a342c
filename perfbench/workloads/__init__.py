"""The five workloads and the pieces they share.

A workload is a fixed, ordered list of *unit kinds* (a grid point, an
execution path, a transfer phase).  The child process runs the kinds
round-robin until ``--seconds`` is spent, so every kind has *n* or *n+1*
samples; each kind's repeats are reduced to one number (see
``Workload.cost``), which is what keeps the metrics steady however many
passes fit and however the shared host behaved meanwhile.  Everything is
a closed loop: one unit at a time, the next starts when the previous one
returns.

Each workload module defines a ``Workload`` subclass (why it was chosen
is in ``BENCHMARK.json`` and the README) with

* ``kinds`` — the units of a timed run, ``slice_kinds`` — the fixed
  slice of a traced run;
* ``run_unit(kind)`` → :class:`Sample` (its own wall/CPU measurement,
  the work done, the rows produced);
* ``metrics(by_kind)`` → the end-to-end numbers plus the
  workload-specific ones;
* ``verify(by_kind)`` → output checks, each counted as attempted/failed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..trace import NULL_TRACER

__all__ = ["Sample", "Checks", "Workload", "SpecWorkload", "WORKLOADS", "load",
           "cpu_now", "stopwatch", "med", "rows_digest", "capacity_limit_pps"]

#: Name -> module, in the order a full run executes them.
WORKLOADS = ("torus_packet", "zoo_checked", "hybrid_1m", "exec_paths",
             "rt_loopback")


def load(name: str):
    """Import one workload module (the simulator is imported with it)."""
    import importlib

    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return importlib.import_module(f"{__name__}.{name}")


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


@dataclass
class Sample:
    """One executed unit."""

    kind: str
    wall: float = 0.0
    cpu: float = 0.0
    work: float = 0.0                 # in the workload's own work unit
    rows: List[dict] = field(default_factory=list)
    error: Optional[str] = None      # the unit raised
    #: How slow the host ran around this unit: the reference kernel's
    #: time just before and after it over its nominal time (1 = nominal).
    host: float = 1.0


@contextmanager
def stopwatch(sample: Sample):
    """Time the block into ``sample.wall``/``sample.cpu``."""
    cpu0, wall0 = cpu_now(), time.perf_counter()
    try:
        yield sample
    finally:
        sample.wall = time.perf_counter() - wall0
        sample.cpu = cpu_now() - cpu0


def med(values) -> float:
    return statistics.median(values)


#: Packets already in buffers, pipes and reorder queues when a
#: measurement window opens are delivered inside it: allow half a second
#: of link capacity on top of the rates themselves.
STORED_S = 0.5


def capacity_limit_pps(rates, duration: float) -> float:
    """Most a network with these link rates can deliver per second of a
    ``duration``-second window."""
    return sum(rates) * (1.0 + STORED_S / duration)


def rows_digest(rows: List[dict]) -> str:
    """Short content hash of simulated rows: informational, it shows a
    reviewer when a speed-up changed simulated statistics."""
    text = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checks:
    """Counts output checks as operations attempted / failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def row(self, label: str, row: dict, capacity_pps: Optional[float]) -> None:
        """The per-row checks shared by the simulated workloads."""
        if "violations" in row:
            self.check(row["violations"] == 0,
                       f"{label}: violations={row['violations']}")
        if "delivery_gap" in row:
            self.check(row["delivery_gap"] == 0,
                       f"{label}: delivery_gap={row['delivery_gap']}")
        if "jain" in row:
            self.check(0.0 < row["jain"] <= 1.0 + 1e-9,
                       f"{label}: jain={row['jain']}")
        if capacity_pps is not None and "total_pps" in row:
            self.check(0.0 < row["total_pps"] <= capacity_pps,
                       f"{label}: total_pps={row['total_pps']:.1f} above "
                       f"the links' capacity {capacity_pps:.1f}")

    def repeatable(self, by_kind: Dict[str, List[Sample]]) -> None:
        """A simulated unit re-run with the same spec must give the same
        rows (only kinds that were run more than once can be checked)."""
        for kind, samples in by_kind.items():
            rows = [s.rows for s in samples if s.error is None]
            if len(rows) > 1:
                self.check(all(r == rows[0] for r in rows[1:]),
                           f"{kind}: re-run with the same spec gave a "
                           "different row")

    def errors(self, by_kind: Dict[str, List[Sample]]) -> None:
        for kind, samples in by_kind.items():
            for sample in samples:
                self.check(sample.error is None,
                           f"{kind}: raised {sample.error}")


class Workload:
    """Base class: holds what ``setup`` generated from the seed."""

    name = ""

    def __init__(self, seed: int, scale: str, scratch, tracer=NULL_TRACER):
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.tracer = tracer
        #: A ``repro.obs`` TraceBus handed to runners in a traced
        #: invocation (both passes), ``None`` in timed runs.
        self.bus = None
        self.kinds: List[str] = []
        self.slice_kinds: List[str] = []
        self.last_span: Optional[dict] = None

    def run_unit(self, kind: str) -> Sample:  # pragma: no cover - interface
        raise NotImplementedError

    def run(self, kind: str) -> Sample:
        """``run_unit``, with a unit that raises counted as a failed
        operation instead of ending the run."""
        try:
            return self.run_unit(kind)
        except Exception as exc:
            return Sample(kind, error=f"{type(exc).__name__}: {exc}")

    def metrics(self, by_kind: Dict[str, List[Sample]]) -> Dict[str, float]:
        raise NotImplementedError  # pragma: no cover - interface

    def verify(self, by_kind: Dict[str, List[Sample]]) -> Checks:
        raise NotImplementedError  # pragma: no cover - interface

    def work_counts(self) -> Dict[str, int]:
        """Counts this workload keeps itself (runner, farm, rt)."""
        return {}

    def event_metrics(self, by_kind) -> Dict[str, float]:
        """Waiting and overhead read from runner events (exec_paths)."""
        return {}

    def digest_rows(self, by_kind: Dict[str, List[Sample]]) -> Optional[str]:
        rows = [by_kind[k][0].rows for k in self.kinds
                if by_kind.get(k) and by_kind[k][0].error is None]
        return rows_digest(rows) if rows else None

    def close(self) -> None:
        pass

    # -- helpers shared by the simulated workloads ----------------------
    def run_specs(self, specs, **runner_kwargs) -> Tuple[List[dict], Any]:
        """One ``Runner.run`` under an ``exp.run`` span (kept in
        ``self.last_span``); returns (rows, runner)."""
        from repro.exp import Runner

        runner = Runner(trace=self.bus, **runner_kwargs)
        with self.tracer.span("exp.run", tasks=len(specs),
                              parallel=runner.parallel) as span:
            self.last_span = span
            rows = runner.run(specs)
        return rows, runner

    #: Whether the repeats' times are divided by their host factor
    #: before the median is taken (README, "Steadiness").  The repeats
    #: of a kind do identical work, so their times differ only by what
    #: the shared host added, in slow phases lasting seconds to minutes;
    #: the factor measured around each unit removes most of that.  It is
    #: only valid next to a unit that keeps the CPU busy: rt_loopback's
    #: paced units do not, and use the plain median.
    host_normalised = True

    def cost(self, samples: List[Sample], attr: str = "cpu") -> float:
        """Median seconds (``attr``: ``cpu`` or ``wall``) one unit of
        this kind takes."""
        if self.host_normalised:
            return med([getattr(s, attr) / s.host for s in samples])
        return med([getattr(s, attr) for s in samples])

    def rate(self, samples: List[Sample], attr: str = "wall") -> float:
        """Median work per second of ``attr`` time for one kind."""
        if self.host_normalised:
            return med([s.work * s.host / getattr(s, attr) for s in samples])
        return med([s.work / getattr(s, attr) for s in samples])


class SpecWorkload(Workload):
    """A workload whose units are single ``ScenarioSpec`` points run
    through ``Runner(parallel=1, cache=None)`` — the three simulated
    workloads.  Subclasses fill ``self.specs`` (kind -> spec) and say
    what the links of a point can carry."""

    def __init__(self, seed, scale, scratch, tracer=NULL_TRACER):
        super().__init__(seed, scale, scratch, tracer)
        self.specs: Dict[str, Any] = {}

    def run_unit(self, kind: str) -> Sample:
        spec = self.specs[kind]
        sample = Sample(kind, work=spec.warmup + spec.duration)
        with stopwatch(sample):
            sample.rows, _ = self.run_specs([spec], parallel=1, cache=None)
        return sample

    def link_rates(self, spec) -> List[float]:
        raise NotImplementedError  # pragma: no cover - interface

    def metrics(self, by_kind: Dict[str, List[Sample]]) -> Dict[str, float]:
        kinds = [k for k in self.specs if k in by_kind]
        return {
            "wall_s": sum(self.cost(by_kind[k], "wall") for k in kinds),
            "cpu_s": sum(self.cost(by_kind[k], "cpu") for k in kinds),
            "sim_s_per_s": med(
                [self.rate(by_kind[k], "cpu") for k in self.rated(kinds)]),
        }

    def rated(self, kinds: List[str]) -> List[str]:
        """The kinds ``sim_s_per_s`` is the median over."""
        return kinds

    def verify(self, by_kind: Dict[str, List[Sample]]) -> Checks:
        checks = Checks()
        checks.errors(by_kind)
        checks.repeatable(by_kind)
        for kind, samples in by_kind.items():
            spec = self.specs[kind]
            limit = capacity_limit_pps(self.link_rates(spec), spec.duration)
            for row in samples[0].rows:
                checks.row(kind, row, limit)
                if spec.params.get("check"):
                    checks.check("violations" in row,
                                 f"{kind}: ran without the monitor")
        return checks
