"""Spans, the folded profile and work counts of a traced run.

Everything here is recorded from perfbench's own files, around the calls
into each layer: nothing under ``src/`` is edited.  Spans are kept in
memory and written with the folded profile when the run ends.

* :class:`Tracer` — named spans (name, start, end, parent, workload) and
  a ``cProfile`` session folded through :mod:`perfbench.layers`.
* :class:`SimProbe` — wraps ``Simulation.run_until`` for the length of a
  traced slice to record ``sim.warmup``/``sim.measure`` spans and to keep
  hold of each simulation, so that work counts can be read from its
  public state (scheduler, queues, senders, trace bus, monitor) after
  the point function has returned only its row.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from . import layers

__all__ = ["Tracer", "NULL_TRACER", "SimProbe", "spans_from_events",
           "percentile"]


class Tracer:
    """In-memory span recorder plus one cProfile session."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._profile = cProfile.Profile()
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {
            "id": index, "name": name, "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0, "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[int] = None, **attrs) -> None:
        """A span rebuilt after the fact (from runner/farm events);
        ``start``/``end`` are seconds on this tracer's clock."""
        record = {"id": len(self.spans), "name": name,
                  "workload": self.workload, "parent": parent,
                  "start": start, "end": end}
        record.update(attrs)
        self.spans.append(record)

    @contextmanager
    def profiled(self):
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def folded(self) -> Dict[str, Dict[str, float]]:
        return layers.fold(self._profile.getstats())

    def calls_of(self, qualname: str, filename_suffix: str) -> int:
        """Profile call count of one function (for counts no public
        attribute exposes, e.g. fluid step-halvings)."""
        total = 0
        for entry in self._profile.getstats():
            code = entry.code
            if isinstance(code, str):
                continue
            if (code.co_name == qualname
                    and code.co_filename.endswith(filename_suffix)):
                total += entry.callcount
        return total

    def self_time_by_span(self) -> Dict[str, float]:
        """Self time per span name: duration minus the part its child
        spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - covered[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + max(own, 0.0)
        return out


class _NullTracer:
    """Tracing off: spans cost one attribute check and a no-op context."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield None


NULL_TRACER = _NullTracer()


class SimProbe:
    """Spans and retained references for every simulation a slice builds."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.sims: List[Any] = []
        self._seen: set = set()
        self._original = None

    def __enter__(self) -> "SimProbe":
        from repro.sim.simulation import Simulation

        original = Simulation.run_until
        probe = self

        def run_until(sim, end_time):
            first = id(sim) not in probe._seen
            if first:
                probe._seen.add(id(sim))
                probe.sims.append(sim)
            name = "sim.warmup" if first else "sim.measure"
            with probe.tracer.span(name, until=end_time):
                original(sim, end_time)

        self._original = original
        Simulation.run_until = run_until
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.simulation import Simulation

        Simulation.run_until = self._original

    def work_counts(self) -> Dict[str, int]:
        """Counts read from the public state of every retained
        simulation (exact for a fixed seed)."""
        from repro.check.invariants import InvariantMonitor
        from repro.mptcp.connection import MptcpConnection
        from repro.net.queue import DropTailQueue
        from repro.obs.trace import TraceBus
        from repro.tcp.sender import TcpSender

        counts = dict.fromkeys(
            ("sim.events", "net.pkts_forwarded", "net.drops",
             "tcp.retransmits", "tcp.timeouts", "mptcp.reinjections",
             "obs.records", "check.records", "check.violations"), 0)
        for sim in self.sims:
            counts["sim.events"] += sim.scheduler.events_run
            for component in sim.components:
                if isinstance(component, DropTailQueue):
                    counts["net.pkts_forwarded"] += component.total_departures
                    counts["net.drops"] += component.total_drops
                elif isinstance(component, TcpSender):
                    counts["tcp.retransmits"] += component.retransmissions
                    counts["tcp.timeouts"] += component.timeouts
                elif isinstance(component, MptcpConnection):
                    counts["mptcp.reinjections"] += (
                        component.scheduler.reinjected)
            bus = sim.trace
            if isinstance(bus, TraceBus):
                counts["obs.records"] += bus.events_emitted
                for sink in bus.sinks:
                    if isinstance(sink, InvariantMonitor):
                        counts["check.records"] += sink.events_seen
                        counts["check.violations"] += sink.violations
        return counts


def spans_from_events(tracer: Tracer, events: List[dict], offset: float,
                      parent: Optional[int]) -> None:
    """Rebuild ``exp.task``/``farm.task`` spans from the ``exp.*`` and
    ``farm.*`` events one ``Runner.run`` emitted.  Event times are
    seconds since that run started; ``offset`` is the run's start on the
    tracer's clock."""
    started: Dict[Any, float] = {}
    leased: Dict[Any, float] = {}
    for ev in events:
        kind, t, task = ev["ev"], ev["t"], ev.get("task")
        if kind == "exp.task_start":
            started[task] = t
        elif kind == "exp.task_done":
            begin = started.pop(task, t - ev.get("wall", 0.0))
            tracer.add_span("exp.task", offset + begin, offset + t,
                            parent=parent, task=task, wall=ev.get("wall"))
        elif kind == "farm.lease":
            leased[task] = t
        elif kind == "farm.task_done":
            begin = leased.pop(task, t - ev.get("wall", 0.0))
            tracer.add_span("farm.task", offset + begin, offset + t,
                            parent=parent, task=task, wall=ev.get("wall"),
                            worker=ev.get("worker"))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]
