"""Structured trace bus: typed simulation events fanned out to sinks.

The evaluation in the paper (§3–§5) rests on observing *internal* simulator
state — per-subflow congestion windows, queue occupancy, drop fractions —
not just end-of-run counters.  :class:`TraceBus` is the simulator's
first-class instrument for that: components emit small typed event records
(``pkt.enqueue``, ``cc.cwnd_update``, ``tcp.timeout``, ...) and the bus
fans them out to any number of sinks (JSONL files, in-memory lists).

Design constraint: tracing must cost (almost) nothing when disabled,
because every hot path in the simulator — the event loop, queue service,
ACK processing — is instrumented.  The pattern is:

* every instrumented component takes a ``trace=`` keyword defaulting to
  ``None``, which resolves to the owning simulation's bus (itself
  defaulting to the :data:`NULL_TRACE` no-op singleton);
* hot paths guard each emission with ``if trace.enabled:`` — a single
  attribute check on the no-op singleton when tracing is off.

Event records are plain dicts with three common fields — ``ev`` (event
type), ``t`` (simulated seconds), ``i`` (monotonic emission index) — plus
per-type payload fields.  The full schema lives in
:mod:`repro.obs.schema` and is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Set

from .sinks import TraceSink

__all__ = ["TraceBus", "NullTrace", "NULL_TRACE"]


class NullTrace:
    """No-op stand-in for a :class:`TraceBus`.

    Shared as the :data:`NULL_TRACE` singleton so that untraced simulations
    pay exactly one ``trace.enabled`` attribute check per instrumented
    point.  ``enabled`` is a class attribute and always ``False``.
    """

    __slots__ = ()

    enabled = False

    def emit(self, ev: str, t: float, **fields) -> None:  # pragma: no cover
        """Accept and discard an event (never reached behind the guard)."""

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_TRACE"


#: Module-level no-op singleton used as the default ``trace`` everywhere.
NULL_TRACE = NullTrace()


class TraceBus:
    """Collects typed events from simulator components and fans them out.

    Parameters
    ----------
    sinks:
        Iterable of :class:`~repro.obs.sinks.TraceSink` objects (or anything
        with a ``write(record)`` method).  More can be attached later with
        :meth:`add_sink`.
    events:
        Optional iterable of event-type names to record; ``None`` records
        every type.  Filtering happens inside :meth:`emit`, so even a
        filtered-out type costs only a set lookup (:meth:`records` reads
        the filter, which is fixed here).  ``engine.event_fired`` is by far
        the highest-volume type — enable it only when debugging the
        scheduler itself, which emits it onto no bus that filters it out.

    Usage::

        bus = TraceBus(sinks=[JsonlSink("trace.jsonl")])
        sim = Simulation(seed=1, trace=bus)
        ... build and run the scenario ...
        bus.close()
    """

    __slots__ = ("enabled", "_sinks", "_filter", "_seq", "events_emitted")

    def __init__(
        self,
        sinks: Iterable[TraceSink] = (),
        events: Optional[Iterable[str]] = None,
    ):
        #: Master switch checked by every instrumentation point.
        self.enabled = True
        self._sinks = list(sinks)
        self._filter: Optional[Set[str]] = None if events is None else set(events)
        self._seq = itertools.count()
        self.events_emitted = 0

    # ------------------------------------------------------------------
    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach another sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    @property
    def sinks(self) -> list:
        return list(self._sinks)

    def records(self, ev: str) -> bool:
        """Whether the filter lets type ``ev`` through (paused or not)."""
        return self._filter is None or ev in self._filter

    def pause(self) -> None:
        """Temporarily stop recording (e.g. during warm-up)."""
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    # ------------------------------------------------------------------
    def emit(self, ev: str, t: float, **fields) -> None:
        """Record one event of type ``ev`` at simulated time ``t``.

        Callers on hot paths must guard with ``if trace.enabled:`` so the
        keyword-argument packing is never done for disabled buses.
        """
        if not self.enabled:
            return
        if self._filter is not None and ev not in self._filter:
            return
        record = {"ev": ev, "t": t, "i": next(self._seq), **fields}
        self.events_emitted += 1
        for sink in self._sinks:
            sink.write(record)

    def flush(self) -> None:
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and close every sink (idempotent)."""
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "TraceBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"TraceBus({state}, sinks={len(self._sinks)}, "
            f"emitted={self.events_emitted})"
        )
