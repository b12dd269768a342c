"""Top-level simulation container — the one run surface of every backend.

A :class:`Simulation` bundles a :class:`~repro.sim.clock.Timers`
implementation with a seeded random number generator, a trace bus and a
registry of components.  On the default backend the timers are the
discrete-event scheduler, so an experiment is fully reproducible from
``(scenario, seed)``; :class:`~repro.hybrid.HybridSimulation` adds a
fluid tier on the same scheduler and
:class:`~repro.rt.loop.RtSimulation` runs the same event heap on the OS
monotonic clock.  Both are subclasses: everything else — registry,
``at_end``/``finish``, teardown and the scenario-time vocabulary below —
exists only here.

**Scenario time.**  ``now`` is the backend clock's own epoch (0-based
virtual seconds here, raw monotonic seconds on real sockets), so code
that means "x seconds into the run" says so through ``time_origin``,
``elapsed``, ``at(rel)``, ``run_until_elapsed(rel)`` and
``run_for(d)``.  On virtual time ``time_origin == 0.0``, hence
``at(x) == x`` and ``elapsed == now`` bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional

from ..obs.trace import NULL_TRACE
from .engine import EventScheduler

__all__ = ["Simulation"]


class Simulation:
    """Timers + seeded randomness + component registry + scenario time.

    All components take a ``Simulation`` in their constructor and use
    ``sim.timers`` for timing and ``sim.rng`` for randomness, so that a
    simulated run is a pure function of the scenario and the seed.

    Passing a :class:`~repro.obs.trace.TraceBus` as ``trace`` turns on
    structured event tracing for every component built on this simulation
    (components resolve their default ``trace=`` keyword to ``sim.trace``).
    Without one, ``sim.trace`` is the no-op singleton and instrumented hot
    paths pay a single attribute check.
    """

    def __init__(self, seed: int = 1, trace=None):
        self.trace = NULL_TRACE if trace is None else trace
        #: The :class:`~repro.sim.clock.Timers` implementation components
        #: use for time and timer access, under both of its names: here
        #: the event scheduler itself (one object, cached by the packet
        #: hot path), on the real-network backend a
        #: :class:`~repro.rt.loop.MonotonicTimers` — no virtual-time
        #: ``run``/``step``/``run_until``: :meth:`run` fails loudly there.
        self.timers = self.scheduler = self._make_timers()
        #: ``now`` at the run origin: 0.0 on virtual time, the monotonic
        #: clock's reading when the run was built on real sockets.
        self.time_origin = self.timers.now
        self.seed = seed
        #: Seeded RNG.  On the real backend it feeds the impairment layer
        #: (loss draws, jitter): the impairment *schedule* is reproducible
        #: even though packet timing is not.
        self.rng = random.Random(seed)
        self._components: List[Any] = []
        self._watchers: List[Callable[[Any], None]] = []
        self._at_end: List[Callable[[], None]] = []
        self._cleanups: List[Callable[[], None]] = []

    def _make_timers(self):
        """The backend's :class:`~repro.sim.clock.Timers` (subclass hook);
        the scheduler is traced only by a bus that records its events."""
        trace = self.trace
        fires = trace is not NULL_TRACE and trace.records("engine.event_fired")
        return EventScheduler(trace=trace if fires else None)

    # -- time ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time in seconds on the backend clock's own epoch."""
        return self.scheduler.now

    @property
    def elapsed(self) -> float:
        """Seconds since the run origin (the 0-based scenario axis)."""
        return self.scheduler.now - self.time_origin

    def at(self, rel: float) -> float:
        """Absolute clock time of the scenario-relative instant ``rel``."""
        return self.time_origin + rel

    def schedule_at(self, time: float, callback, arg=None):
        return self.scheduler.schedule_at(time, callback, arg)

    def schedule_in(self, delay: float, callback, arg=None):
        return self.scheduler.schedule_in(delay, callback, arg)

    # -- components ------------------------------------------------------
    def register(self, component: Any) -> Any:
        """Track a component for introspection; returns it for chaining."""
        self._components.append(component)
        for watcher in self._watchers:
            watcher(component)
        return component

    def on_register(
        self, callback: Callable[[Any], None], replay: bool = True
    ) -> None:
        """Invoke ``callback`` for every registered component, now and in
        the future.

        This is how cross-cutting observers (the invariant monitor, the
        fault-injection layer) discover the queues, senders and connections
        of a scenario without explicit wiring: components register
        themselves at construction, and a watcher attached at any time sees
        the ones built before it (``replay=True``) as well as everything
        built afterwards.
        """
        self._watchers.append(callback)
        if replay:
            for component in self._components:
                callback(component)

    @property
    def components(self) -> List[Any]:
        return list(self._components)

    # -- running ---------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Run to absolute clock time ``end_time`` (backends override)."""
        self.scheduler.run_until(end_time)

    def run_until_elapsed(self, rel: float) -> None:
        """Run until ``rel`` seconds after the run origin."""
        self.run_until(self.at(rel))

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds from now."""
        self.run_until(self.now + duration)

    def run(self, max_events: Optional[int] = None) -> int:
        return self.scheduler.run(max_events=max_events)

    def at_end(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked by :meth:`finish`."""
        self._at_end.append(callback)

    def finish(self) -> None:
        """Invoke end-of-run callbacks (e.g. to flush metric samples) and
        flush any trace sinks."""
        for callback in self._at_end:
            callback()
        self.trace.flush()

    # -- teardown --------------------------------------------------------
    def add_cleanup(self, callback: Callable[[], None]) -> None:
        """Register teardown (sockets, transports) run by :meth:`close`."""
        self._cleanups.append(callback)

    def close(self) -> None:
        """Run the cleanups, newest first.  Idempotent, and a no-op on
        virtual time where nothing registers one; every run on real
        sockets must reach it (``with cls(...) as sim`` does)."""
        while self._cleanups:
            self._cleanups.pop()()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(seed={self.seed}, "
            f"elapsed={self.elapsed:.3f}, components={len(self._components)})"
        )
