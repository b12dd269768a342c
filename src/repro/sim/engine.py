"""Discrete-event scheduling engine.

This is the substrate of the packet-level simulator: a priority queue of
timestamped events.  Events scheduled for the same instant fire in the order
they were scheduled (FIFO tie-breaking via a monotonically increasing
sequence number), which keeps simulations deterministic.

The engine is deliberately minimal and allocation-light: an event is a tuple
``(time, seq, handle, callback, arg)`` on a ``heapq``.  Two schedule paths
exist:

* :meth:`EventScheduler.schedule_at` / :meth:`~EventScheduler.schedule_in`
  return an :class:`EventHandle` for cancellation (timers);
* :meth:`EventScheduler.post_at` / :meth:`~EventScheduler.post_in` skip the
  handle allocation entirely (``handle`` slot holds ``None``) for the
  fire-and-forget events that dominate packet simulations — queue service
  completions, pipe deliveries.

Cancellation is O(1): the handle is marked and the entry left in the heap
as a *tombstone*, skipped at pop time.  The scheduler counts live
tombstones exactly (a handle knows whether it is still in the heap) and
lazily compacts the heap once tombstones outnumber live events, so
cancelled far-future timers — the RTO-rearm pattern — cannot accumulate:
cancelling N timers keeps the heap O(live events), not O(N).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..obs.trace import NULL_TRACE

__all__ = ["EventHeap", "EventScheduler", "EventHandle", "SimulationError"]

#: Compaction never triggers below this many tombstones (small heaps are
#: cheap to carry; rebuilding them would cost more than it saves).
_COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. past-time event)."""


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    A handle stays valid after the event fires; cancelling a fired event is a
    harmless no-op.
    """

    __slots__ = ("seq", "time", "_cancelled", "_sched")

    def __init__(self, seq: int, time: float, sched=None):
        self.seq = seq
        self.time = time
        self._cancelled = False
        #: Owning scheduler while the entry is still in the heap (cleared
        #: at pop time) — lets cancel() keep the tombstone count exact.
        self._sched = sched

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if not self._cancelled:
            self._cancelled = True
            sched = self._sched
            if sched is not None:
                sched._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(seq={self.seq}, time={self.time:.6f}, {state})"


class EventHeap:
    """Heap bookkeeping shared by every :class:`~repro.sim.clock.Timers`
    backend: the entries, the FIFO counter and exact tombstone accounting.
    A subclass owns the clock — virtual time below, the OS's in
    :class:`repro.rt.loop.MonotonicTimers` — and sets the three slots."""

    __slots__ = ("_heap", "_seq", "_tombstones")

    def _note_cancel(self) -> None:
        """One live heap entry became a tombstone; compact when they
        outnumber live events (amortized O(1) per cancellation)."""
        tombstones = self._tombstones + 1
        heap = self._heap
        if (
            tombstones > _COMPACT_MIN_TOMBSTONES
            and tombstones * 2 >= len(heap)
        ):
            # In place: the dispatch loops hold a local alias to the heap
            # list, so the list object must survive compaction.
            heap[:] = [
                entry for entry in heap
                if entry[2] is None or not entry[2]._cancelled
            ]
            heapq.heapify(heap)
            self._tombstones = 0
        else:
            self._tombstones = tombstones

    @property
    def pending(self) -> int:
        """Number of live events still queued (tombstones excluded)."""
        return len(self._heap) - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled entries awaiting compaction (for leak diagnostics)."""
        return self._tombstones


class EventScheduler(EventHeap):
    """A deterministic discrete-event scheduler.

    Typical use::

        sched = EventScheduler()
        sched.schedule_in(1.0, callback, arg)
        sched.run_until(10.0)
    """

    __slots__ = ("now", "_events_run", "trace")

    def __init__(self, trace=None) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self._events_run = 0
        #: Cancelled entries still sitting in the heap.
        self._tombstones = 0
        #: Trace bus for ``engine.event_fired`` events; the no-op singleton
        #: by default so the dispatch loop pays one attribute check.
        self.trace = NULL_TRACE if trace is None else trace

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        arg: Any = None,
    ) -> EventHandle:
        """Schedule ``callback(arg)`` (or ``callback()`` if arg is None) at
        absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past or NaN.
        """
        if not time >= self.now:  # NaN fails this too
            raise SimulationError(
                f"cannot schedule event at {time:.9f}, now is {self.now:.9f}"
            )
        seq = next(self._seq)
        handle = EventHandle(seq, time, self)
        heapq.heappush(self._heap, (time, seq, handle, callback, arg))
        return handle

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., None],
        arg: Any = None,
    ) -> EventHandle:
        """Schedule an event ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails this too
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        time = self.now + delay
        seq = next(self._seq)
        handle = EventHandle(seq, time, self)
        heapq.heappush(self._heap, (time, seq, handle, callback, arg))
        return handle

    def post_at(
        self,
        time: float,
        callback: Callable[..., None],
        arg: Any = None,
    ) -> None:
        """Like :meth:`schedule_at` but without a cancellation handle.

        The hot-path variant for fire-and-forget events (queue service,
        pipe delivery): it skips the :class:`EventHandle` allocation, which
        dominates the scheduling cost for events nobody ever cancels.
        """
        if not time >= self.now:  # NaN fails this too
            raise SimulationError(
                f"cannot schedule event at {time:.9f}, now is {self.now:.9f}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), None, callback, arg))

    def post_in(
        self,
        delay: float,
        callback: Callable[..., None],
        arg: Any = None,
    ) -> None:
        """Like :meth:`schedule_in` but without a cancellation handle."""
        if not delay >= 0:  # NaN fails this too
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), None, callback, arg)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        heap = self._heap
        trace = self.trace
        pop = heapq.heappop
        while heap:
            time, seq, handle, callback, arg = pop(heap)
            if handle is not None:
                handle._sched = None
                if handle._cancelled:
                    self._tombstones -= 1
                    continue
            self.now = time
            self._events_run += 1
            if trace.enabled:
                self._trace_fire(trace, time, seq, callback)
            if arg is None:
                callback()
            else:
                callback(arg)
            return True
        return False

    @staticmethod
    def _trace_fire(trace, time: float, seq: int, callback) -> None:
        try:
            cb_name = callback.__qualname__
        except AttributeError:
            cb_name = repr(callback)
        trace.emit("engine.event_fired", time, seq=seq, cb=cb_name)

    def run_until(self, end_time: float) -> None:
        """Run events in order until simulated time reaches ``end_time``.

        The clock is left at exactly ``end_time`` (even if the last event was
        earlier), so successive ``run_until`` calls compose naturally.

        Dispatch is batched by timestamp: once the head of the heap is known
        to be within ``end_time``, the whole same-timestamp run drains in an
        inner loop — one clock store and one horizon check per distinct
        instant instead of per event.  Events a callback schedules *at* the
        running instant join the same drain (exactly where the unbatched
        loop would have picked them up).

        A NaN ``end_time`` raises :class:`SimulationError`: no event time
        compares greater than it, so it would drain the whole heap.
        """
        if end_time != end_time:  # NaN
            raise SimulationError(f"cannot run until {end_time!r}")
        heap = self._heap
        trace = self.trace
        pop = heapq.heappop
        executed = 0
        try:
            while heap:
                time = heap[0][0]
                if time > end_time:
                    break
                self.now = time
                while True:
                    entry = pop(heap)
                    handle = entry[2]
                    if handle is not None:
                        handle._sched = None
                        if handle._cancelled:
                            self._tombstones -= 1
                            if heap and heap[0][0] == time:
                                continue
                            break
                    executed += 1
                    callback = entry[3]
                    if trace.enabled:
                        self._trace_fire(trace, time, entry[1], callback)
                    arg = entry[4]
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                    if not heap or heap[0][0] != time:
                        break
        finally:
            self._events_run += executed
        if end_time > self.now:
            self.now = end_time

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain (or ``max_events`` fired).

        Returns the number of events executed.
        """
        if max_events is not None:
            count = 0
            while self.step():
                count += 1
                if count >= max_events:
                    break
            return count
        heap = self._heap
        trace = self.trace
        pop = heapq.heappop
        executed = 0
        try:
            while heap:
                time, seq, handle, callback, arg = pop(heap)
                if handle is not None:
                    handle._sched = None
                    if handle._cancelled:
                        self._tombstones -= 1
                        continue
                self.now = time
                executed += 1
                if trace.enabled:
                    self._trace_fire(trace, time, seq, callback)
                if arg is None:
                    callback()
                else:
                    callback(arg)
        finally:
            self._events_run += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_run(self) -> int:
        """Total number of events executed so far."""
        return self._events_run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventScheduler(now={self.now:.6f}, pending={self.pending}, "
            f"run={self._events_run})"
        )
