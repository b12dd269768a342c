"""The real-network runtime: the simulator's event heap on the OS clock.

:class:`MonotonicTimers` is the :class:`~repro.sim.clock.Timers` of this
backend: the heap the simulator schedules on
(:class:`~repro.sim.engine.EventHeap` — tuple entries, ``EventHandle``
cancellation, tombstone compaction) read against ``time.monotonic()``.
:class:`RtSimulation` is the :class:`~repro.sim.simulation.Simulation`
subclass that runs on them, so the TCP/MPTCP state machines, the path
manager, the invariant monitor, the fault layer and ``repro.exp`` point
functions run on real sockets *unchanged*: the registry, ``at_end`` /
``finish``, teardown and the scenario-time vocabulary are the base's.

Two deliberate differences from the simulator:

* **The clock is raw monotonic.**  ``now`` does not start at 0, and
  every trace event carries that epoch (the run's ``rt.run`` record
  declares ``time_origin`` so tools can rebase).  Scenario code converts
  scenario-relative times with ``sim.at`` and runs phases with
  ``sim.run_until_elapsed``, as on every backend.
* **Runs are wall-clock.**  ``run_until`` blocks the calling thread for
  real seconds, firing due timers and reading ready sockets.  The
  scheduler's virtual-time ``run``/``step``/``run_until`` do not exist
  on these timers — a wall-clock heap cannot be drained to exhaustion —
  and ``engine.event_fired`` is not emitted.  Nothing here is
  deterministic; determinism claims stay with the sim backend, and the
  ``rt_loopback`` claim (:mod:`repro.exp.paper`) bounds how far the two
  may disagree.
"""

from __future__ import annotations

import itertools
import selectors
from heapq import heappop, heappush
from time import monotonic, time
from typing import Any, Callable, Optional

from ..sim.engine import EventHandle, EventHeap
from ..sim.simulation import Simulation

__all__ = ["MonotonicTimers", "RtSimulation"]


class MonotonicTimers(EventHeap):
    """:class:`~repro.sim.clock.Timers` on ``time.monotonic()``."""

    __slots__ = ()

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self._tombstones = 0

    @property
    def now(self) -> float:
        """Monotonic-clock seconds, read afresh (arbitrary origin)."""
        return monotonic()

    def schedule_at(self, when: float, callback: Callable, arg: Any = None):
        """Run ``callback(arg?)`` at absolute clock time ``when``; a time
        in the past fires on the run loop's next pass (never raises,
        unlike the simulator's scheduler — real clocks cannot rewind)."""
        seq = next(self._seq)
        handle = EventHandle(seq, when, self)
        heappush(self._heap, (when, seq, handle, callback, arg))
        return handle

    def schedule_in(self, delay: float, callback: Callable, arg: Any = None):
        return self.schedule_at(monotonic() + delay, callback, arg)

    def fire_due(self) -> Optional[float]:
        """Fire what is due at one clock reading; return the next deadline."""
        heap = self._heap
        now = monotonic()
        while heap and heap[0][0] <= now:
            _, _, handle, callback, arg = heappop(heap)
            handle._sched = None
            if handle._cancelled:
                self._tombstones -= 1
            elif arg is None:
                callback()
            else:
                callback(arg)
        return heap[0][0] if heap else None


class RtSimulation(Simulation):
    """``Simulation`` on real sockets: monotonic timers, wall-clock runs.

    Supplies only what differs from the base: the timers, the
    :attr:`selector` paths register their sockets with, a blocking
    :meth:`run_until`, ``origin_unix``, the ``rt.run`` trace record, the
    CTRL-frame mirror of the handshakes and the row's wire counters.
    Nothing is process-global, so multiple runs — and the sim backend —
    coexist in one process.  :meth:`close` (or ``with``) must be
    reached: it closes the paths' sockets, then the selector.
    """

    def __init__(self, seed: int = 1, trace=None):
        super().__init__(seed=seed, trace=trace)
        #: Readiness multiplexer; a registered socket's ``data`` is the
        #: zero-argument reader :meth:`run_until` calls when it is ready.
        self.selector = selectors.DefaultSelector()
        # First cleanup registered, so the last to run: after the paths
        # have closed their sockets.
        self.add_cleanup(self.selector.close)
        #: Wall-clock (Unix epoch) time at the run origin.
        self.origin_unix = time()
        self._mirrored = False
        if self.trace.enabled:
            self.trace.emit(
                "rt.run",
                self.time_origin,
                backend="rt",
                origin_mono=self.time_origin,
                origin_unix=self.origin_unix,
                seed=seed,
            )

    def _make_timers(self) -> MonotonicTimers:
        return MonotonicTimers()

    def _mirror_handshakes(self) -> None:
        """Mirror each path manager's (synchronous) MPTCP handshake onto
        the wire as CTRL frames, so the signalling crosses the sockets
        too: MP_CAPABLE on the first path, one ADD_ADDR per path and one
        MP_JOIN per further path."""
        from ..mptcp.handshake import (AddAddrOption, MpCapableOption,
                                       MpJoinOption)
        from ..pathmgr.manager import PathManager

        for manager in self._components:
            if not isinstance(manager, PathManager):
                continue
            managed = manager.ordered_paths()
            paths = [m.route.path for m in managed]
            if paths:
                paths[0].send_option(
                    MpCapableOption(sender_key=manager.client.key))
            for m, path in zip(managed, paths):
                path.send_option(AddAddrOption(addr_id=m.addr_id))
            if manager.token is not None:
                for path in paths[1:]:
                    path.send_option(MpJoinOption(token=manager.token))

    def wire_counts(self) -> dict:
        """What an rt-tier row adds: CTRL frames decoded, and datagrams
        lost to the codec, an unknown channel or the socket."""
        from .wire import RtPath

        paths = [c for c in self._components if isinstance(c, RtPath)]
        return {
            "ctrl_frames": sum(len(p.options_received) for p in paths),
            "wire_errors": sum(p.codec_errors + p.unknown_channels
                               + p.socket_errors for p in paths),
        }

    def run_until(self, end_time: float) -> None:
        """Fire timers and read sockets until absolute clock time
        ``end_time`` (already-past times return without blocking).  The
        first run mirrors the handshakes (:meth:`_mirror_handshakes`)."""
        if not self._mirrored:
            self._mirrored = True
            self._mirror_handshakes()
        fire_due, select = self.timers.fire_due, self.selector.select
        while True:
            deadline = fire_due()
            now = monotonic()
            if now >= end_time:
                return
            if deadline is None or deadline > end_time:
                deadline = end_time
            for key, _ in select(deadline - now):
                key.data()
