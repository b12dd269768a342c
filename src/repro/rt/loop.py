"""The real-network runtime: asyncio timers behind the simulation API.

:class:`AsyncioTimers` implements the :class:`~repro.sim.clock.Timers`
protocol on a real event loop — ``now`` is ``loop.time()`` (the OS
monotonic clock) and ``schedule_at``/``schedule_in`` wrap
``loop.call_at``/``loop.call_later``, whose handles already expose the
``.cancel()`` the protocol requires.  :class:`RtSimulation` is the
:class:`~repro.sim.simulation.Simulation` subclass that runs on them, so
the TCP/MPTCP state machines, the path manager, the invariant monitor,
the fault layer and ``repro.exp`` point functions run on real sockets
*unchanged*: the registry, ``at_end``/``finish``, teardown and the
scenario-time vocabulary are the base class's.

Two deliberate differences from the simulator:

* **The clock is raw monotonic.**  ``now`` does not start at 0; it is
  whatever ``loop.time()`` returns, and every trace event carries that
  epoch (the run's ``rt.run`` record declares ``time_origin`` so tools
  can rebase).  Scenario code converts scenario-relative times with
  ``sim.at`` and runs phases with ``sim.run_until_elapsed``, as on
  every backend.
* **Runs are wall-clock.**  ``run_until`` blocks the calling thread for
  real seconds while the private event loop services sockets and timers.
  Nothing here is deterministic; determinism claims stay with the sim
  backend, divergence between the two is measured by
  :mod:`repro.rt.divergence`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from ..sim.simulation import Simulation

__all__ = ["AsyncioTimers", "RtSimulation"]


class AsyncioTimers:
    """:class:`~repro.sim.clock.Timers` over an asyncio event loop."""

    __slots__ = ("_loop",)

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop

    @property
    def now(self) -> float:
        """Monotonic-clock seconds (``loop.time()``; arbitrary origin)."""
        return self._loop.time()

    def schedule_at(self, when: float, callback: Callable, arg: Any = None):
        """Run ``callback(arg?)`` at absolute loop time ``when``; a time
        in the past fires as soon as the loop runs (never raises, unlike
        the simulator's scheduler — real clocks cannot rewind)."""
        if arg is None:
            return self._loop.call_at(when, callback)
        return self._loop.call_at(when, callback, arg)

    def schedule_in(self, delay: float, callback: Callable, arg: Any = None):
        if arg is None:
            return self._loop.call_later(delay, callback)
        return self._loop.call_later(delay, callback, arg)

    # The simulator's handle-free fast paths; on asyncio the handle is
    # free anyway, so these are pure aliases kept for interface parity.
    post_at = schedule_at
    post_in = schedule_in


class RtSimulation(Simulation):
    """``Simulation`` on real sockets: asyncio timers, wall-clock runs.

    Owns a private event loop (never installed as the thread's global
    loop) so multiple runs — and the sim backend — can coexist in one
    process.  Supplies only what differs from the base: the loop and its
    :class:`AsyncioTimers`, a blocking :meth:`run_until`, ``origin_unix``
    and the ``rt.run`` trace record.  :meth:`close` (or ``with``) must
    be reached: it closes the paths' sockets, then the loop.
    """

    def __init__(self, seed: int = 1, trace=None):
        #: The private event loop.  Created before super(): the base
        #: constructor calls _make_timers().
        self.loop = asyncio.new_event_loop()
        super().__init__(seed=seed, trace=trace)
        # First cleanup registered, so the last to run: after the paths
        # have closed their transports.
        self.add_cleanup(self._close_loop)
        #: Wall-clock (Unix epoch) time at the run origin.
        self.origin_unix = time.time()
        if self.trace.enabled:
            self.trace.emit(
                "rt.run",
                self.time_origin,
                backend="rt",
                origin_mono=self.time_origin,
                origin_unix=self.origin_unix,
                seed=seed,
            )

    def _make_timers(self) -> AsyncioTimers:
        return AsyncioTimers(self.loop)

    def run_until(self, end_time: float) -> None:
        """Service sockets and timers until absolute loop time
        ``end_time`` (already-past times return immediately)."""
        remaining = end_time - self.loop.time()
        if remaining > 0:
            self.loop.run_until_complete(asyncio.sleep(remaining))

    def _close_loop(self) -> None:
        # One last spin so transport.close() teardown callbacks run.
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()
