"""The transport-abstraction seam: ``Clock`` / ``Timers`` / ``Wire``.

The TCP/MPTCP state machines in :mod:`repro.tcp` and :mod:`repro.mptcp`
do not depend on the discrete-event simulator — they depend on three
narrow capabilities, named here as structural protocols:

``Clock``
    ``.now`` — the current time in seconds, monotonically non-decreasing.
    In simulation this is virtual sim-epoch time (starts at 0); on the
    real-network backend it is the OS monotonic clock (an arbitrary
    large origin — see :mod:`repro.rt.loop`).

``Timers``
    A ``Clock`` plus ``schedule_at(time, callback, arg=None)`` /
    ``schedule_in(delay, callback, arg=None)``, each returning a handle
    with a ``.cancel()`` method.  Implementations:

    * :class:`repro.sim.engine.EventScheduler` — the simulator's event
      heap (virtual time; deterministic FIFO tie-breaking).
    * :class:`repro.rt.loop.MonotonicTimers` — the same heap read
      against ``time.monotonic()`` (wall-clock; nothing deterministic).

``Wire``
    Anything with ``.receive(packet)`` — the forwarding contract every
    route element already implements (queues, pipes, endpoints, and the
    real backend's UDP codec wires).  A sender transmits by handing the
    packet to ``route[0].receive``; it never learns whether the next hop
    is a simulated queue or a socket.

Senders and receivers reach their ``Timers`` through ``sim.timers``:
the scheduler itself on :class:`repro.sim.simulation.Simulation`, a
``MonotonicTimers`` on its subclass :class:`repro.rt.loop.RtSimulation`.
The seam is the *only* thing a backend swaps; the container around it
(registry, ``finish``, teardown) and the conversion between a clock's
epoch and scenario time (``sim.time_origin`` / ``at`` / ``elapsed``)
live once, on ``Simulation``.  The protocols are ``runtime_checkable`` so tests can
assert an implementation satisfies the seam structurally, but hot-path
code must never ``isinstance``-check them per packet.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

__all__ = ["Clock", "Timers", "TimerHandle", "Wire"]


@runtime_checkable
class TimerHandle(Protocol):
    """What ``schedule_at`` / ``schedule_in`` return: cancellable."""

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """A monotonically non-decreasing notion of "now" (seconds)."""

    @property
    def now(self) -> float: ...


@runtime_checkable
class Timers(Protocol):
    """A clock that can call back at a chosen time.

    ``schedule_at`` takes an *absolute* time on this clock's epoch;
    ``schedule_in`` a relative delay.  Scheduling in the past must fire
    the callback as soon as possible rather than raise.  ``arg`` is an
    optional single positional argument passed to ``callback``.
    """

    @property
    def now(self) -> float: ...

    def schedule_at(
        self, time: float, callback: Any, arg: Optional[Any] = None
    ) -> TimerHandle: ...

    def schedule_in(
        self, delay: float, callback: Any, arg: Optional[Any] = None
    ) -> TimerHandle: ...


@runtime_checkable
class Wire(Protocol):
    """One hop a packet can be handed to — queue, pipe, endpoint, socket."""

    def receive(self, packet: Any) -> None: ...
