"""In-process network emulation for loopback runs (no root, no ``tc``).

Loopback UDP has microsecond RTTs and no loss; to reproduce the sim's
scenarios over real sockets each :class:`~repro.rt.wire.RtPath` pushes
every datagram through a per-direction :class:`NetemChannel` that
emulates the same three impairments the simulator's path elements apply:

* **rate** — a transmission clock: each packet occupies the emulated
  line for ``size / rate_pps`` seconds, departures are serialized
  (``busy_until``), and at most ``buffer_pkts`` packets may be waiting —
  the drop-tail behaviour of the sim's ``VariableRateQueue``.  A rate of
  0 models a coverage outage (packets are dropped, senders hit their
  RTO, exactly the condition the handover machinery reacts to);
  ``None`` means unimpeded.
* **delay/jitter** — one-way propagation delay, plus a uniform ±jitter
  drawn from the run's seeded RNG (the sim's ``Pipe``/``LossyPipe``
  delay; jitter is the real-world extra the sim does not model).
* **loss** — i.i.d. loss probability (the sim's ``LossyPipe``).

Rate changes arrive through :meth:`NetemChannel.set_rate_mbps`, so a
:class:`~repro.topology.wireless.LinkSchedule` drives an ``RtPath``
exactly as it drives a sim ``WirelessPath`` — schedule-driven capacity
walks (§5's stairwell) work verbatim on the real backend.

Every drop is traced as ``pkt.drop`` with ``kind='netem'``; rate changes
as ``rt.netem``.

A channel emulates one direction of a
:class:`~repro.topology.wireless.NetemProfile`, the path declaration
the packet tier builds as queue + pipe; :data:`PROFILES` and
:func:`profile_replace` are re-exported from there.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..net.network import mbps_to_pps
from ..topology.wireless import PROFILES, NetemProfile, profile_replace

__all__ = ["NetemProfile", "NetemChannel", "PROFILES", "profile_replace"]


class NetemChannel:
    """One direction of one path: admit datagrams, impair, then send."""

    __slots__ = (
        "name", "direction", "path_name", "trace", "_timers", "_rng",
        "delay", "jitter", "loss", "rate_pps", "buffer_pkts",
        "_busy_until", "_departs", "sent", "dropped",
    )

    def __init__(self, sim, path_name: str, direction: str,
                 profile: NetemProfile):
        self.name = f"{path_name}.{direction}"
        self.direction = direction
        self.path_name = path_name
        self.trace = sim.trace
        self._timers = sim.timers
        self._rng = sim.rng
        self.delay = profile.delay
        self.jitter = profile.jitter
        self.loss = profile.loss
        self.rate_pps: Optional[float] = (
            None if profile.rate_mbps is None
            else mbps_to_pps(profile.rate_mbps)
        )
        self.buffer_pkts = profile.buffer_pkts
        self._busy_until = 0.0
        #: Departure times of the packets on the emulated line (monotone).
        self._departs: deque = deque()
        self.sent = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def set_rate_mbps(self, mbps: Optional[float]) -> None:
        """Change the emulated line rate (``LinkSchedule`` calls this
        through :meth:`RtPath.set_rate_mbps`).  0 starts an outage."""
        self.rate_pps = None if mbps is None else mbps_to_pps(mbps)
        if self.trace.enabled:
            self.trace.emit(
                "rt.netem",
                self._timers.now,
                path=self.path_name,
                direction=self.direction,
                rate_mbps=mbps,
            )

    # ------------------------------------------------------------------
    def admit(self, datagram: bytes, size: float, send, flow=None,
              seq=None) -> bool:
        """Impair one datagram; ``send(datagram)`` fires when (if) it
        clears the emulated path.  Returns False when dropped."""
        now = self._timers.now
        if self.loss and self._rng.random() < self.loss:
            return self._drop(flow, seq)
        rate = self.rate_pps
        if rate is None:
            depart = now
        elif rate <= 0.0:
            # Coverage outage: the emulated medium carries nothing.
            return self._drop(flow, seq)
        else:
            departs = self._departs
            while departs and departs[0] <= now:
                departs.popleft()
            if len(departs) >= self.buffer_pkts:
                return self._drop(flow, seq)
            start = self._busy_until if self._busy_until > now else now
            depart = start + size / rate
            self._busy_until = depart
            departs.append(depart)
        delay = self.delay
        if self.jitter:
            delay += self._rng.uniform(-self.jitter, self.jitter)
            if delay < 0.0:
                delay = 0.0
        self.sent += 1
        when = depart + delay
        if when <= now:
            send(datagram)  # unimpaired: straight onto the socket
        else:
            self._timers.schedule_at(when, send, datagram)
        return True

    def _drop(self, flow, seq) -> bool:
        self.dropped += 1
        if self.trace.enabled:
            self.trace.emit(
                "pkt.drop",
                self._timers.now,
                elem=self.name,
                kind="netem",
                flow=flow,
                seq=seq,
            )
        return False

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Packets waiting on the emulated line now (rate-limited only)."""
        departs, now = self._departs, self._timers.now
        while departs and departs[0] <= now:
            departs.popleft()
        return len(departs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetemChannel({self.name!r}, rate_pps={self.rate_pps}, "
            f"sent={self.sent}, dropped={self.dropped})"
        )

