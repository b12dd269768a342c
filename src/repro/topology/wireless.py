"""The wireless-client scenarios of §5: WiFi + 3G paths, and the mobile
walk of Fig 17.

The paper's measurements (§2.3, §5) characterise the two media:

* **WiFi**: high rate (14.4 Mb/s in the static tests), short RTT (~10 ms),
  but lossy (~1–4 % from 2.4 GHz interference) and *underbuffered* ("it
  seems that the WiFi basestation is underbuffered").
* **3G**: low rate (2.1 Mb/s), *overbuffered* ("RTTs of well over a
  second"), very low ambient loss.

A path is declared once, as a :class:`NetemProfile` (rate, one-way
delay, buffer, ambient loss); :data:`PROFILES` names the standard ones.
On the packet tier :func:`profile_path` builds a profile as an
access-link queue (variable-rate, so coverage changes can be scripted)
followed by a lossy pipe for ambient radio loss; on the rt tier
:class:`~repro.rt.wire.RtPath` emulates the same profile over loopback
UDP.  The mobile experiment (Fig 17) is reproduced by a
:class:`LinkSchedule` that replays capacity changes — e.g. WiFi dropping
to zero on the stairwell — against either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..net.network import mbps_to_pps
from ..net.pipe import LossyPipe
from ..net.queue import VariableRateQueue
from ..net.route import Route
from ..sim.simulation import Simulation

__all__ = ["NetemProfile", "PROFILES", "profile_replace", "profile_path",
           "WirelessPath", "build_wifi_path", "build_3g_path", "LinkSchedule"]


@dataclass(frozen=True)
class NetemProfile:
    """One direction of one path's impairments.  All times in seconds."""

    delay: float = 0.0                  # one-way propagation delay
    jitter: float = 0.0                 # uniform ±jitter (rt tier only)
    loss: float = 0.0                   # i.i.d. loss probability
    rate_mbps: Optional[float] = None   # line rate (None = ∞)
    buffer_pkts: int = 64               # waiting packets before drop-tail

    def reverse(self) -> "NetemProfile":
        """Default return-direction profile: delay only, like the
        delay-only reverse of a packet-tier route (ACKs are tiny and
        rarely the bottleneck)."""
        return NetemProfile(delay=self.delay)


#: Named paths: the §5 ``wifi``/``3g`` media, a mild ``lan`` (the
#: profile the ``rt_loopback`` claim gates), a lossy variant and a
#: delay-only ``clean``.
PROFILES: Dict[str, NetemProfile] = {
    "wifi": NetemProfile(delay=0.005, loss=0.01, rate_mbps=14.4,
                         buffer_pkts=20),
    "3g": NetemProfile(delay=0.050, loss=0.0, rate_mbps=2.1,
                       buffer_pkts=300),
    "lan": NetemProfile(delay=0.010, loss=0.0, rate_mbps=2.0,
                        buffer_pkts=50),
    "lossy_lan": NetemProfile(delay=0.010, loss=0.02, rate_mbps=2.0,
                              buffer_pkts=50),
    "clean": NetemProfile(delay=0.002),
}

#: Derive a tweaked profile, e.g. ``profile_replace(PROFILES['lan'],
#: loss=0.05)`` (just ``dataclasses.replace``, re-exported).
profile_replace = replace


@dataclass
class WirelessPath:
    """One wireless access path: its queue, ambient-loss pipe and route."""

    queue: VariableRateQueue
    pipe: LossyPipe
    route_template: Tuple[VariableRateQueue, LossyPipe]
    reverse_delay: float
    sim: Simulation
    name: str

    def route(self, name: str = "") -> Route:
        """A fresh Route over this path (flows sharing the path share the
        queue and pipe, as they share the physical medium)."""
        return Route(
            self.sim,
            list(self.route_template),
            reverse_delay=self.reverse_delay,
            name=name or self.name,
        )

    def set_rate_mbps(self, mbps: float) -> None:
        self.queue.set_rate(mbps_to_pps(mbps))


def profile_path(sim: Simulation, name: str, profile: NetemProfile
                 ) -> WirelessPath:
    """The packet-tier path of ``profile``: a variable-rate drop-tail
    queue, then a lossy pipe (an unlimited rate becomes 10 Gb/s; jitter
    is not modelled)."""
    rate = 1e4 if profile.rate_mbps is None else profile.rate_mbps
    queue = VariableRateQueue(
        sim, mbps_to_pps(rate), profile.buffer_pkts, name=f"{name}.q"
    )
    pipe = LossyPipe(sim, profile.delay, profile.loss, name=f"{name}.pipe")
    return WirelessPath(queue, pipe, (queue, pipe), profile.delay, sim, name)


_WIFI, _3G = PROFILES["wifi"], PROFILES["3g"]


def build_wifi_path(
    sim: Simulation,
    rate_mbps: float = _WIFI.rate_mbps,
    rtt_floor: float = 2.0 * _WIFI.delay,
    buffer_pkts: int = _WIFI.buffer_pkts,
    loss_prob: float = _WIFI.loss,
    name: str = "wifi",
) -> WirelessPath:
    """A WiFi access path: fast, short-RTT, underbuffered, lossy (§5)."""
    return profile_path(sim, name, NetemProfile(
        delay=rtt_floor / 2.0, loss=loss_prob, rate_mbps=rate_mbps,
        buffer_pkts=buffer_pkts))


def build_3g_path(
    sim: Simulation,
    rate_mbps: float = _3G.rate_mbps,
    rtt_floor: float = 2.0 * _3G.delay,
    buffer_pkts: int = _3G.buffer_pkts,
    loss_prob: float = _3G.loss,
    name: str = "3g",
) -> WirelessPath:
    """A 3G access path: slow, overbuffered (full buffer => RTT well over a
    second: 300 pkts / 175 pkt/s ≈ 1.7 s), nearly loss-free (§5)."""
    return profile_path(sim, name, NetemProfile(
        delay=rtt_floor / 2.0, loss=loss_prob, rate_mbps=rate_mbps,
        buffer_pkts=buffer_pkts))


class LinkSchedule:
    """Replays scripted capacity changes against wireless paths (Fig 17).

    Each event is ``(time, path, rate_mbps)``; a rate of 0 models a
    coverage outage (the stairwell with no WiFi).  Observers — e.g. the
    handover module of :mod:`repro.pathmgr` — can :meth:`subscribe` to be
    told about each applied change, in schedule order.
    """

    def __init__(
        self,
        sim: Simulation,
        events: Sequence[Tuple[float, WirelessPath, float]],
    ):
        self.sim = sim
        self.events: List[Tuple[float, WirelessPath, float]] = sorted(
            events, key=lambda e: e[0]
        )
        self.applied = 0
        self._subscribers: List[Callable[[float, WirelessPath, float], None]] = []

    def subscribe(
        self, callback: Callable[[float, WirelessPath, float], None]
    ) -> None:
        """Call ``callback(now, path, rate_mbps)`` after each applied
        change (after the rate has taken effect on the queue)."""
        self._subscribers.append(callback)

    def start(self) -> None:
        for time, path, mbps in self.events:
            self.sim.schedule_at(time, self._apply, (path, mbps))

    def _apply(self, event: Tuple[WirelessPath, float]) -> None:
        path, mbps = event
        path.set_rate_mbps(mbps)
        self.applied += 1
        for callback in list(self._subscribers):
            callback(self.sim.now, path, mbps)
