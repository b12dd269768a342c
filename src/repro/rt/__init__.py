"""Real-network transport backend: the state machines on real sockets.

``repro.rt`` runs the *unmodified* TCP/MPTCP state machines over
non-blocking loopback UDP sockets in wall-clock time, with an in-process
impairment layer standing in for ``tc netem``:

* :mod:`~repro.rt.loop` — :class:`RtSimulation` / :class:`MonotonicTimers`,
  the ``Simulation``-shaped runtime: the sim's event heap on the OS clock;
* :mod:`~repro.rt.codec` — packets and MPTCP options ⇄ datagrams;
* :mod:`~repro.rt.wire` — :class:`RtPath` / :class:`RtRoute`, UDP socket
  pairs behind the sim's route API;
* :mod:`~repro.rt.netem` — delay/jitter/loss/rate impairments,
  schedule-driven like ``LinkSchedule``.

It is a backend only: a point function runs here when its spec sets the
reserved ``tier=rt`` param (:data:`repro.check.hooks.TIERS`), building
each path from the same profile the packet tier builds as queue + pipe.
The ``rt_loopback`` grid runs each transfer on both tiers, and its claim
(:mod:`repro.exp.paper`) holds the real run to the simulated one.
See docs/REALNET.md for the quickstart and the sim-vs-real caveats.
"""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "CodecError": ".codec",
    "MonotonicTimers": ".loop",
    "NetemChannel": ".netem",
    "NetemProfile": ".netem",
    "PROFILES": ".netem",
    "RtPath": ".wire",
    "RtRoute": ".wire",
    "RtSimulation": ".loop",
    "decode": ".codec",
    "encode": ".codec",
    "profile_replace": ".netem",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
