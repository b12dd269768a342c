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
  schedule-driven like ``LinkSchedule``;
* :mod:`~repro.rt.scenarios` — ``rt_loopback`` / ``rt_handover``
  ``repro.exp`` point functions;
* :mod:`~repro.rt.divergence` — the sim-vs-real divergence harness.

See docs/REALNET.md for the quickstart and the sim-vs-real caveats.
"""

from .codec import CodecError, decode, encode
from .divergence import DivergenceReport, divergence_report
from .loop import MonotonicTimers, RtSimulation
from .netem import PROFILES, NetemChannel, NetemProfile, profile_replace
from .wire import RtPath, RtRoute

__all__ = [
    "CodecError",
    "DivergenceReport",
    "MonotonicTimers",
    "NetemChannel",
    "NetemProfile",
    "PROFILES",
    "RtPath",
    "RtRoute",
    "RtSimulation",
    "decode",
    "divergence_report",
    "encode",
    "profile_replace",
]
