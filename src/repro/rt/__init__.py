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

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "CodecError": ".codec",
    "DivergenceReport": ".divergence",
    "MonotonicTimers": ".loop",
    "NetemChannel": ".netem",
    "NetemProfile": ".netem",
    "PROFILES": ".netem",
    "RtPath": ".wire",
    "RtRoute": ".wire",
    "RtSimulation": ".loop",
    "decode": ".codec",
    "divergence_report": ".divergence",
    "encode": ".codec",
    "profile_replace": ".netem",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
