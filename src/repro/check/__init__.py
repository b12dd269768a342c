"""Invariant checking: continuous safety properties over trace events.

See ``docs/CHECKING.md``.  The package has two halves:

* :mod:`repro.check.invariants` — the :class:`InvariantMonitor` trace sink
  and the :class:`InvariantViolation` it raises, carrying the reporting
  event and a replayable trace-tail.
* :mod:`repro.check.hooks` — :class:`CheckContext`, which composes
  monitoring (and :mod:`repro.fault` schedules) with
  :class:`~repro.exp.spec.ScenarioSpec`-driven experiments via the
  reserved ``check`` / ``faults`` / ``tier`` parameter keys.
"""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "CHECK_EVENTS": ".invariants",
    "CheckContext": ".hooks",
    "InvariantMonitor": ".invariants",
    "InvariantViolation": ".invariants",
    "trace_override": ".hooks",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
