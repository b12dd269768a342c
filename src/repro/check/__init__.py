"""Invariant checking: continuous safety properties over trace events.

See ``docs/CHECKING.md``.  The package has two halves:

* :mod:`repro.check.invariants` — the :class:`InvariantMonitor` trace sink
  and the :class:`InvariantViolation` it raises, carrying the reporting
  event and a replayable trace-tail.
* :mod:`repro.check.hooks` — :class:`CheckContext`, which composes
  monitoring (and :mod:`repro.fault` schedules) with
  :class:`~repro.exp.spec.ScenarioSpec`-driven experiments via the
  reserved ``check`` / ``faults`` parameter keys.
"""

from .hooks import CheckContext, trace_override
from .invariants import CHECK_EVENTS, InvariantMonitor, InvariantViolation

__all__ = [
    "CHECK_EVENTS",
    "CheckContext",
    "InvariantMonitor",
    "InvariantViolation",
    "trace_override",
]
