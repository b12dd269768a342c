"""Fault injection and scripted path changes: one timeline of events.

See ``docs/CHECKING.md``.  Fault schedules are declared as
:class:`FaultSpec` values (or preset names / plain dicts — see
:func:`resolve_faults`) and bound to live components with
:func:`arm_faults`; each injector draws from its own RNG derived from
``(sim.seed, kind, target, start)``, so faulted runs are bit-identical
across repeats and the simulation's main random stream is untouched.
"""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "AckDropFault": ".faults",
    "EVENT_KINDS": ".spec",
    "FAULT_KINDS": ".spec",
    "FAULT_PRESETS": ".spec",
    "Fault": ".faults",
    "FaultSpec": ".spec",
    "LinkFlapFault": ".faults",
    "LossBurstFault": ".faults",
    "PathLiveness": ".faults",
    "RateStep": ".faults",
    "ReorderFault": ".faults",
    "SubflowKillFault": ".faults",
    "arm_faults": ".faults",
    "resolve_faults": ".spec",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
