"""Composing invariant checks and fault injection with experiment specs.

:class:`CheckContext` lets a scenario point function opt into monitoring
without changing its shape.  Two reserved keys in
:attr:`~repro.exp.spec.ScenarioSpec.params` drive it:

``"check"``
    Truthy → run under an attached :class:`InvariantMonitor`.
``"faults"``
    Anything :func:`~repro.fault.spec.resolve_faults` accepts (preset
    name, spec dict, list).  Implies ``check``: a faulted run is always
    monitored — the point of injecting a fault is proving the invariants
    survive it.

Because these live in ``params``, they flow through
``ScenarioSpec.canonical()`` into result-cache keys automatically: a
faulted sweep point can never be served a clean run's cached row.

A point function composes in four lines::

    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()          # plain Simulation when inactive
    ... build scenario ...
    ctx.arm()                       # bind faults to built components
    ... run / measure ...
    return ctx.finish(row)          # adds violations/fault_fires keys

When inactive (the default for every existing spec) this is a strict
no-op: the same untraced ``Simulation`` as before, and ``finish`` returns
the row unchanged — cached results and golden numbers are unaffected.
An inactive context does not even import the monitor, the fault
injectors or the event schema.

:func:`trace_override` routes the monitored bus somewhere visible (the
``repro check`` CLI uses it to stream ``check.*``/``fault.*`` records to
a JSONL file through a :class:`~repro.obs.sinks.FilterSink`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, List, Optional

from ..exp.spec import ScenarioSpec
from ..fault.spec import FaultSpec, resolve_faults
from ..obs.trace import TraceBus
from ..sim.simulation import Simulation

if TYPE_CHECKING:
    from ..fault.faults import Fault
    from .invariants import InvariantMonitor

__all__ = ["CheckContext", "trace_override"]

#: Bus to use for the next monitored CheckContext (set by trace_override).
_BUS_OVERRIDE: List[Optional[TraceBus]] = [None]


@contextmanager
def trace_override(bus: Optional[TraceBus]):
    """Make monitored point functions run on ``bus`` (instead of a
    private, sinkless one) for the duration of the block; ``None`` is a
    no-op, so callers with an optional bus need no branch.  Blocks nest:
    leaving one puts back what was in force when it was entered."""
    outer = _BUS_OVERRIDE[0]
    _BUS_OVERRIDE[0] = outer if bus is None else bus
    try:
        yield bus
    finally:
        _BUS_OVERRIDE[0] = outer


class CheckContext:
    """Per-run carrier for the monitor and armed faults (see module doc)."""

    def __init__(
        self,
        seed: int,
        fault_specs: Optional[List[FaultSpec]] = None,
        check: bool = False,
    ):
        self.seed = seed
        self.fault_specs = list(fault_specs or ())
        self.active = bool(check) or bool(self.fault_specs)
        self.sim: Optional[Simulation] = None
        self.monitor: Optional[InvariantMonitor] = None
        self.faults: List[Fault] = []

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "CheckContext":
        return cls(
            seed=spec.seed,
            fault_specs=resolve_faults(spec.params.get("faults")),
            check=bool(spec.params.get("check")),
        )

    def simulation(self, cls: type = Simulation, **sim_kwargs) -> Simulation:
        """Build the run's Simulation — monitored only when active.

        ``cls`` lets a point function substitute a Simulation subclass
        with the same ``(seed, trace)`` constructor shape — e.g.
        :class:`~repro.hybrid.HybridSimulation` with its ``dt`` passed
        through ``sim_kwargs`` — without losing the monitor wiring.
        """
        if not self.active:
            self.sim = cls(seed=self.seed, **sim_kwargs)
            return self.sim
        from ..obs.schema import DEFAULT_EVENTS
        from .invariants import InvariantMonitor

        bus = _BUS_OVERRIDE[0] or TraceBus(events=DEFAULT_EVENTS)
        self.sim = cls(seed=self.seed, trace=bus, **sim_kwargs)
        self.monitor = InvariantMonitor()
        self.monitor.attach(self.sim)
        return self.sim

    def arm(self) -> List[Fault]:
        """Bind fault specs to the (now built) scenario's components and
        emit the ``check.attach`` summary."""
        if not self.active:
            return []
        assert self.sim is not None, "call simulation() before arm()"
        if self.fault_specs:
            from ..fault.faults import arm_faults

            self.faults = arm_faults(self.sim, self.fault_specs)
        self.monitor.emit_attach(len(self.faults))
        return self.faults

    def finish(self, row: dict) -> dict:
        """Final invariant sweep; annotate the result row when active.

        Inactive contexts return ``row`` unchanged (identical dict), so
        unmonitored sweeps produce byte-identical cached rows.
        """
        if not self.active:
            return row
        self.monitor.finish()
        annotated = dict(row)
        annotated["violations"] = self.monitor.violations
        annotated["fault_fires"] = sum(f.fires for f in self.faults)
        return annotated
