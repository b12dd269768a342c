"""Composing tiers, invariant checks and fault injection with specs.

:class:`CheckContext` lets a scenario point function opt into monitoring
and run on another tier without changing its shape.  Three reserved
keys in :attr:`~repro.exp.spec.ScenarioSpec.params` drive it:

``"tier"``
    Where the point runs: ``"packet"``, ``"hybrid"`` (fluid flow classes
    plus packet flows) or ``"rt"`` (real loopback sockets).
    :data:`TIERS` maps each to its Simulation class and path factory; a
    point declares the tiers it supports with ``simulation(tiers=…)``,
    and an unset tier (so it never enters a spec's canonical form) is
    the first of them.

``"check"``
    Truthy → run under an attached :class:`InvariantMonitor`.
``"faults"``
    Anything :func:`~repro.fault.spec.resolve_faults` accepts (preset
    name, spec dict, list).  A fault kind implies ``check`` — the point
    of injecting a fault is proving the invariants survive it; a scripted
    kind (``rate``, ``path_down``, ``path_up``) implies nothing.

Because these live in ``params``, they flow through
``ScenarioSpec.canonical()`` into result-cache keys automatically: a
faulted sweep point can never be served a clean run's cached row.

A point function composes in four lines::

    ctx = CheckContext.from_spec(spec)
    sim = ctx.simulation()          # plain Simulation when inactive
    ... build scenario (ctx.path(profile, name) for a profiled path) ...
    ctx.arm(events)                 # the point's events + the faults
    ... run / measure ...
    return ctx.finish(row)          # adds violations/fault_fires keys

When inactive (the default for every existing spec) this is a strict
no-op: the same untraced ``Simulation`` as before, and ``finish`` returns
the row unchanged — cached results and golden numbers are unaffected.
An inactive context does not even import the monitor, the event schema
or (with no events to arm) the fault injectors.

:func:`trace_override` routes the monitored bus somewhere visible (the
``repro point --trace`` CLI uses it to stream the monitored bus's
records to a JSONL file), and :func:`observe_simulations` hands each
Simulation a point builds to a callback (``repro point --series``
samples the run's components through it).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..exp.spec import ScenarioSpec
from ..fault.spec import FAULT_KINDS, FaultSpec, resolve_faults
from ..obs.trace import TraceBus
from ..sim.simulation import Simulation

if TYPE_CHECKING:
    from ..fault.faults import Fault
    from .invariants import InvariantMonitor

__all__ = ["CheckContext", "TIERS", "observe_simulations", "trace_override"]

#: Tier -> its Simulation class and its path factory ``(sim, name,
#: profile)``, as ``module:name`` references imported on first use.
TIERS: Dict[str, Tuple[str, str]] = {
    "packet": ("repro.sim.simulation:Simulation",
               "repro.topology.wireless:profile_path"),
    "hybrid": ("repro.hybrid.simulation:HybridSimulation",
               "repro.topology.wireless:profile_path"),
    "rt": ("repro.rt.loop:RtSimulation", "repro.rt.wire:RtPath"),
}


def _load(ref: str):
    module, _, name = ref.partition(":")
    return getattr(importlib.import_module(module), name)

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


#: Callbacks given each Simulation a CheckContext builds (set by
#: observe_simulations).
_OBSERVERS: List[Callable[[Simulation], None]] = []


@contextmanager
def observe_simulations(callback: Optional[Callable[[Simulation], None]]):
    """Call ``callback(sim)`` with each Simulation a point function
    builds in the block, before any component of it exists (watch them
    with ``sim.on_register``); ``None`` is a no-op.  Blocks nest: every
    callback in force sees the run."""
    if callback is not None:
        _OBSERVERS.append(callback)
    try:
        yield
    finally:
        if callback is not None:
            _OBSERVERS.remove(callback)


class CheckContext:
    """Per-run carrier for the monitor and armed faults (see module doc)."""

    def __init__(
        self,
        seed: int,
        fault_specs: Optional[List[FaultSpec]] = None,
        check: bool = False,
        scenario: str = "",
        tier: Optional[str] = None,
    ):
        self.seed = seed
        self.scenario = scenario
        self.tier = tier
        self.fault_specs = list(fault_specs or ())
        self.active = bool(check) or any(
            spec.kind in FAULT_KINDS for spec in self.fault_specs)
        self.sim: Optional[Simulation] = None
        self.monitor: Optional[InvariantMonitor] = None
        self.faults: List[Fault] = []

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "CheckContext":
        return cls(
            seed=spec.seed,
            fault_specs=resolve_faults(spec.params.get("faults")),
            check=bool(spec.params.get("check")),
            scenario=spec.scenario,
            tier=spec.params.get("tier"),
        )

    def simulation(
        self, tiers: Sequence[str] = ("packet",), **sim_kwargs
    ) -> Simulation:
        """Build the run's Simulation — monitored only when active.

        ``tiers`` are the tiers the point runs on; the spec's tier must
        be one of them (unset: the first), and picks the class from
        :data:`TIERS`.  ``sim_kwargs`` go to that class's constructor
        beside ``seed`` and ``trace`` (e.g. the hybrid tier's ``dt``).
        Every :func:`observe_simulations` callback in force then gets it.
        """
        if self.tier is None:
            self.tier = tiers[0]
        if self.tier not in tiers:
            raise ValueError(
                f"scenario {self.scenario!r} runs on tier "
                f"{' | '.join(tiers)}, not {self.tier!r}"
            )
        cls = _load(TIERS[self.tier][0])
        if not self.active:
            self.sim = cls(seed=self.seed, **sim_kwargs)
        else:
            from ..obs.schema import DEFAULT_EVENTS
            from .invariants import InvariantMonitor

            bus = _BUS_OVERRIDE[0] or TraceBus(events=DEFAULT_EVENTS)
            self.sim = cls(seed=self.seed, trace=bus, **sim_kwargs)
            self.monitor = InvariantMonitor()
            self.monitor.attach(self.sim)
        for observe in _OBSERVERS:
            observe(self.sim)
        return self.sim

    def path(self, profile, name: str):
        """One path declared by ``profile`` (a
        :class:`~repro.topology.wireless.NetemProfile`), built for this
        run's tier: queue + lossy pipe on packet, an ``RtPath`` on rt."""
        return _load(TIERS[self.tier][1])(self.sim, name, profile)

    def arm(self, events: Sequence[FaultSpec] = ()) -> List[Fault]:
        """Arm the point's scripted ``events``, then the spec's faults, on
        the built scenario (one timeline, scenario time); emit
        ``check.attach`` when monitored.  Returns everything armed."""
        armed: List[Fault] = []
        if events or self.fault_specs:
            from ..fault.faults import arm_faults

            armed = arm_faults(self.sim, [*events, *self.fault_specs])
        self.faults = [f for f in armed if f.spec.kind in FAULT_KINDS]
        if self.active:
            self.monitor.emit_attach(len(self.faults))
        return armed

    def finish(self, row: dict) -> dict:
        """Final invariant sweep; annotate the result row when active.

        Inactive packet-tier contexts return ``row`` unchanged (identical
        dict), so unmonitored sweeps produce byte-identical cached rows;
        rt-tier rows gain the wire's ``ctrl_frames`` / ``wire_errors``.
        """
        if self.tier == "rt":
            row = {**row, **self.sim.wire_counts()}
        if not self.active:
            return row
        self.monitor.finish()
        annotated = dict(row)
        annotated["violations"] = self.monitor.violations
        annotated["fault_fires"] = sum(f.fires for f in self.faults)
        return annotated
