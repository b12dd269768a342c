"""repro.hybrid — the flow-class / fluid-hybrid simulation tier.

The packet engine simulates every packet of every flow; that is the
right tool for hundreds of flows, and far too slow for the paper's
"heavy traffic from millions of users".  This package adds a second
tier on the same event scheduler: statistically-identical flows are
aggregated into :class:`FlowClass` fluid state vectors integrated with
the guarded :mod:`repro.fluid.dynamics` stepper, bottleneck queues get
a fluid twin (:class:`HybridLink`) that converts aggregate rates into
loss and queueing delay, and a handful of packet-level *tracer* flows
keep per-packet fidelity where it matters — riding the very same
queues, slowed and dropped by the aggregate load, and feeding their
measured rate back into the fluid totals.

:class:`HybridSimulation` subclasses :class:`~repro.sim.simulation.
Simulation`, so experiment specs, the invariant monitor and the
trace bus work unchanged.  See ``docs/HYBRID.md`` for the model and
when to use which tier.
"""

from .flowclass import ClassPath, FlowClass
from .links import HybridLink
from .simulation import HybridSimulation

__all__ = ["ClassPath", "FlowClass", "HybridLink", "HybridSimulation"]
