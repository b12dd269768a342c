"""Discrete-event simulation engine."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "Clock": ".clock",
    "EventHandle": ".engine",
    "EventScheduler": ".engine",
    "SimulationError": ".engine",
    "Simulation": ".simulation",
    "TimerHandle": ".clock",
    "Timers": ".clock",
    "Wire": ".clock",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
