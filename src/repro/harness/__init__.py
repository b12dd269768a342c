"""Experiment harness: flow construction, measurement, fairness and
tables."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "Measurement": ".experiment",
    "Table": ".table",
    "ascii_bars": ".plotting",
    "ascii_timeseries": ".plotting",
    "format_value": ".table",
    "jain_index": ".experiment",
    "make_flow": ".experiment",
    "measure": ".experiment",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
