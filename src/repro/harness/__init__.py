"""Experiment harness: flow construction, measurement and tables."""

from .datacenter import DataCenterRun, run_matrix
from .experiment import Measurement, make_flow, measure, standard_series
from .plotting import ascii_bars, ascii_timeseries
from .table import Table, format_value

__all__ = [
    "DataCenterRun",
    "Measurement",
    "Table",
    "ascii_bars",
    "ascii_timeseries",
    "format_value",
    "make_flow",
    "run_matrix",
    "measure",
    "standard_series",
]
