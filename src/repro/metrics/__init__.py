"""Measurement utilities: windowed rates, fairness."""

from .jain import jain_index
from .meters import windowed_rate

__all__ = ["jain_index", "windowed_rate"]
