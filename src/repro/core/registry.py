"""Name-based construction of congestion controllers.

The experiment harness and the grids refer to algorithms by the names the
paper uses; :func:`make_controller` maps those names to fresh controller
instances.
"""

from __future__ import annotations

from typing import Callable, Dict

from .balia import BaliaController
from .base import CongestionController
from .coupled import CoupledController
from .cubic import CubicController
from .ewtcp import EwtcpController
from .mptcp_lia import LinkedIncreasesController, MptcpController
from .olia import OliaController
from .semicoupled import SemicoupledController
from .uncoupled import RenoController, UncoupledController
from .wvegas import WVegasController

__all__ = ["ALGORITHMS", "make_controller"]

ALGORITHMS: Dict[str, Callable[[], CongestionController]] = {
    "reno": RenoController,
    "single": RenoController,
    "uncoupled": UncoupledController,
    "cubic": CubicController,
    "ewtcp": EwtcpController,
    "coupled": CoupledController,
    "semicoupled": SemicoupledController,
    "mptcp": MptcpController,
    "lia": LinkedIncreasesController,
    "olia": OliaController,
    "balia": BaliaController,
    "wvegas": WVegasController,
}


def make_controller(name: str, **kwargs) -> CongestionController:
    """Build a fresh controller by algorithm name (case-insensitive).

    >>> make_controller("mptcp").name
    'mptcp'
    """
    try:
        factory = ALGORITHMS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {name!r}; known: {known}") from None
    return factory(**kwargs)
