"""Coupled congestion control algorithms — the paper's core contribution."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "ALGORITHMS": ".registry",
    "BaliaController": ".balia",
    "CongestionController": ".base",
    "CoupledController": ".coupled",
    "CubicController": ".cubic",
    "EwtcpController": ".ewtcp",
    "LinkedIncreasesController": ".mptcp_lia",
    "MptcpController": ".mptcp_lia",
    "OliaController": ".olia",
    "RenoController": ".uncoupled",
    "SemicoupledController": ".semicoupled",
    "UncoupledController": ".uncoupled",
    "WVegasController": ".wvegas",
    "WindowedSubflow": ".base",
    "make_controller": ".registry",
    "mptcp_increase": ".alpha",
    "mptcp_increase_bruteforce": ".alpha",
    "rfc6356_alpha": ".alpha",
    "rfc6356_increase": ".alpha",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
