"""Fluid/equilibrium models: the paper's balance-equation analysis, made
executable for cross-checking the packet simulator."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "FluidFlow": ".network_equilibrium",
    "FluidNetwork": ".network_equilibrium",
    "FluidTrajectory": ".dynamics",
    "coupled_windows": ".throughput",
    "equilibrium_windows": ".dynamics",
    "ewtcp_windows": ".throughput",
    "fairness_report": ".fairness",
    "integrate_rates_coupled": ".dynamics",
    "integrate_windows": ".dynamics",
    "mptcp_equilibrium_windows": ".throughput",
    "satisfies_goal_3": ".fairness",
    "satisfies_goal_4": ".fairness",
    "semicoupled_weights": ".throughput",
    "semicoupled_windows": ".throughput",
    "solve_equilibrium": ".network_equilibrium",
    "tcp_rate": ".throughput",
    "tcp_reference_windows": ".fairness",
    "tcp_window": ".throughput",
    "window_derivative": ".dynamics",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
