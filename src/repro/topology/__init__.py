"""Topology builders for every scenario in the paper's evaluation."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "BCube": ".bcube",
    "FatTree": ".fattree",
    "SWEEP_GRIDS": ".scenarios",
    "LinkSchedule": ".wireless",
    "Scenario": ".scenarios",
    "WirelessPath": ".wireless",
    "build_3g_path": ".wireless",
    "build_chain": ".scenarios",
    "build_shared_bottleneck": ".scenarios",
    "build_torus": ".scenarios",
    "build_triangle": ".scenarios",
    "build_two_links": ".scenarios",
    "build_wifi_path": ".wireless",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
