"""repro — reproduction of "Design, implementation and evaluation of
congestion control for multipath TCP" (Wischik et al., NSDI 2011).

Public API highlights
---------------------
* :mod:`repro.core` — the coupled congestion control algorithms
  (``MptcpController`` and the EWTCP/COUPLED/SEMICOUPLED baselines).
* :mod:`repro.mptcp` — the multipath connection layer (subflows, data
  sequence numbers, explicit data ACKs, shared receive buffer).
* :mod:`repro.sim` / :mod:`repro.net` / :mod:`repro.tcp` — the packet-level
  discrete-event simulator the evaluation runs on.
* :mod:`repro.topology`, :mod:`repro.traffic` — the paper's scenarios.
* :mod:`repro.fluid` — closed-form equilibrium models for cross-checking.
* :mod:`repro.obs` — observability: structured event tracing
  (``TraceBus``) and per-flow/per-queue time series (``SeriesRecorder``);
  schema in ``docs/OBSERVABILITY.md``.
* :mod:`repro.exp` — the parallel experiment runner: declarative sweep
  specs fanned out over worker processes with result caching and
  deterministic aggregation; guide in ``docs/RUNNER.md``.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

#: Public name -> the subpackage that exports it (loaded on first use).
_EXPORTS = {
    "CongestionController": ".core",
    "CoupledController": ".core",
    "EwtcpController": ".core",
    "JsonlSink": ".obs",
    "LinkedIncreasesController": ".core",
    "MemorySink": ".obs",
    "MptcpController": ".core",
    "MptcpFlow": ".mptcp",
    "NULL_TRACE": ".obs",
    "Network": ".net",
    "RenoController": ".core",
    "ResultCache": ".exp",
    "Route": ".net",
    "Runner": ".exp",
    "ScenarioSpec": ".exp",
    "SemicoupledController": ".core",
    "SeriesRecorder": ".obs",
    "Simulation": ".sim",
    "Table": ".harness",
    "TcpFlow": ".tcp",
    "TcpReceiver": ".tcp",
    "TcpSender": ".tcp",
    "TraceBus": ".obs",
    "UncoupledController": ".core",
    "jain_index": ".harness",
    "make_controller": ".core",
    "make_flow": ".harness",
    "mbps_to_pps": ".net",
    "measure": ".harness",
    "pps_to_mbps": ".net",
    "specs_for_grid": ".exp",
    "standard_series": ".harness",
    "validate_event": ".obs",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
