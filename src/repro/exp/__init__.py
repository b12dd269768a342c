"""Parallel experiment runner: declarative sweeps over worker processes.

The paper's evaluation is dozens of parameter sweeps (Fig 8's capacity
sweep, Fig 16's RTT/capacity grid, the fabric tables); ``repro.exp``
reproduces them at full-machine speed:

* :class:`~repro.exp.spec.ScenarioSpec` / :class:`~repro.exp.spec.TaskSpec`
  — picklable descriptions of one simulation point (scenario, algorithm,
  seed, warm-up, duration, grid parameters).
* :class:`~repro.exp.runner.Runner` — serves cached points, runs the
  rest through the :mod:`repro.farm` claim → execute → publish loop on
  forked workers (or in-process when one worker and no timeout is asked
  for), with per-attempt timeouts, one bounded seed-preserving retry
  budget for raises, timeouts and worker deaths alike, and deterministic
  grid-order aggregation.
* :class:`~repro.exp.cache.ResultCache` — content-addressed on-disk rows
  (``sha256(spec + code version)``), so re-running a sweep only computes
  changed points.
* :mod:`repro.exp.grids` — the point-function table (name → defining
  module, resolved by :func:`~repro.exp.grids.point_function`) and the
  named grids behind ``python -m repro sweep``.
* :mod:`repro.exp.paper` — the paper's figures and tables as point
  functions, with the claims ``python -m repro sweep paper`` checks.

Progress streams through the PR-1 trace bus as ``exp.*`` events; see
``docs/RUNNER.md`` for the full contract.
"""

from .._exports import lazy_exports

# The execution core (spec, cache, runner: stdlib and the trace bus only)
# is what every caller of this package runs its specs through, so it
# loads with the package; the point functions and grids wait for first
# use.
from . import runner  # noqa: F401

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "CLAIMS": ".paper",
    "Runner": ".runner",
    "ResultCache": ".cache",
    "SCENARIOS": ".grids",
    "ScenarioSpec": ".spec",
    "TaskError": ".runner",
    "TaskSpec": ".spec",
    "code_version": ".cache",
    "execute_task": ".spec",
    "point_function": ".grids",
    "rtt_ratio": ".grids",
    "specs_for_grid": ".grids",
    "target_id": ".spec",
    "torus_balance": ".grids",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
