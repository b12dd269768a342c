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
* :mod:`repro.exp.grids` — the registered point functions and named grids
  behind ``python -m repro sweep``.
* :mod:`repro.exp.paper` — the paper's figures and tables as point
  functions, with the claims ``python -m repro sweep paper`` checks.

Progress streams through the PR-1 trace bus as ``exp.*`` events; see
``docs/RUNNER.md`` for the full contract.
"""

from .cache import ResultCache, code_version
from .grids import SCENARIOS, rtt_ratio, scenario, specs_for_grid, torus_balance
from .paper import CLAIMS
from .runner import Runner, TaskError
from .spec import ScenarioSpec, TaskSpec, execute_task, target_id

__all__ = [
    "CLAIMS",
    "Runner",
    "ResultCache",
    "SCENARIOS",
    "ScenarioSpec",
    "TaskError",
    "TaskSpec",
    "code_version",
    "execute_task",
    "rtt_ratio",
    "scenario",
    "specs_for_grid",
    "target_id",
    "torus_balance",
]
