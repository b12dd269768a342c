"""Declarative descriptions of one simulation point.

A sweep is a list of :class:`ScenarioSpec` values — plain, picklable
dataclasses that say *what* to simulate (scenario, algorithm, seed,
warm-up, duration, grid-point parameters) without holding any live
simulator state.  That separation is what lets the
:class:`~repro.exp.runner.Runner` ship points to worker processes, retry
a failed point bit-identically (the spec carries the seed), and key the
on-disk result cache on content rather than identity.

:class:`TaskSpec` wraps a spec with its grid index (the runner aggregates
results in grid order, never completion order) and optionally an explicit
callable target, so an arbitrary module-level point function can go
through the runner without a :data:`~repro.exp.grids.SCENARIOS` entry.
:func:`grid_points` expands a grid's parameter lists into points and
:func:`merge_row` joins a point with its result into one output row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

__all__ = ["ScenarioSpec", "TaskSpec", "execute_task", "grid_points",
           "merge_row", "target_id"]


def grid_points(parameters: Dict[str, Sequence]) -> List[Dict]:
    """All combinations of the named parameter values, as dicts.

    >>> grid_points({"a": [1, 2], "b": ["x"]})
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not parameters:
        return [{}]
    names = list(parameters)
    return [
        dict(zip(names, values))
        for values in product(*(parameters[n] for n in names))
    ]


def merge_row(point: Dict, result: Dict) -> Dict:
    """One output row: grid-point parameters plus the point's results.

    A result key that collides with a parameter name would silently
    overwrite the parameter value, corrupting the row; that is always a
    bug in the point function, so it raises instead.
    """
    collisions = sorted(set(point) & set(result))
    if collisions:
        raise ValueError(
            "sweep result keys collide with parameter names: "
            + ", ".join(map(repr, collisions))
            + " — rename the result keys or the swept parameters"
        )
    row = dict(point)
    row.update(result)
    return row


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation point, fully determined by its fields.

    ``scenario`` names a point function in
    :data:`repro.exp.grids.SCENARIOS` (ignored when the owning
    :class:`TaskSpec` carries an explicit callable).  ``params`` holds the
    grid-point parameters — the keys that vary across a sweep — and is what
    the runner merges into the result row.  Running the same spec twice
    must produce the same row: point functions seed their
    :class:`~repro.sim.simulation.Simulation` from ``seed`` and take all
    other inputs from the spec.
    """

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    algorithm: Optional[str] = None
    seed: int = 1
    warmup: float = 25.0
    duration: float = 60.0

    def canonical(self) -> Dict[str, Any]:
        """JSON-able, key-sorted description used for cache keying."""
        return {
            "scenario": self.scenario,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "algorithm": self.algorithm,
            "seed": self.seed,
            "warmup": self.warmup,
            "duration": self.duration,
        }

    def key_material(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, default=str)


@dataclass(frozen=True)
class TaskSpec:
    """A :class:`ScenarioSpec` placed in a sweep grid.

    ``index`` is the grid position; the runner's output row *i* always
    comes from task *i* regardless of which worker finished first.  ``fn``
    (optional) is an explicit point callable invoked as ``fn(**params)``;
    it must be a module-level function to survive pickling into a worker
    process — anything else (lambdas, closures) still works but forces the
    task onto the in-process serial path.
    """

    index: int
    spec: ScenarioSpec
    fn: Optional[Callable[..., Mapping]] = None

    def target(self) -> str:
        """Stable name of what this task runs (for events and cache keys)."""
        if self.fn is not None:
            return target_id(self.fn)
        return self.spec.scenario


def target_id(fn: Callable) -> str:
    """``module:qualname`` identifier for a callable point function."""
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}:{qualname}"


def execute_task(task: TaskSpec) -> Dict[str, Any]:
    """Run one task and return its result dict.

    Works identically in a worker process and in the parent (the serial
    fallback and retry paths), so a retried task replays the exact run it
    replaces — the spec carries the seed.
    """
    if task.fn is not None:
        result = task.fn(**dict(task.spec.params))
    else:
        from .grids import point_function  # deferred: grids needs harness

        result = point_function(task.spec.scenario)(task.spec)
    if not isinstance(result, Mapping):
        raise TypeError(
            f"scenario {task.target()!r} returned {type(result).__name__}, "
            "expected a result dict"
        )
    return dict(result)
