"""Parameter sweeps (Fig 8's capacity sweep, Fig 16's RTT/capacity grid).

A sweep is a cartesian product of named parameter lists, run through a
callable returning a result dict per point.  With ``parallel``/``cache``/
``trace`` arguments the sweep delegates to the
:class:`~repro.exp.runner.Runner`, which fans points out over worker
processes, serves unchanged points from the on-disk result cache, and
still returns rows in grid order.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["sweep", "grid_points", "merge_row"]


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


def sweep(
    parameters: Dict[str, Sequence],
    run: Callable[..., Dict],
    parallel: Optional[int] = None,
    cache=None,
    trace=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    farm=None,
) -> List[Dict]:
    """Run ``run(**point)`` for every grid point; each result row carries
    the parameters plus whatever ``run`` returned.

    With the default arguments every point runs serially in-process.
    Passing any of ``parallel`` (worker process count), ``cache`` (a
    :class:`~repro.exp.cache.ResultCache` or cache directory path),
    ``trace`` (a :class:`~repro.obs.trace.TraceBus` for ``exp.*`` progress
    events), ``timeout`` (wall seconds per attempt) or ``farm`` (a farm
    directory for crash-resumable multi-host execution, see
    :mod:`repro.farm`) delegates to the
    :class:`~repro.exp.runner.Runner`; see ``docs/RUNNER.md``.  Rows come
    back in grid order either way, and ``run`` must be a picklable
    module-level function to execute in worker processes.
    """
    points = grid_points(parameters)
    if (parallel is None and cache is None and trace is None
            and timeout is None and farm is None):
        return [merge_row(point, run(**point)) for point in points]

    from ..exp.runner import Runner
    from ..exp.spec import ScenarioSpec, TaskSpec, target_id

    tasks = [
        TaskSpec(
            index=i,
            spec=ScenarioSpec(scenario=target_id(run), params=point),
            fn=run,
        )
        for i, point in enumerate(points)
    ]
    runner = Runner(
        parallel=parallel or 1, cache=cache, trace=trace,
        timeout=timeout, retries=retries, farm=farm,
    )
    return runner.run_tasks(tasks)
