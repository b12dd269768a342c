"""Sweep execution: cache, then one of two execution loops.

The paper's evaluation is a battery of parameter sweeps; a
:class:`Runner` turns a list of :class:`~repro.exp.spec.ScenarioSpec`
grid points into result rows:

* **Caching** — with a :class:`~repro.exp.cache.ResultCache` attached,
  previously computed points are served from disk (``exp.cache_hit``)
  and only changed points simulate.
* **Out-of-process execution** — points that pickle run through the
  :mod:`repro.farm` claim → execute → publish loop whenever more than
  one worker, a ``timeout`` or a ``farm=`` directory is asked for: the
  broker serves them into a farm directory (a private temporary one,
  or ``farm=`` to keep it and resume an interrupted grid), ``parallel``
  forked workers lease and execute them, and rows come back through
  the content-addressed result store.  A raise, a timeout and a dead
  worker each cost the point one failure from the same ``retries``
  budget, requeue it on the same back-off and end in the same
  :class:`TaskError`; ``timeout`` bounds every attempt.
* **In-process execution** — everything else (``parallel=1`` with no
  timeout, points that do not pickle) runs in a plain loop in this
  process with the same budget and the same error.
* **Deterministic aggregation** — output row *i* always corresponds to
  grid point *i*, whatever order workers finish in, and every row goes
  through :func:`~repro.exp.cache.publish_row`, so cold runs, warm-cache
  reruns and any worker count produce bit-identical rows.  Each attempt
  replays the identical simulation because the spec carries the seed.

Progress is reported through a :class:`~repro.obs.trace.TraceBus` as
``exp.task_start`` / ``exp.task_done`` / ``exp.task_retry`` /
``exp.task_failed`` / ``exp.cache_hit`` events on either loop (see
:mod:`repro.obs.schema`); their ``t`` field is wall-clock seconds since
the run started, not simulated time.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Union

from ..obs.trace import NULL_TRACE
from .cache import ResultCache, publish_row
from .spec import ScenarioSpec, TaskSpec, execute_task, merge_row

__all__ = ["Runner", "TaskError"]


class TaskError(RuntimeError):
    """A sweep point kept failing after its retry budget was spent.

    ``reason`` is the last failure: ``"<ExceptionType>: <message>"``,
    ``"timeout"``, ``"worker_died"`` or ``"lease expired"``.
    """

    def __init__(self, task: TaskSpec, failures: int, reason: str):
        super().__init__(
            f"task {task.index} ({task.target()}) failed {failures} time(s), "
            f"retry budget exhausted: {reason}"
        )
        self.task = task
        self.failures = failures
        self.reason = reason


def _picklable(task: TaskSpec) -> bool:
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False


class Runner:
    """Executes sweep tasks and aggregates their rows in grid order.

    Parameters
    ----------
    parallel:
        Worker process count.  ``1`` (default) runs in-process unless
        ``timeout`` or ``farm`` asks for worker processes.  ``0`` is
        allowed only with ``farm``: the broker serves the directory and
        workers started elsewhere (``repro farm work DIR``) drain it.
    cache:
        A :class:`ResultCache`, a cache directory path, or ``None``.
    trace:
        A :class:`~repro.obs.trace.TraceBus` receiving ``exp.*`` progress
        events (and the ``farm.*`` queue/lease detail of out-of-process
        runs); ``None`` disables reporting.
    timeout:
        Wall seconds any one attempt of a picklable task may run,
        measured from the moment a worker claims it (queueing is free).
        An attempt that overruns is killed with its worker and counts as
        one failure.  Setting it moves picklable tasks out of process
        even at ``parallel=1`` — a running simulation can only be
        preempted from outside.
    retries:
        Failed attempts (raises, timeouts, worker deaths alike)
        tolerated per task beyond which :class:`TaskError` is raised.
    farm:
        A farm directory path (or ``None``).  When set, the queue the
        picklable tasks run through is kept there instead of in a
        temporary directory, so an interrupted run resumed with the
        same ``farm=`` continues where it stopped and workers on other
        hosts can join it.

    After :meth:`run` the counters ``executed`` (simulations actually
    run), ``cache_hits``, ``retried`` (retry attempts started), and
    ``wall`` (seconds) describe the run.
    """

    def __init__(
        self,
        parallel: int = 1,
        cache: Union[ResultCache, str, None] = None,
        trace=None,
        timeout: Optional[float] = None,
        retries: int = 1,
        farm=None,
    ):
        least = 0 if farm is not None else 1  # 0: broker only
        if parallel < least:
            raise ValueError(f"parallel must be >= {least}, got {parallel}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.parallel = parallel
        self.cache = ResultCache(cache) if isinstance(cache, (str, bytes)) else cache
        self.trace = NULL_TRACE if trace is None else trace
        self.timeout = timeout
        self.retries = retries
        self.farm = farm
        self.executed = 0
        self.cache_hits = 0
        self.retried = 0
        self.wall = 0.0
        self._t0 = 0.0

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[Union[ScenarioSpec, TaskSpec]]) -> List[dict]:
        """Run every spec; returns merged rows (params + result) in grid
        order."""
        tasks = [
            s if isinstance(s, TaskSpec) else TaskSpec(index=i, spec=s)
            for i, s in enumerate(specs)
        ]
        return self.run_tasks(tasks)

    def run_tasks(self, tasks: Sequence[TaskSpec]) -> List[dict]:
        self._t0 = time.monotonic()
        self.executed = self.cache_hits = self.retried = 0
        raw: Dict[int, dict] = {}
        keys: Dict[int, Optional[str]] = {}

        if self.farm is not None:
            # The farm's manifest names the whole grid, so a resume must
            # serve every task; the broker counts the store's hits.
            self._run_farm([t for t in tasks if _picklable(t)], raw)
        compute = self._serve_from_cache(
            [t for t in tasks if t.index not in raw], raw, keys)
        if self.farm is None and (self.timeout is not None
                                  or (self.parallel > 1 and len(compute) > 1)):
            self._run_farm([t for t in compute if _picklable(t)], raw)
        for task in compute:
            if task.index not in raw:
                self._run_local(task, keys[task.index], raw)

        rows = [merge_row(dict(t.spec.params), raw[t.index]) for t in tasks]
        self.wall = time.monotonic() - self._t0
        return rows

    # ------------------------------------------------------------------
    def _serve_from_cache(self, tasks, raw, keys) -> List[TaskSpec]:
        """Resolve cached points; returns the tasks still needing compute."""
        compute = []
        for task in tasks:
            key = self.cache.key(task) if self.cache is not None else None
            keys[task.index] = key
            if key is not None:
                row = self.cache.load(key)
                if row is not None:
                    raw[task.index] = row
                    self.cache_hits += 1
                    self._emit("exp.cache_hit", task=task.index, key=key)
                    continue
            compute.append(task)
        return compute

    def _run_farm(self, tasks, raw) -> None:
        """Out-of-process execution: the :mod:`repro.farm` broker serves
        the tasks into a farm directory, supervises ``parallel`` local
        workers and enforces ``timeout`` and the ``retries`` budget.

        The result store is the caller's cache (or lives in the farm
        directory), so a previously interrupted run over the same
        ``farm=`` resumes instead of recomputing.  If no worker process
        can be started, ``raw`` is left for the in-process loop to fill
        — unless ``timeout`` is set, which that loop cannot enforce.
        """
        if not tasks:
            return
        from ..farm.broker import WorkerStartError, run_farm

        root = self.farm
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-farm-")
        try:
            broker = run_farm(
                tasks,
                root,
                workers=min(self.parallel, len(tasks)),
                cache=self.cache,
                trace=self.trace,
                t0=self._t0,
                max_failures=self.retries,
                timeout=self.timeout,
            )
        except WorkerStartError as exc:
            if self.timeout is None:
                return
            raise WorkerStartError(
                f"{exc}; timeout={self.timeout!r} cannot be enforced in "
                "process, so the grid is not run without it") from exc
        finally:
            if self.farm is None:
                shutil.rmtree(root, ignore_errors=True)
        raw.update(broker.raw)
        self.executed += broker.executed
        self.cache_hits += broker.store_hits
        self.retried += broker.requeued

    def _run_local(self, task, key, raw) -> None:
        """In-process execution of one task within the retry budget.

        The spec carries the seed, so each attempt replays the identical
        simulation — a retried point is indistinguishable from a
        first-try success.
        """
        attempt = 1  # every earlier attempt failed: failures == attempt - 1
        while True:
            self._emit("exp.task_start", task=task.index,
                       target=task.target(), attempt=attempt, key=key)
            start = time.perf_counter()
            try:
                row = execute_task(task)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                if attempt > self.retries:
                    self._emit("exp.task_failed", task=task.index,
                               attempt=attempt, failures=attempt,
                               reason=reason, key=key)
                    raise TaskError(task, attempt, reason) from exc
                self._emit("exp.task_retry", task=task.index,
                           attempt=attempt, reason=reason, key=key)
                attempt += 1
                self.retried += 1
                continue
            try:
                row = publish_row(self.cache, key, task, row)
            except (TypeError, ValueError):
                # A non-JSON row never leaves this process, so it stays
                # usable — but uncached, and outside the bit-identical
                # warm-rerun guarantee.
                pass
            raw[task.index] = row
            self.executed += 1
            self._emit("exp.task_done", task=task.index, attempt=attempt,
                       wall=time.perf_counter() - start, key=key)
            return

    def _emit(self, ev: str, **fields) -> None:
        if self.trace.enabled:
            self.trace.emit(ev, time.monotonic() - self._t0, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Runner(parallel={self.parallel}, "
                f"cache={'on' if self.cache else 'off'}, "
                f"retries={self.retries})")
