"""Farm broker: persistent queue, lease expiry, budgets, aggregation.

The broker is the only process that *decides* anything — workers just
execute.  Its responsibilities:

* **serve** — materialise the grid into the farm directory (pickled
  task files + one queue token per point), or *resume*: verify the
  directory holds the same grid (content keys must match) and replay
  the journal to restore per-task failure counts;
* **one failure rule** — a worker that reports a raise, a lease whose
  heartbeat deadline passed, a lease older than ``timeout`` and a local
  worker that died each journal one failure against the task's single
  budget and requeue it with exponential backoff
  (``backoff × 2^(failures-1)``, capped); a task failing more than
  ``max_failures`` times marks the farm ``FAILED`` and raises
  :exc:`~repro.exp.runner.TaskError`;
* **local workers** — :meth:`Broker.run` keeps ``workers``
  ``multiprocessing`` children running :func:`~repro.farm.work`
  (no interpreter start, no re-import).  One that exits, or that holds a
  lease the broker takes away, is killed, its lease expired at once and
  a replacement started; none outlives :meth:`Broker.run`;
* **completion authority** — a task is done iff its row loads from the
  content-addressed store.  The journal only informs budgets and
  observability; a journal lost or truncated mid-run costs retried
  bookkeeping, never correctness;
* **self-healing** — a periodic reconcile scan re-enqueues any task
  that is not done yet has no token, no lease and no pending backoff
  (the crash window: a broker killed between unlink and requeue);
* **aggregation** — rows are folded in grid order into ``rows.jsonl``
  as they land, and exposed as ``broker.raw`` for the
  :class:`~repro.exp.runner.Runner`;
* **progress** — the journal records workers write become ``farm.*``
  events (queue and lease detail) and the ``exp.task_start`` /
  ``exp.task_done`` / ``exp.task_retry`` / ``exp.task_failed`` /
  ``exp.cache_hit`` lifecycle every execution path shares.

Determinism: tasks are seeded specs, every row goes through
:func:`~repro.exp.cache.publish_row`, and aggregation follows grid
index — so an interrupted-and-resumed farm run is bit-identical to an
uninterrupted in-process run.

``repro sweep <grid> --farm DIR`` is the command-line entry (through
:class:`~repro.exp.runner.Runner`); ``--parallel 0`` serves the
directory with no local worker.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from ..exp.cache import ResultCache
from ..exp.spec import TaskSpec, merge_row
from ..obs.trace import NULL_TRACE
from .layout import DEFAULT_LEASE_TTL, DEFAULT_POLL, FarmLayout
from .worker import work

__all__ = ["Broker", "FarmError", "WorkerStartError", "run_farm",
           "farm_status"]

DEFAULT_BACKOFF = 0.25
MAX_BACKOFF = 30.0
RECONCILE_EVERY = 1.0


class FarmError(RuntimeError):
    """The farm directory disagrees with the grid being served."""


class WorkerStartError(FarmError):
    """No local worker process could be started."""


class _Aggregator:
    """Streams rows to ``rows.jsonl`` in grid order as they land."""

    def __init__(self, layout: FarmLayout, tasks: Dict[int, TaskSpec]):
        self._layout = layout
        self._tasks = tasks
        self._pending: Dict[int, dict] = {}
        self._next = 0
        self._fh = open(layout.rows_path, "w", encoding="utf-8")

    def add(self, index: int, row: dict) -> None:
        self._pending[index] = row
        while self._next in self._pending:
            raw = self._pending.pop(self._next)
            merged = merge_row(dict(self._tasks[self._next].spec.params), raw)
            self._fh.write(json.dumps(merged) + "\n")
            self._fh.flush()
            self._next += 1

    def close(self) -> None:
        self._fh.close()


class Broker:
    """Owns one farm directory: queue, leases, budgets, aggregation.

    Parameters
    ----------
    root:
        The farm directory.  Passing ``tasks`` initialises it (or
        resumes if it already holds the *same* grid — verified by
        content keys); ``tasks=None`` resumes from disk alone.
    cache:
        Shared :class:`ResultCache` used as the result store; ``None``
        uses (or creates) ``<root>/results``.
    trace / t0:
        Optional :class:`~repro.obs.trace.TraceBus` for ``farm.*`` and
        ``exp.task_*`` events; ``t0`` is the monotonic origin for their
        wall-clock ``t`` field (so events share the owning runner's
        clock).
    max_failures:
        Failed attempts (raises, timeouts, lease expiries, worker
        deaths) tolerated per task before the farm fails —
        ``Runner(retries=...)``.
    timeout:
        Wall seconds one attempt may hold its lease, measured from the
        claim whatever the heartbeat says; ``None`` = unbounded.
    lease_ttl / backoff / poll:
        Heartbeat deadline horizon, base requeue delay, and scan
        interval, in seconds.

    After :meth:`run`: ``raw`` maps grid index to canonical row;
    ``executed`` counts the tasks whose ``done`` journal record was
    observed this run, ``store_hits`` the other tasks whose row was
    already in the store at serve time (each task counts once), and
    ``requeued`` counts requeues issued this run.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        tasks: Optional[Sequence[TaskSpec]] = None,
        cache: Optional[ResultCache] = None,
        trace=None,
        t0: Optional[float] = None,
        max_failures: int = 1,
        timeout: Optional[float] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        backoff: float = DEFAULT_BACKOFF,
        poll: float = DEFAULT_POLL,
    ):
        self.layout = FarmLayout(root)
        self.trace = NULL_TRACE if trace is None else trace
        self._t0 = time.monotonic() if t0 is None else t0
        self.max_failures = max_failures
        self.timeout = timeout
        self.lease_ttl = lease_ttl
        self.backoff = backoff
        self.poll = poll

        self.raw: Dict[int, dict] = {}
        self.requeued = 0
        self._executed: set = set()
        self._store_hits: set = set()

        self._keys: Dict[int, str] = {}
        self._tasks: Dict[int, TaskSpec] = {}
        self._failures: Dict[int, int] = {}
        self._delayed: Dict[int, float] = {}  # index -> monotonic due time
        self._open: Dict[int, int] = {}  # index -> attempt started, unclosed
        self._done: set = set()
        self._journal_offset = 0
        # (index, attempt) -> its "lease" record updated by its "beat"s:
        # holder, claim time and heartbeat deadline of a lease file.
        self._holders: Dict[tuple, Dict[str, Any]] = {}
        self._lease_grace: Dict[int, float] = {}  # unjournalled-lease grace
        self._aggregator: Optional[_Aggregator] = None
        self._local: Dict[str, multiprocessing.Process] = {}
        self._spawned = 0

        external = cache is not None
        self.store = cache if external else ResultCache(self.layout.results_dir)
        if tasks is not None:
            self._serve(tasks, external)
        else:
            self._resume()

    # -- initialisation -----------------------------------------------
    def _serve(self, tasks: Sequence[TaskSpec], external: bool) -> None:
        tasks = sorted(tasks, key=lambda t: t.index)
        keys = [self.store.key(task) for task in tasks]
        for task, key in zip(tasks, keys):
            self._keys[task.index] = key
            self._tasks[task.index] = task
        manifest = self.layout.read_manifest()
        if manifest is not None:
            if manifest.get("keys") != keys:
                raise FarmError(
                    f"farm root {self.layout.root} contains a different "
                    f"grid ({manifest.get('tasks')} task(s), keys differ); "
                    "point the farm at a fresh directory or resume with "
                    "the original grid"
                )
            # Same grid: this is a resume with the specs in hand.
            self._replay_journal()
            self.layout.clear_markers()
            return
        self.layout.create_dirs()
        store_path = (str(pathlib.Path(self.store.root).resolve())
                      if external else None)
        self.layout.write_manifest(keys, store=store_path)
        for task, key in zip(tasks, keys):
            self.layout.write_task(task, key)
            self._enqueue(task.index, attempt=1)

    def _resume(self) -> None:
        manifest = self.layout.read_manifest()
        if manifest is None:
            raise FarmError(
                f"{self.layout.root} is not an initialised farm directory "
                "(no readable manifest); serve a grid into it first"
            )
        for index, key in enumerate(manifest["keys"]):
            self._keys[index] = key
            self._tasks[index] = self.layout.read_task(index)["task"]
        self._replay_journal()
        self.layout.clear_markers()

    def _replay_journal(self) -> None:
        """Restore failure budgets and lease holders from the journal
        (backoffs restart)."""
        records, self._journal_offset = self.layout.read_journal(0)
        for record in records:
            task = record.get("task")
            if not isinstance(task, int):
                continue
            self._hold(record)
            if record["op"] in ("failed", "expired"):
                self._failures[task] = self._failures.get(task, 0) + 1

    @property
    def executed(self) -> int:
        return len(self._executed)

    @property
    def store_hits(self) -> int:
        return len(self._store_hits)

    # -- main loop -----------------------------------------------------
    def run(self, workers: int = 0) -> List[dict]:
        """Drive the farm to completion with ``workers`` supervised
        local worker processes (``0``: workers join from elsewhere);
        returns merged rows in grid order.

        Raises :exc:`~repro.exp.runner.TaskError` when a task exhausts
        its failure budget (after marking the farm ``FAILED`` so workers
        stop) and :exc:`WorkerStartError` when local workers are wanted
        and none can be started.
        """
        total = len(self._keys)
        self._aggregator = _Aggregator(self.layout, self._tasks)
        try:
            self._scan_store(initial=True)
            self._emit("farm.serve", tasks=total, done=len(self._done),
                       leased=len(self.layout.leases()),
                       queued=len(self.layout.queued_tasks()),
                       delayed=len(self._delayed))
            start = time.monotonic()
            last_reconcile = 0.0
            while len(self._done) < total:
                self._drain_journal()
                self._expire_leases()
                self._supervise(workers)
                self._release_delayed()
                now = time.monotonic()
                if now - last_reconcile >= RECONCILE_EVERY:
                    self._reconcile()
                    last_reconcile = now
                if len(self._done) < total:
                    # Sleep one poll interval, or until a local worker
                    # exits: its lease is expired without waiting.
                    multiprocessing.connection.wait(
                        [proc.sentinel for proc in self._local.values()],
                        timeout=self.poll)
            # A worker journals "done" before it releases its lease, so
            # reap the workers first; a lease still held on a task whose
            # row is in the store is then stale by definition.
            self._stop_workers()
            for index, _ in self.layout.leases():
                if index in self._done:
                    self.layout.release_lease(index)
            self.layout.journal("complete", rows=total,
                                executed=self.executed,
                                store_hits=self.store_hits)
            self.layout.mark("done")
        finally:
            self._aggregator.close()
            self._aggregator = None
            self._stop_workers()
        wall = time.monotonic() - start
        self._emit("farm.complete", rows=total, executed=self.executed,
                   store_hits=self.store_hits, wall=wall)
        return [merge_row(dict(self._tasks[index].spec.params),
                          self.raw[index])
                for index in sorted(self._keys)]

    # -- local workers -------------------------------------------------
    def _supervise(self, want: int) -> None:
        """Keep ``want`` local workers alive.  One found dead held its
        lease (if any) to the end: expire it now, not after
        ``lease_ttl``."""
        for worker, proc in list(self._local.items()):
            if proc.is_alive():
                continue
            proc.join()
            del self._local[worker]
            self._drain_journal()  # its last lease record may be unread
            for index, token in self.layout.leases():
                record = self._holders.get((index, token.get("attempt")), {})
                if record.get("worker") == worker:
                    self._expire(index, record, "worker_died")
        if len(self._local) >= want:
            return
        while len(self._local) < want:
            worker = f"local-{self._spawned}"
            proc = multiprocessing.Process(
                target=work, args=(str(self.layout.root),),
                kwargs=dict(worker_id=worker, lease_ttl=self.lease_ttl,
                            poll=self.poll),
                daemon=True)
            try:
                proc.start()
            except OSError as exc:
                if self._local:
                    return  # carry on with the workers there are
                raise WorkerStartError(
                    f"cannot start a local worker process: {exc}") from exc
            self._spawned += 1
            self._local[worker] = proc

    def _stop_workers(self) -> None:
        """No local worker outlives the run.  Killing is safe at any
        instant: a finished grid has every row in the store, and store
        writes and journal appends are atomic."""
        for proc in self._local.values():
            proc.kill()
        for proc in self._local.values():
            proc.join()
        self._local.clear()

    # -- completion ----------------------------------------------------
    def _scan_store(self, initial: bool = False) -> None:
        """Mark every task whose row is already in the store as done; the
        first scan also withdraws their queue tokens, so no worker runs
        them (one that claimed a task before the scan still does)."""
        for index in self._keys:
            if self._complete(index) and initial:
                self._store_hits.add(index)
                self.layout.withdraw(index)
                self._emit("exp.cache_hit", task=index,
                           key=self._keys[index])

    def _complete(self, index: int) -> bool:
        """Load the row for ``index`` from the store; done iff it reads."""
        if index in self._done:
            return True
        row = self.store.load(self._keys[index])
        if row is None:
            return False
        self.raw[index] = row
        self._done.add(index)
        self._delayed.pop(index, None)
        if self._aggregator is not None:
            self._aggregator.add(index, row)
        return True

    # -- journal consumption ------------------------------------------
    def _drain_journal(self) -> None:
        records, self._journal_offset = self.layout.read_journal(
            self._journal_offset)
        for record in records:
            op = record.get("op")
            task = record.get("task")
            if not isinstance(task, int) or task not in self._keys:
                continue
            worker = str(record.get("worker", "?"))
            key = self._keys[task]
            self._hold(record)
            if op == "lease":
                attempt = int(record.get("attempt", 1))
                self._emit("farm.lease", task=task, worker=worker,
                           attempt=attempt)
                self._open[task] = attempt
                self._emit("exp.task_start", task=task,
                           target=self._tasks[task].target(),
                           attempt=attempt, key=key)
            elif op == "done":
                if self._complete(task):
                    wall = float(record.get("wall", 0.0))
                    # Each task counts once: a store hit this farm ran
                    # is executed.
                    self._store_hits.discard(task)
                    self._executed.add(task)
                    self._emit("farm.task_done", task=task, worker=worker,
                               wall=wall, key=key)
                    if task in self._open:
                        self._emit("exp.task_done", task=task,
                                   attempt=self._open.pop(task), wall=wall,
                                   key=key)
                # else: journal says done but the store entry is
                # unreadable — reconcile will requeue it.
            elif op == "failed":
                reason = str(record.get("reason", "unknown"))
                self._emit("farm.task_failed", task=task, worker=worker,
                           reason=reason,
                           failures=self._failures.get(task, 0) + 1)
                self._count_failure(task, reason)

    # -- failure handling ---------------------------------------------
    def _count_failure(self, index: int, reason: str) -> None:
        """The one failure rule: charge the budget, then requeue with
        backoff or give up."""
        failures = self._failures[index] = self._failures.get(index, 0) + 1
        attempt = self._open.pop(index, None)
        if failures > self.max_failures:
            self._exhaust(index, attempt or failures, failures, reason)
        if attempt is not None:
            self._emit("exp.task_retry", task=index, attempt=attempt,
                       reason=reason, key=self._keys[index])
        delay = min(self.backoff * (2 ** (failures - 1)), MAX_BACKOFF)
        self._delayed[index] = time.monotonic() + delay
        self.layout.journal("requeue", task=index, failures=failures,
                            delay=delay)
        self._emit("farm.requeue", task=index, failures=failures,
                   delay=delay)

    def _exhaust(self, index: int, attempt: int, failures: int,
                 reason: str) -> None:
        from ..exp.runner import TaskError

        self.layout.journal("exhausted", task=index, failures=failures)
        self._emit("farm.exhausted", task=index, failures=failures)
        self._emit("exp.task_failed", task=index, attempt=attempt,
                   failures=failures, reason=reason, key=self._keys[index])
        self.layout.mark("failed",
                         f"task {index} failed {failures} time(s): {reason}\n")
        raise TaskError(self._tasks[index], failures, reason)

    # -- lease expiry --------------------------------------------------
    def _hold(self, record: Dict[str, Any]) -> None:
        """Fold a ``lease``/``beat`` record into its attempt's holder
        record (a beat moves the deadline, the claim time stays); a
        ``done``/``failed`` one closes it.  A lease file is judged by the
        attempt its token names, so another attempt's beat cannot keep
        it alive."""
        key = (record["task"], record.get("attempt"))
        if record["op"] in ("done", "failed"):
            self._holders.pop(key, None)
        elif record["op"] in ("lease", "beat") and key[0] not in self._done:
            self._holders[key] = dict(self._holders.get(key, {}), **record)

    def _expire_leases(self) -> None:
        now = time.time()
        mono = time.monotonic()
        live = set()
        for index, token in self.layout.leases():
            live.add(index)
            record = self._holders.get((index, token.get("attempt")), {})
            deadline = record.get("deadline")
            claimed = record.get("claimed")
            reason = "lease expired"
            if (self.timeout is not None
                    and isinstance(claimed, (int, float))
                    and claimed + self.timeout <= now):
                reason = "timeout"
            elif not isinstance(deadline, (int, float)):
                # Claimed but no lease record read yet (claim-to-journal
                # window, or a worker killed in it): grant one ttl of
                # grace from first sighting.
                grace = self._lease_grace.setdefault(index,
                                                     mono + self.lease_ttl)
                if mono < grace:
                    continue
            elif deadline > now:
                self._lease_grace.pop(index, None)
                continue
            self._lease_grace.pop(index, None)
            self._expire(index, record, reason)
        for index in list(self._lease_grace):
            if index not in live:
                del self._lease_grace[index]

    def _expire(self, index: int, record: Dict[str, Any],
                reason: str) -> None:
        """Take a lease from its holder — a local worker is killed, so a
        wedged point cannot outlive its lease — and charge one failure."""
        worker = record.get("worker")
        if not isinstance(worker, str):
            worker = None
        proc = self._local.pop(worker, None)
        if proc is not None:
            proc.kill()
            proc.join()
        # Judge the lease on everything its holder managed to journal.
        self._drain_journal()
        self.layout.release_lease(index)
        if (self._complete(index)
                or index in self.layout.queued_tasks()
                or index in self._delayed):
            # Stale lease for a task that moved on (e.g. a worker
            # journalled "failed" then died before releasing): dropped
            # without charging a second failure.
            return
        self.layout.journal("expired", task=index, worker=worker,
                            reason=reason)
        self._emit("farm.lease_expired", task=index, worker=worker,
                   reason=reason, failures=self._failures.get(index, 0) + 1)
        self._count_failure(index, reason)

    # -- requeue / reconcile ------------------------------------------
    def _release_delayed(self) -> None:
        now = time.monotonic()
        for index, due in list(self._delayed.items()):
            if due > now:
                continue
            del self._delayed[index]
            if self._complete(index):
                continue
            self._enqueue(index, attempt=self._failures.get(index, 0) + 1)
            self.requeued += 1

    def _reconcile(self) -> None:
        """Re-enqueue tasks lost in crash windows.

        A task that is not done, holds no queue token, no lease and no
        pending backoff is unreachable — nothing will ever run it.  That
        state only arises when a process died between two file
        operations (a broker between release and requeue); recreating
        the token is always safe because execution is idempotent.

        The journal is drained after the snapshot: a worker journals its
        outcome before it releases its lease, so a lease gone from the
        snapshot has its failure counted (and its backoff pending) here,
        not re-enqueued as the same attempt.
        """
        queued = set(self.layout.queued_tasks())
        leased = {index for index, _ in self.layout.leases()}
        self._drain_journal()
        for index in self._keys:
            if (index in self._done or index in queued or index in leased
                    or index in self._delayed):
                continue
            if self._complete(index):
                continue
            self._enqueue(index, attempt=self._failures.get(index, 0) + 1)

    def _enqueue(self, index: int, attempt: int) -> None:
        """Issue a queue token.  A holder record of the same attempt
        is from an earlier claim (reconcile reuses the number), so it
        goes."""
        self._holders.pop((index, attempt), None)
        self.layout.enqueue(index, attempt=attempt)
        self.layout.journal("enqueue", task=index, attempt=attempt,
                            key=self._keys[index])
        self._emit("farm.enqueue", task=index, attempt=attempt,
                   key=self._keys[index])

    # -- events --------------------------------------------------------
    def _emit(self, ev: str, **fields) -> None:
        if self.trace.enabled:
            self.trace.emit(ev, time.monotonic() - self._t0, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Broker({str(self.layout.root)!r}, tasks={len(self._keys)}, "
                f"done={len(self._done)})")


# ----------------------------------------------------------------------
def run_farm(
    tasks: Sequence[TaskSpec],
    root: Union[str, os.PathLike],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    trace=None,
    t0: Optional[float] = None,
    max_failures: int = 1,
    timeout: Optional[float] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    backoff: float = DEFAULT_BACKOFF,
    poll: float = DEFAULT_POLL,
) -> Broker:
    """Serve ``tasks`` into ``root`` and drive the broker to completion
    with ``workers`` supervised local workers.  Returns the finished
    broker.

    This is the :class:`~repro.exp.runner.Runner`'s out-of-process path;
    remote workers started separately with ``repro farm work`` join the
    same run simply by pointing at the same directory.
    """
    broker = Broker(root, tasks=tasks, cache=cache, trace=trace, t0=t0,
                    max_failures=max_failures, timeout=timeout,
                    lease_ttl=lease_ttl, backoff=backoff, poll=poll)
    broker.run(workers=max(0, workers))
    return broker


def farm_status(root: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Snapshot of a farm directory for ``repro farm status``."""
    layout = FarmLayout(root)
    manifest = layout.read_manifest()
    if manifest is None:
        raise FarmError(f"{root} is not an initialised farm directory")
    keys = manifest["keys"]
    store = ResultCache(layout.store_root())
    done = sum(1 for key in keys if store.contains(key))
    failures: Dict[int, int] = {}
    executed = set()  # a task that ran twice counts once
    for record in layout.iter_journal():
        op = record.get("op")
        task = record.get("task")
        if op in ("failed", "expired") and isinstance(task, int):
            failures[task] = failures.get(task, 0) + 1
        elif op == "done" and isinstance(task, int):
            executed.add(task)
    return {
        "tasks": len(keys),
        "done": done,
        "queued": len(layout.queued_tasks()),
        "leased": len(layout.leases()),
        "executed": len(executed),
        "failures": sum(failures.values()),
        "state": layout.finished() or "running",
    }

