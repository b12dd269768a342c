"""Farm worker: lease tasks, execute, publish rows, heartbeat.

A worker is a plain process pointed at a farm directory — run it on as
many hosts as can see that directory.  The loop:

1. claim a queued task by atomic rename (exactly one claimant wins);
2. rewrite the lease with this worker's id and a heartbeat deadline,
   then keep extending it from a daemon thread every ``ttl/3`` seconds —
   a worker that dies stops heartbeating and the broker requeues its
   task after the deadline passes;
3. execute via :func:`~repro.exp.spec.execute_task` (the task file
   carries the full pickled :class:`~repro.exp.spec.TaskSpec`, seed
   included) and publish the row to the shared content-addressed store
   through :func:`~repro.exp.cache.publish_row` — the same publish step
   as the runner's in-process loop;
4. journal ``done``/``failed`` and release the lease.

Workers exit when the broker writes a ``DONE``/``FAILED`` marker, or on
``max_tasks`` / ``idle_timeout`` (used by tests and bounded CI runs).
Because runs are deterministic and the store is idempotent, a task
executed twice (lease expired under a slow-but-alive worker) publishes
the same bytes — duplicate execution wastes time, never correctness.

The broker starts its local workers by calling :func:`work` in
``multiprocessing`` children; every other host runs it through
``repro farm work DIR``.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from typing import Optional, Union

from ..exp.cache import ResultCache, publish_row
from ..exp.spec import execute_task
from .layout import DEFAULT_LEASE_TTL, DEFAULT_POLL, FarmLayout

__all__ = ["work"]


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Daemon thread extending one lease until stopped."""

    def __init__(self, layout: FarmLayout, index: int, worker: str,
                 attempt: int, ttl: float):
        self._layout = layout
        self._index = index
        self._worker = worker
        self._attempt = attempt
        self._ttl = ttl
        self._claimed = time.time()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _beat(self) -> None:
        self._layout.write_lease(self._index, self._worker, self._attempt,
                                 time.time() + self._ttl, self._claimed)

    def start(self) -> None:
        self._beat()
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._ttl / 3.0):
            try:
                self._beat()
            except OSError:  # pragma: no cover - transient fs trouble
                pass

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def work(
    root: Union[str, os.PathLike],
    worker_id: Optional[str] = None,
    store: Optional[ResultCache] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
) -> int:
    """Process tasks from the farm at ``root`` until it finishes.

    Returns the number of tasks executed (successfully or not).
    ``max_tasks`` / ``idle_timeout`` bound the loop for tests and CI;
    production workers run until the broker writes a terminal marker.
    """
    layout = FarmLayout(root)
    worker = worker_id or _default_worker_id()
    # Set only in a broker's local worker: that one must not outlive a
    # broker that died without reaping it.
    parent = multiprocessing.parent_process()
    processed = 0
    idle_since = time.monotonic()
    while True:
        if layout.finished() is not None:
            return processed
        if parent is not None and not parent.is_alive():
            return processed
        if max_tasks is not None and processed >= max_tasks:
            return processed
        claimed = None
        for index in layout.queued_tasks():
            token = layout.claim(index)
            if token is not None:
                claimed = (index, int(token.get("attempt", 1)))
                break
        if claimed is None:
            if (idle_timeout is not None
                    and time.monotonic() - idle_since > idle_timeout):
                return processed
            time.sleep(poll)
            continue
        index, attempt = claimed
        if store is None:
            # The manifest names the shared store (an external cache
            # passed by the broker, or the farm's own results/
            # directory).  It is written before any queue token, so it
            # is read at the first claim: a worker started before the
            # broker still publishes where the broker looks.
            store = ResultCache(layout.store_root())
        idle_since = time.monotonic()
        processed += 1
        heartbeat = _Heartbeat(layout, index, worker, attempt, lease_ttl)
        heartbeat.start()
        try:
            _run_one(layout, store, index, attempt, worker)
        finally:
            heartbeat.stop()
            layout.release_lease(index)


def _run_one(layout: FarmLayout, store: ResultCache, index: int,
             attempt: int, worker: str) -> None:
    layout.journal("lease", task=index, worker=worker, attempt=attempt)
    start = time.perf_counter()
    try:
        entry = layout.read_task(index)
        task = entry["task"]
        key = entry["key"]
        row = execute_task(task)
        try:
            publish_row(store, key, task, row)
        except (TypeError, ValueError) as exc:
            # Rows leave this process only through the JSON store.
            raise TypeError(
                f"task {index} ({task.target()}) returned a row that is "
                f"not JSON-serialisable: {exc}") from exc
    except Exception as exc:
        layout.journal("failed", task=index, worker=worker, attempt=attempt,
                       reason=f"{type(exc).__name__}: {exc}")
        return
    layout.journal("done", task=index, worker=worker, attempt=attempt,
                   wall=time.perf_counter() - start, key=key)

