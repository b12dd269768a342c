"""On-disk layout of a farm directory and its atomic file primitives.

Everything the broker and the workers share lives under one directory —
a shared filesystem is the only transport, so a farm can span any set of
hosts that mount it.  The layout::

    <root>/
      manifest.json        grid identity: task count + per-task keys
      tasks/<index>.task   pickled TaskSpec per grid point (written once)
      queue/<index>        claim token: JSON {"task", "attempt"}
      leases/<index>       lease: JSON {"task", "worker", "attempt",
                           "deadline", "claimed"} (unix seconds)
      journal.jsonl        append-only event log (budgets, observability)
      results/             content-addressed ResultCache (default store)
      rows.jsonl           aggregated rows in grid order (broker output)
      DONE / FAILED        terminal markers — workers exit on sight

Concurrency rests on three POSIX guarantees:

* **claim** — a worker claims a task by ``os.rename(queue/i, leases/i)``;
  rename is atomic, so exactly one claimant wins and the token is never
  duplicated or lost;
* **overwrite** — lease heartbeats and queue tokens are written to a
  temp file and ``os.replace``d, so readers never observe a partial
  file;
* **append** — journal records are single ``write()`` calls on an
  ``O_APPEND`` descriptor, so concurrent writers interleave whole lines.

Corrupt or partial journal lines (a writer killed mid-record) are
skipped on replay, mirroring the cache's read-as-miss policy.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..exp.cache import atomic_write
from ..exp.spec import TaskSpec

__all__ = ["FarmLayout", "DEFAULT_LEASE_TTL", "DEFAULT_POLL"]

MANIFEST_VERSION = 1
#: Heartbeat deadline horizon and idle/scan interval, seconds — shared
#: by the broker and every worker of a farm.
DEFAULT_LEASE_TTL = 15.0
DEFAULT_POLL = 0.05


def _write_json(path: pathlib.Path, record: Any) -> None:
    atomic_write(path, json.dumps(record).encode("utf-8"))


class FarmLayout:
    """Paths and file primitives of one farm directory.

    Shared by :class:`~repro.farm.Broker` and
    :func:`~repro.farm.work`; holds no state beyond the root path,
    so any number of processes can hold their own instance.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = pathlib.Path(root)
        self.manifest_path = self.root / "manifest.json"
        self.tasks_dir = self.root / "tasks"
        self.queue_dir = self.root / "queue"
        self.leases_dir = self.root / "leases"
        self.journal_path = self.root / "journal.jsonl"
        self.results_dir = self.root / "results"
        self.rows_path = self.root / "rows.jsonl"
        self.done_marker = self.root / "DONE"
        self.failed_marker = self.root / "FAILED"

    def create_dirs(self) -> None:
        for d in (self.root, self.tasks_dir, self.queue_dir,
                  self.leases_dir, self.results_dir):
            d.mkdir(parents=True, exist_ok=True)

    # -- manifest ------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) or not isinstance(data.get("keys"), list):
            return None
        return data

    def write_manifest(self, keys: List[str],
                       store: Optional[str] = None) -> None:
        """Record grid identity plus the result-store path.

        ``store`` is the absolute path of an external shared
        :class:`~repro.exp.cache.ResultCache`; ``None`` means the
        default ``results/`` directory inside the farm root.  Workers
        read it back so every process publishes to the same store.
        """
        _write_json(self.manifest_path,
                    {"version": MANIFEST_VERSION, "tasks": len(keys),
                     "keys": keys, "store": store})

    def store_root(self) -> pathlib.Path:
        manifest = self.read_manifest() or {}
        store = manifest.get("store")
        return pathlib.Path(store) if store else self.results_dir

    # -- task files ----------------------------------------------------
    def _name(self, index: int) -> str:
        return f"{index:08d}"

    def task_path(self, index: int) -> pathlib.Path:
        return self.tasks_dir / f"{self._name(index)}.task"

    def write_task(self, task: TaskSpec, key: str) -> None:
        atomic_write(
            self.task_path(task.index),
            pickle.dumps({"index": task.index, "key": key, "task": task}))

    def read_task(self, index: int) -> Dict[str, Any]:
        with open(self.task_path(index), "rb") as fh:
            return pickle.load(fh)

    # -- queue tokens --------------------------------------------------
    def queue_token_path(self, index: int) -> pathlib.Path:
        return self.queue_dir / self._name(index)

    def enqueue(self, index: int, attempt: int) -> None:
        _write_json(self.queue_token_path(index),
                    {"task": index, "attempt": attempt})

    def queued_tasks(self) -> List[int]:
        try:
            names = os.listdir(self.queue_dir)
        except OSError:
            return []
        out = []
        for name in names:
            if name.endswith(".tmp"):
                continue
            try:
                out.append(int(name))
            except ValueError:
                continue
        return sorted(out)

    # -- leases --------------------------------------------------------
    def lease_path(self, index: int) -> pathlib.Path:
        return self.leases_dir / self._name(index)

    def claim(self, index: int) -> Optional[Dict[str, Any]]:
        """Atomically claim a queued task; returns its token or ``None``.

        Exactly one concurrent claimant wins the ``os.rename``; losers
        get ``None`` and move on.
        """
        src = self.queue_token_path(index)
        dst = self.lease_path(index)
        try:
            os.rename(src, dst)
        except OSError:
            return None
        try:
            token = json.loads(dst.read_text(encoding="utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            token = {}
        if not isinstance(token, dict) or token.get("task") != index:
            token = {"task": index, "attempt": 1}
        return token

    def write_lease(self, index: int, worker: str, attempt: int,
                    deadline: float, claimed: Optional[float] = None) -> None:
        """(Re)write a lease: ``deadline`` is the heartbeat horizon,
        ``claimed`` the time the holder claimed the task — the broker
        measures a per-task ``timeout`` from it, whatever the heartbeat
        says."""
        _write_json(self.lease_path(index),
                    {"task": index, "worker": worker, "attempt": attempt,
                     "deadline": deadline, "claimed": claimed})

    def release_lease(self, index: int) -> None:
        try:
            os.unlink(self.lease_path(index))
        except OSError:
            pass

    def leases(self) -> List[Tuple[int, Dict[str, Any]]]:
        """All current ``(index, lease-record)`` pairs.

        A lease file that cannot be parsed (claim-to-rewrite race window,
        or a worker killed mid-heartbeat) yields an empty record — the
        broker grants such leases a grace period instead of trusting a
        deadline that is not there.
        """
        try:
            names = os.listdir(self.leases_dir)
        except OSError:
            return []
        out = []
        for name in sorted(names):
            if name.endswith(".tmp"):
                continue
            try:
                index = int(name)
            except ValueError:
                continue
            try:
                record = json.loads(
                    (self.leases_dir / name).read_text(encoding="utf-8"))
            except (OSError, ValueError, UnicodeDecodeError):
                record = {}
            if not isinstance(record, dict):
                record = {}
            out.append((index, record))
        return out

    # -- journal -------------------------------------------------------
    def journal(self, op: str, **fields) -> None:
        """Append one record; a single ``O_APPEND`` write per line."""
        record = {"op": op}
        record.update(fields)
        line = json.dumps(record) + "\n"
        fd = os.open(self.journal_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def read_journal(self, offset: int = 0) -> Tuple[List[Dict[str, Any]], int]:
        """Complete records after byte ``offset``; returns (records,
        new offset).

        Only fully terminated lines are consumed, so a record mid-append
        is picked up on the next read rather than half-parsed; corrupt
        lines are skipped.
        """
        try:
            with open(self.journal_path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return [], offset
        records = []
        consumed = 0
        for raw in data.split(b"\n"):
            end = consumed + len(raw) + 1
            if end > len(data):
                break  # trailing partial line: leave for the next read
            consumed = end
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue
            if isinstance(record, dict) and "op" in record:
                records.append(record)
        return records, offset + consumed

    def iter_journal(self) -> Iterator[Dict[str, Any]]:
        records, _ = self.read_journal(0)
        return iter(records)

    # -- terminal markers ---------------------------------------------
    def finished(self) -> Optional[str]:
        """``"done"``, ``"failed"`` or ``None``."""
        if self.done_marker.exists():
            return "done"
        if self.failed_marker.exists():
            return "failed"
        return None

    def mark(self, state: str, text: str = "") -> None:
        marker = self.done_marker if state == "done" else self.failed_marker
        atomic_write(marker, text.encode("utf-8"))

    def clear_markers(self) -> None:
        for marker in (self.done_marker, self.failed_marker):
            try:
                os.unlink(marker)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FarmLayout({str(self.root)!r})"
