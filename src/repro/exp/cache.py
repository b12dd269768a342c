"""Content-addressed on-disk cache of sweep results.

Each completed task's result row is stored as one small JSON file keyed by
``sha256(spec + code version)``.  Re-running a sweep therefore only
computes points whose spec *or* whose simulator source changed; everything
else is served from disk (the runner emits an ``exp.cache_hit`` event per
served point).

The code version is a hash over every ``.py`` file in the ``repro``
package, so editing any simulator module invalidates the whole cache —
coarse, but safe: results never outlive the code that produced them.

Failure semantics: a cache entry that cannot be read, parsed, or that has
an unexpected shape is treated as a miss (and recomputed/overwritten),
never as an error.  Writes are atomic (temp file + ``os.replace``) so a
killed run cannot leave a truncated entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from functools import lru_cache
from typing import Any, Dict, Optional, Union

from .spec import TaskSpec

__all__ = ["ResultCache", "atomic_write", "code_version", "publish_row"]


def atomic_write(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + ``os.replace``.

    Readers see the old file or the new one, never a partial write, and
    a writer killed mid-way leaves no truncated file behind.  The one
    such helper for cache entries and every farm file.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of the ``repro`` package sources (first 16 hex digits).

    Any change to any module under ``src/repro`` changes this value and
    with it every cache key.
    """
    package_dir = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    """Directory of ``<key[:2]>/<key>.json`` result entries.

    Parameters
    ----------
    root:
        Cache directory (created on first store).
    version:
        Code-version string mixed into every key; defaults to
        :func:`code_version`.  Tests pass explicit versions to exercise
        invalidation without editing source files.
    """

    def __init__(self, root: Union[str, os.PathLike], version: Optional[str] = None):
        self.root = pathlib.Path(root)
        self.version = code_version() if version is None else version
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key(self, task: TaskSpec) -> str:
        """Content hash of the task: target + spec + code version."""
        material = json.dumps(
            {
                "target": task.target(),
                "spec": task.spec.canonical(),
                "code": self.version,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (without reading it).

        A cheap existence probe for coordination layers (the farm broker
        treats cache presence as completion authority); the entry may
        still read as a miss if corrupt — callers must handle
        :meth:`load` returning ``None``.
        """
        return self._path(key).is_file()

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result row for ``key``, or ``None``.

        Missing, unreadable, unparsable, or wrongly-shaped entries all
        read as a miss — a corrupted cache degrades to recomputation,
        never to a crash.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            self.misses += 1
            return None
        if not isinstance(data, dict) or not isinstance(data.get("row"), dict):
            self.misses += 1
            return None
        self.hits += 1
        return data["row"]

    def store(self, key: str, task: TaskSpec, row: Dict[str, Any]) -> None:
        """Atomically persist one result row under ``key``.

        Rows must be JSON-serializable; the runner canonicalises rows
        through JSON before storing, so a warm-cache rerun returns rows
        bit-identical to the cold run.
        """
        # No sort_keys: the row's key order is part of the result (output
        # columns follow it), so a warm rerun must preserve it exactly.
        payload = json.dumps(
            {"key": key, "target": task.target(),
             "spec": task.spec.canonical(), "row": row}
        )
        atomic_write(self._path(key), payload.encode("utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({str(self.root)!r}, version={self.version!r}, "
                f"hits={self.hits}, misses={self.misses})")


def publish_row(cache: Optional[ResultCache], key: Optional[str],
                task: TaskSpec, row: Dict[str, Any]) -> Dict[str, Any]:
    """Canonicalise a fresh result row and persist it; returns the
    canonical row.

    The one publish step of every execution path (the runner's
    in-process loop and the farm worker): the row goes through one JSON
    round-trip, so computed, cached and farmed rows have identical types
    and key order, and is stored under ``key`` when there is a cache.
    Raises ``TypeError``/``ValueError`` for a row JSON cannot carry.
    """
    row = json.loads(json.dumps(row))
    if cache is not None and key is not None:
        cache.store(key, task, row)
    return row
