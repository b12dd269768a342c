"""Trace sinks: where :class:`~repro.obs.trace.TraceBus` events end up.

Two sinks cover the common cases:

* :class:`MemorySink` — keeps records in a Python list, for tests and
  interactive inspection.
* :class:`JsonlSink` — streams one JSON object per line to a file, the
  interchange format documented in ``docs/OBSERVABILITY.md`` (and what
  ``python -m repro trace`` writes).

A sink is anything with ``write(record)``, ``flush()`` and ``close()``;
``record`` is a plain dict owned by the bus — sinks that keep it beyond the
call (as :class:`MemorySink` does) receive a fresh dict per event, so no
copying is needed.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["TraceSink", "FilterSink", "MemorySink", "JsonlSink", "ColumnarSink"]

#: Padding sentinel for columns where a record lacked the field — distinct
#: from None, which is a legitimate field value (e.g. ``dsn=None``).
_MISSING = object()


def _json_default(value):
    """Serialize non-JSON-native values (e.g. inf ssthresh) as strings."""
    return str(value)


class TraceSink:
    """Base class / duck-type contract for trace sinks."""

    def write(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class FilterSink(TraceSink):
    """Forwards only selected event types to an inner sink.

    Unlike the :class:`~repro.obs.trace.TraceBus` ``events=`` filter —
    which suppresses events for *every* sink before an emission index is
    assigned — a FilterSink narrows one sink's view while other sinks on
    the same bus (e.g. an attached invariant monitor, which must see every
    event) keep the full stream.  Emission indices in the filtered output
    are therefore sparse but still strictly increasing.
    """

    def __init__(self, sink: "TraceSink", events):
        self.sink = sink
        self.events = set(events)

    def write(self, record: dict) -> None:
        if record["ev"] in self.events:
            self.sink.write(record)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


class MemorySink(TraceSink):
    """Accumulates event records in memory.

    >>> sink = MemorySink()
    >>> bus = TraceBus(sinks=[sink])
    ... # run simulation ...
    >>> sink.of_type("pkt.drop")
    [{'ev': 'pkt.drop', 't': 1.25, ...}, ...]
    """

    def __init__(self, limit: Optional[int] = None):
        #: Optional cap on retained records; older records are NOT evicted —
        #: once full, new records are counted in ``dropped`` and discarded,
        #: which keeps long runs from exhausting memory while preserving
        #: the (deterministic) head of the trace.
        self.limit = limit
        self.events: List[dict] = []
        self.dropped = 0

    def write(self, record: dict) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(record)

    # -- queries --------------------------------------------------------
    def of_type(self, ev: str) -> List[dict]:
        """All records of one event type, in emission order."""
        return [r for r in self.events if r["ev"] == ev]

    def counts(self) -> Dict[str, int]:
        """Event count per type."""
        return dict(Counter(r["ev"] for r in self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemorySink({len(self.events)} events)"


class JsonlSink(TraceSink):
    """Streams events as JSON Lines to a path or an open text file.

    When given a path the file is opened immediately and closed by
    :meth:`close`; when given a file object the caller keeps ownership and
    ``close()`` only flushes.
    """

    def __init__(self, target: Union[str, "object"]):
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.records_written = 0
        self._closed = False

    def write(self, record: dict) -> None:
        self._file.write(json.dumps(record, default=_json_default))
        self._file.write("\n")
        self.records_written += 1

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonlSink({self.records_written} records)"


class ColumnarSink(TraceSink):
    """Struct-of-arrays in-memory sink: one table of parallel column lists
    per event type, instead of one dict per record.

    Every record of a given type comes from a single ``emit`` call site
    with a fixed field set, so grouping by ``ev`` gives dense rectangular
    tables: a 10⁶-record stream of ``cc.cwnd_update`` events is six flat
    lists of primitives rather than 10⁶ dicts each carrying the same six
    keys — a large constant-factor saving in memory and in post-processing
    (a column is a flat list, ready for an array constructor).  Schema
    drift within a type is tolerated by padding with a private sentinel
    (``None`` is a legitimate field value, e.g. ``dsn=None``; it round-trips).

    The emission order of the full stream is recoverable through the ``i``
    column; :meth:`records` reconstructs exactly the dict stream a
    :class:`MemorySink` would have kept (the equivalence test in
    ``tests/test_obs_trace.py`` holds it to that, bit for bit).
    """

    def __init__(self):
        #: ev -> {field: column list}; every table also carries "t"/"i".
        self.tables: Dict[str, Dict[str, list]] = {}
        self._rows: Dict[str, int] = {}

    def write(self, record: dict) -> None:
        ev = record["ev"]
        tables = self.tables
        table = tables.get(ev)
        if table is None:
            table = tables[ev] = {k: [] for k in record if k != "ev"}
            self._rows[ev] = 0
        n = self._rows[ev]
        for key, value in record.items():
            if key == "ev":
                continue
            col = table.get(key)
            if col is None:
                # First appearance of a field mid-stream: backfill.
                col = table[key] = [_MISSING] * n
            col.append(value)
        self._rows[ev] = n + 1
        if len(table) > len(record) - 1:
            # A known field missing from this record: pad.
            for col in table.values():
                if len(col) <= n:
                    col.append(_MISSING)

    # -- queries --------------------------------------------------------
    def column(self, ev: str, field: str) -> list:
        """One field of one event type, in emission order."""
        return self.tables[ev][field]

    def counts(self) -> Dict[str, int]:
        """Record count per event type."""
        return dict(self._rows)

    def __len__(self) -> int:
        return sum(self._rows.values())

    def of_type(self, ev: str) -> List[dict]:
        """All records of one event type, reconstructed in emission order."""
        table = self.tables.get(ev)
        if table is None:
            return []
        fields = list(table)
        rows = []
        for values in zip(*table.values()):
            row = {"ev": ev}
            row.update(
                (k, v) for k, v in zip(fields, values) if v is not _MISSING
            )
            rows.append(row)
        return rows

    def records(self) -> List[dict]:
        """The full stream reconstructed in emission order (by ``i``)."""
        out = []
        for ev in self.tables:
            out.extend(self.of_type(ev))
        out.sort(key=lambda r: r["i"])
        return out

    def clear(self) -> None:
        self.tables.clear()
        self._rows.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarSink({len(self)} records, {len(self.tables)} types)"
