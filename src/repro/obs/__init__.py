"""Observability: structured event tracing and time-series recording.

The subsystem has three parts (see ``docs/OBSERVABILITY.md`` for the full
schema and worked examples):

* :class:`TraceBus` + sinks — typed per-event tracing
  (``pkt.enqueue/drop/deliver``, ``cc.cwnd_update``, ``tcp.timeout``,
  ``tcp.fast_retransmit``, ``mptcp.dsn_ack``, ``engine.event_fired``),
  zero-overhead when disabled via the :data:`NULL_TRACE` singleton.
* :mod:`repro.obs.schema` — the machine-readable event schema and the
  validators backing ``python -m repro trace-validate``.
* :class:`SeriesRecorder` — aligned per-flow/per-queue time series
  (cwnd, RTT, queue depth, goodput) with warm-up discard and CSV/JSONL
  export.
"""

from .schema import (
    COMMON_FIELDS,
    DEFAULT_EVENTS,
    EVENT_TYPES,
    TraceSchemaError,
    validate_event,
    validate_jsonl,
)
from .series import SeriesRecorder, cwnd_probe, queue_depth_probe, rtt_probe
from .sinks import ColumnarSink, FilterSink, JsonlSink, MemorySink, TraceSink
from .trace import NULL_TRACE, NullTrace, TraceBus

__all__ = [
    "COMMON_FIELDS",
    "EVENT_TYPES",
    "ColumnarSink",
    "DEFAULT_EVENTS",
    "FilterSink",
    "JsonlSink",
    "MemorySink",
    "NULL_TRACE",
    "NullTrace",
    "SeriesRecorder",
    "TraceBus",
    "TraceSchemaError",
    "TraceSink",
    "cwnd_probe",
    "queue_depth_probe",
    "rtt_probe",
    "validate_event",
    "validate_jsonl",
]
