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

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "COMMON_FIELDS": ".schema",
    "EVENT_TYPES": ".schema",
    "ColumnarSink": ".sinks",
    "DEFAULT_EVENTS": ".schema",
    "FilterSink": ".sinks",
    "JsonlSink": ".sinks",
    "MemorySink": ".sinks",
    "NULL_TRACE": ".trace",
    "NullTrace": ".trace",
    "SeriesRecorder": ".series",
    "TraceBus": ".trace",
    "TraceSchemaError": ".schema",
    "TraceSink": ".sinks",
    "cwnd_probe": ".series",
    "queue_depth_probe": ".series",
    "rtt_probe": ".series",
    "validate_event": ".schema",
    "validate_jsonl": ".schema",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
