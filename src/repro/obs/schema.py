"""Machine-readable trace event schema, and validators against it.

This module is the single source of truth for what each trace event type
carries; ``docs/OBSERVABILITY.md`` is the prose rendering of the same
tables, and ``python -m repro trace-validate`` (used by ``make trace-demo``)
checks emitted JSONL against it.

Every record has the three :data:`COMMON_FIELDS`; per-type payloads are
described by :data:`EVENT_TYPES`, mapping event-type name to a dict of
``field name -> FieldSpec``.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

__all__ = [
    "FieldSpec",
    "COMMON_FIELDS",
    "EVENT_TYPES",
    "DEFAULT_EVENTS",
    "PATHMGR_EVENTS",
    "TraceSchemaError",
    "validate_event",
    "validate_jsonl",
]


class FieldSpec(NamedTuple):
    """Schema entry for one event field."""

    types: Tuple[type, ...]   # accepted Python/JSON types
    required: bool            # must be present in every record of the type
    nullable: bool            # may be JSON null / Python None
    description: str          # prose, with units where applicable


#: Fields present on every record, regardless of type.
COMMON_FIELDS: Dict[str, FieldSpec] = {
    "ev": FieldSpec((str,), True, False, "event type name"),
    "t": FieldSpec((int, float), True, False,
                   "simulated time, seconds (for exp.*/farm.* runner and "
                   "broker events: wall-clock seconds since the run "
                   "started; for real-backend runs: raw monotonic-clock "
                   "seconds — the run's rt.run record declares the origin "
                   "to subtract for a 0-based axis)"),
    "i": FieldSpec((int,), True, False,
                   "monotonic emission index (total order over the run)"),
}

_FLOW = FieldSpec((str,), True, True,
                  "name of the (sub)flow the packet belongs to")

#: Event-type name -> payload field schema.
EVENT_TYPES: Dict[str, Dict[str, FieldSpec]] = {
    "pkt.enqueue": {
        "queue": FieldSpec((str,), True, False, "queue name"),
        "flow": _FLOW,
        "seq": FieldSpec((int,), True, True,
                         "subflow sequence number (packets; null for "
                         "non-TCP payloads)"),
        "occ": FieldSpec((int,), True, False,
                         "queue occupancy after the enqueue, packets"),
        "dsn": FieldSpec((int,), False, True,
                         "connection-level data sequence number"),
        "size": FieldSpec((int, float), False, False,
                          "transmission size, MSS units"),
    },
    "pkt.drop": {
        "elem": FieldSpec((str,), True, False,
                          "name of the dropping element"),
        "kind": FieldSpec((str,), True, False,
                          "'queue' (buffer overflow), 'pipe' (random media "
                          "loss), 'fault' (injected by repro.fault), "
                          "'hybrid' (fluid congestion loss applied to a "
                          "tracer packet by repro.hybrid) or 'netem' "
                          "(real-backend impairment: random loss, buffer "
                          "overflow or rate-0 outage in repro.rt.netem)"),
        "flow": _FLOW,
        "seq": FieldSpec((int,), True, True,
                         "subflow sequence number of the dropped packet"),
        "occ": FieldSpec((int,), False, False,
                         "queue occupancy at drop time, packets "
                         "(queue drops only)"),
    },
    "pkt.deliver": {
        "flow": _FLOW,
        "seq": FieldSpec((int,), True, False,
                         "subflow sequence number delivered in order"),
        "dsn": FieldSpec((int,), False, True,
                         "connection-level data sequence number"),
    },
    "cc.cwnd_update": {
        "flow": _FLOW,
        "cwnd": FieldSpec((int, float), True, False,
                          "congestion window after the update, packets"),
        "ssthresh": FieldSpec((int, float), True, True,
                              "slow-start threshold, packets (null while "
                              "still unset/infinite)"),
        "reason": FieldSpec((str,), True, False,
                            "'ack' | 'loss' | 'timeout' | 'recovery_exit'"),
    },
    "tcp.timeout": {
        "flow": _FLOW,
        "rto": FieldSpec((int, float), True, False,
                         "backed-off retransmission timeout, seconds"),
        "cwnd": FieldSpec((int, float), True, False,
                          "congestion window at expiry (before the "
                          "collapse to min_cwnd), packets"),
    },
    "tcp.fast_retransmit": {
        "flow": _FLOW,
        "seq": FieldSpec((int,), True, False,
                         "subflow sequence number being retransmitted"),
    },
    "mptcp.dsn_ack": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "data_ack": FieldSpec((int,), True, False,
                              "connection-level cumulative data ACK, "
                              "packets"),
        "rwnd": FieldSpec((int,), True, True,
                          "advertised receive window, packets (null when "
                          "the receiver is unconstrained)"),
    },
    "engine.event_fired": {
        "seq": FieldSpec((int,), True, False,
                         "scheduler sequence number of the fired event"),
        "cb": FieldSpec((str,), True, False,
                        "qualified name of the callback"),
    },
    # Sweep-runner progress (repro.exp): "task" is the grid index, "key"
    # the content-addressed cache key (null when caching is off), and
    # "attempt" counts from 1 per task.
    "exp.task_start": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the sweep point"),
        "target": FieldSpec((str,), True, False,
                            "scenario name or module:qualname of the "
                            "point function"),
        "attempt": FieldSpec((int,), True, False,
                             "execution attempt number (1 = first try)"),
        "key": FieldSpec((str,), True, True,
                         "result-cache key (null when caching is off)"),
    },
    "exp.task_done": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the sweep point"),
        "attempt": FieldSpec((int,), True, False,
                             "attempt number that succeeded"),
        "wall": FieldSpec((int, float), True, False,
                          "wall-clock execution time of the point, "
                          "seconds"),
        "key": FieldSpec((str,), True, True,
                         "result-cache key (null when caching is off)"),
    },
    "exp.task_retry": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the sweep point"),
        "attempt": FieldSpec((int,), True, False,
                             "attempt number that failed"),
        "reason": FieldSpec((str,), True, False,
                            "'timeout' | 'worker_died' | "
                            "'lease expired' | "
                            "'<ExceptionType>: <message>'"),
        "key": FieldSpec((str,), True, True,
                         "result-cache key (null when caching is off)"),
    },
    "exp.task_failed": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the sweep point"),
        "attempt": FieldSpec((int,), True, False,
                             "attempt number of the terminal failure"),
        "failures": FieldSpec((int,), True, False,
                              "total failed attempts accumulated by the "
                              "task (the spent retry budget)"),
        "reason": FieldSpec((str,), True, False,
                            "the last failure: 'timeout' | 'worker_died' "
                            "| 'lease expired' | "
                            "'<ExceptionType>: <message>'"),
        "key": FieldSpec((str,), True, True,
                         "result-cache key (null when caching is off)"),
    },
    "exp.cache_hit": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the sweep point"),
        "key": FieldSpec((str,), True, False,
                         "result-cache key the row was served from"),
    },
    # Distributed experiment farm (repro.farm): broker-side progress.
    # "task" is the grid index; leases/failures mirror the persistent
    # journal, so a resumed serve replays the same event shapes.
    "farm.serve": {
        "tasks": FieldSpec((int,), True, False,
                           "grid points owned by the farm"),
        "done": FieldSpec((int,), True, False,
                          "points already complete in the result store "
                          "at serve start (resume hits)"),
        "leased": FieldSpec((int,), True, False,
                            "points under a live worker lease at serve "
                            "start"),
        "queued": FieldSpec((int,), True, False,
                            "points with a claimable queue token at "
                            "serve start"),
        "delayed": FieldSpec((int,), True, False,
                             "points waiting out a requeue backoff at "
                             "serve start"),
    },
    "farm.enqueue": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the enqueued point"),
        "attempt": FieldSpec((int,), True, False,
                             "execution attempt this token represents "
                             "(1 = first enqueue)"),
        "key": FieldSpec((str,), True, False,
                         "content-addressed result-store key"),
    },
    "farm.lease": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the leased point"),
        "worker": FieldSpec((str,), True, False,
                            "id of the worker holding the lease"),
        "attempt": FieldSpec((int,), True, False,
                             "execution attempt under this lease"),
    },
    "farm.task_done": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the completed point"),
        "worker": FieldSpec((str,), True, False,
                            "id of the worker that computed the row"),
        "wall": FieldSpec((int, float), True, False,
                          "wall-clock execution time of the point, "
                          "seconds"),
        "key": FieldSpec((str,), True, False,
                         "result-store key the row was published under"),
    },
    "farm.task_failed": {
        "task": FieldSpec((int,), True, False,
                          "grid index of the failed point"),
        "worker": FieldSpec((str,), True, False,
                            "id of the worker that reported the failure"),
        "reason": FieldSpec((str,), True, False,
                            "'<ExceptionType>: <message>' from the "
                            "worker"),
        "failures": FieldSpec((int,), True, False,
                              "failed attempts accumulated by the task "
                              "(lease expiries included)"),
    },
    "farm.lease_expired": {
        "task": FieldSpec((int,), True, False,
                          "grid index whose lease lapsed"),
        "worker": FieldSpec((str,), True, True,
                            "last known lease holder (null when the "
                            "lease file was unreadable)"),
        "reason": FieldSpec((str,), True, False,
                            "'lease expired' (heartbeat deadline passed) "
                            "| 'timeout' (lease older than the per-task "
                            "timeout) | 'worker_died' (local worker "
                            "process exited)"),
        "failures": FieldSpec((int,), True, False,
                              "failed attempts accumulated by the task "
                              "(an expiry counts as one)"),
    },
    "farm.requeue": {
        "task": FieldSpec((int,), True, False,
                          "grid index being requeued"),
        "failures": FieldSpec((int,), True, False,
                              "failed attempts accumulated so far"),
        "delay": FieldSpec((int, float), True, False,
                           "exponential backoff before the next enqueue, "
                           "seconds"),
    },
    "farm.exhausted": {
        "task": FieldSpec((int,), True, False,
                          "grid index whose failure budget ran out"),
        "failures": FieldSpec((int,), True, False,
                              "failed attempts accumulated by the task"),
    },
    "farm.complete": {
        "rows": FieldSpec((int,), True, False,
                          "rows aggregated in grid order"),
        "executed": FieldSpec((int,), True, False,
                              "points computed by workers during this "
                              "serve"),
        "store_hits": FieldSpec((int,), True, False,
                                "points served from the result store at "
                                "serve start (resume hits)"),
        "wall": FieldSpec((int, float), True, False,
                          "serve wall-clock time, seconds"),
    },
    # Invariant-checking layer (repro.check): attach/stats bracket a
    # monitored run; a violation record precedes the raised
    # InvariantViolation (the exception carries the trace-tail).
    "check.attach": {
        "queues": FieldSpec((int,), True, False,
                            "drop-tail queues under invariant watch"),
        "senders": FieldSpec((int,), True, False,
                             "TCP senders / MPTCP subflows under watch"),
        "conns": FieldSpec((int,), True, False,
                           "multipath connections under watch"),
        "buffers": FieldSpec((int,), True, False,
                             "shared receive buffers under watch"),
        "faults": FieldSpec((int,), True, False,
                            "armed fault injectors (0 = clean run)"),
    },
    "check.violation": {
        "invariant": FieldSpec((str,), True, False,
                               "name of the violated invariant"),
        "detail": FieldSpec((str,), True, False,
                            "human-readable description of the violation"),
        "event_i": FieldSpec((int,), True, True,
                             "emission index of the offending event (null "
                             "for state-sweep violations with no single "
                             "triggering event)"),
        "tail": FieldSpec((int,), True, False,
                          "records in the replayable trace-tail carried by "
                          "the raised InvariantViolation"),
    },
    "check.stats": {
        "events": FieldSpec((int,), True, False,
                            "trace events the monitor observed"),
        "checks": FieldSpec((int,), True, False,
                            "individual invariant evaluations performed"),
        "violations": FieldSpec((int,), True, False,
                                "violations detected (0 for a clean run)"),
    },
    # Fault-injection layer (repro.fault).  Per-packet effects are traced
    # as pkt.drop kind='fault'; fault.fire marks state transitions.
    "fault.armed": {
        "fault": FieldSpec((str,), True, False,
                           "fault kind (link_flap, loss_burst, reorder, "
                           "subflow_kill, ack_drop)"),
        "target": FieldSpec((str,), True, False,
                            "name of the element the fault is bound to"),
        "start": FieldSpec((int, float), True, False,
                           "simulated time the fault first acts, seconds"),
    },
    "fault.fire": {
        "fault": FieldSpec((str,), True, False, "fault kind"),
        "target": FieldSpec((str,), True, False,
                            "name of the element the fault is bound to"),
        "action": FieldSpec((str,), True, False,
                            "'down' | 'up' | 'burst_start' | 'burst_end' | "
                            "'reorder' | 'kill' | 'revive' | 'window_start'"
                            " | 'window_end'"),
        "seq": FieldSpec((int,), False, True,
                         "sequence number affected (per-packet actions)"),
        "count": FieldSpec((int,), False, False,
                           "packets affected during the ending "
                           "state (up/burst_end/window_end actions)"),
    },
    # Path-management layer (repro.pathmgr): runtime subflow lifecycle.
    # "path" is the manager's path name (e.g. 'wifi'); for path_down/
    # path_up signals on an unmanaged connection it is the subflow name.
    "pathmgr.add_addr": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False, "advertised path name"),
        "role": FieldSpec((str,), True, False,
                          "'primary' | 'backup' (§5.2 hot standby)"),
    },
    "pathmgr.remove_addr": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False, "withdrawn path name"),
    },
    "pathmgr.subflow_open": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False, "path the subflow runs on"),
        "subflow": FieldSpec((str,), True, False, "subflow name"),
        "policy": FieldSpec((str,), True, False,
                            "path-manager policy that opened it"),
        "cause": FieldSpec((str,), True, False,
                           "'advertise' | 'path_up' | 'standby' | "
                           "'handover' | 'primary_down'"),
    },
    "pathmgr.join_failed": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False, "path the join targeted"),
        "reason": FieldSpec((str,), True, False,
                            "handshake failure reason (stripped option, "
                            "unknown token, non-multipath connection)"),
    },
    "pathmgr.subflow_close": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False, "path the subflow ran on"),
        "subflow": FieldSpec((str,), True, False, "subflow name"),
        "reason": FieldSpec((str,), True, False,
                            "'path_down' | 'remove_addr' | 'released'"),
        "reinjected": FieldSpec((int,), True, False,
                                "stranded DSNs queued for reinjection on "
                                "the surviving subflows"),
    },
    "pathmgr.path_down": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False,
                          "failed path (subflow name when unmanaged)"),
        "cause": FieldSpec((str,), True, False,
                           "'schedule' | 'fault' | 'signal' | 'churn'"),
    },
    "pathmgr.path_up": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False,
                          "recovered path (subflow name when unmanaged)"),
    },
    "pathmgr.standby_activate": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "path": FieldSpec((str,), True, False,
                          "backup path leaving hot standby"),
        "subflow": FieldSpec((str,), True, False,
                             "subflow opened on the backup path"),
    },
    "pathmgr.handover": {
        "conn": FieldSpec((str,), True, False, "connection name"),
        "src": FieldSpec((str,), True, False, "path traffic migrated from"),
        "dst": FieldSpec((str,), True, False, "path traffic migrated to"),
        "mode": FieldSpec((str,), True, False,
                          "'break_before_make' | 'make_before_break'"),
    },
    # Hybrid flow-class tier (repro.hybrid): attach marks the fluid
    # stepper starting; state snapshots are emitted every
    # ``snapshot_every`` fluid steps when tracing is on.
    "hybrid.attach": {
        "classes": FieldSpec((int,), True, False,
                             "flow classes at stepper start"),
        "links": FieldSpec((int,), True, False,
                           "drop-tail queues wrapped as fluid links"),
        "flows": FieldSpec((int,), True, False,
                           "aggregate flows represented by the fluid tier"),
        "dt": FieldSpec((int, float), True, False,
                        "fluid integration step, seconds"),
    },
    "hybrid.class_state": {
        "cls": FieldSpec((str,), True, False, "flow-class name"),
        "rate_pps": FieldSpec((int, float), True, False,
                              "aggregate delivered rate, pkt/s"),
        "windows": FieldSpec((int, float), True, False,
                             "sum of the representative flow's per-path "
                             "windows, packets"),
        "delivered": FieldSpec((int, float), True, False,
                               "cumulative aggregate deliveries, packets "
                               "(fractional: integrates the fluid rate)"),
    },
    # Real-network backend (repro.rt): one rt.run record opens every
    # traced run and declares the clock origin; subsequent rt.* events
    # (and all state-machine events) carry raw monotonic-clock ``t``.
    "rt.run": {
        "backend": FieldSpec((str,), True, False,
                             "'rt' (UDP loopback runtime)"),
        "origin_mono": FieldSpec((int, float), True, False,
                                 "monotonic-clock value at the run origin, "
                                 "seconds (subtract from ``t`` for a "
                                 "0-based axis)"),
        "origin_unix": FieldSpec((int, float), True, False,
                                 "Unix wall-clock time at the run origin, "
                                 "seconds"),
        "seed": FieldSpec((int,), True, False,
                          "seed of the run's impairment RNG"),
    },
    "rt.channel_open": {
        "path": FieldSpec((str,), True, False,
                          "rt path name the channel runs on"),
        "channel": FieldSpec((int,), True, False,
                             "wire channel id (one per subflow attach; "
                             "stamped into every datagram)"),
        "flow": FieldSpec((str,), True, True,
                          "subflow name bound to the channel (null until "
                          "the sender binds)"),
    },
    "rt.ctrl": {
        "path": FieldSpec((str,), True, False,
                          "rt path name the control frame arrived on"),
        "kind": FieldSpec((str,), True, False,
                          "'mp_capable' | 'mp_join' | 'add_addr' | "
                          "'remove_addr'"),
        "token": FieldSpec((int,), False, True,
                           "connection token / sender key carried by "
                           "mp_join and mp_capable frames"),
        "addr_id": FieldSpec((int,), False, True,
                             "address id carried by add_addr/remove_addr "
                             "frames"),
    },
    "rt.codec_error": {
        "path": FieldSpec((str,), True, False,
                          "rt path name the bad datagram arrived on"),
        "reason": FieldSpec((str,), True, False,
                            "decode failure (truncated, bad magic, "
                            "checksum mismatch, unknown type)"),
    },
    "rt.netem": {
        "path": FieldSpec((str,), True, False, "rt path name"),
        "direction": FieldSpec((str,), True, False,
                               "'fwd' (data) | 'rev' (ACK)"),
        "rate_mbps": FieldSpec((int, float), True, True,
                               "new emulated line rate, Mb/s (null = "
                               "unlimited; 0 = outage)"),
    },
    "hybrid.link_state": {
        "link": FieldSpec((str,), True, False, "fluid link name"),
        "fluid_pps": FieldSpec((int, float), True, False,
                               "aggregate fluid load offered, pkt/s"),
        "tracer_pps": FieldSpec((int, float), True, False,
                                "measured packet-level arrival rate, pkt/s"),
        "backlog": FieldSpec((int, float), True, False,
                             "fluid queue backlog, packets"),
        "loss": FieldSpec((int, float), True, False,
                          "drop-tail fluid loss probability"),
    },
}

#: Every type but the one-per-dispatch ``engine.event_fired``: what the CLI,
#: the examples and every monitored run record unless asked otherwise.
DEFAULT_EVENTS = frozenset(EVENT_TYPES) - {"engine.event_fired"}

#: All pathmgr trace event types (for FilterSink selections); exported
#: as ``repro.pathmgr.PATHMGR_EVENTS``.
PATHMGR_EVENTS = frozenset(
    ev for ev in EVENT_TYPES if ev.startswith("pathmgr.")
)

#: Valid values for the ``reason`` field of ``cc.cwnd_update``.
CWND_UPDATE_REASONS = ("ack", "loss", "timeout", "recovery_exit")


class TraceSchemaError(ValueError):
    """Raised by :func:`validate_jsonl` on the first invalid record."""


def validate_event(record: dict) -> List[str]:
    """Check one record against the schema; returns a list of problems
    (empty when the record is valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    for name, spec in COMMON_FIELDS.items():
        problems.extend(_check_field(record, name, spec))
    ev = record.get("ev")
    if not isinstance(ev, str):
        return problems
    payload_schema = EVENT_TYPES.get(ev)
    if payload_schema is None:
        problems.append(f"unknown event type {ev!r}")
        return problems
    for name, spec in payload_schema.items():
        problems.extend(_check_field(record, name, spec))
    for name in record:
        if name not in COMMON_FIELDS and name not in payload_schema:
            problems.append(f"{ev}: undocumented field {name!r}")
    if ev == "cc.cwnd_update":
        reason = record.get("reason")
        if reason is not None and reason not in CWND_UPDATE_REASONS:
            problems.append(f"cc.cwnd_update: unknown reason {reason!r}")
    return problems


def _check_field(record: dict, name: str, spec: FieldSpec) -> List[str]:
    ev = record.get("ev", "?")
    if name not in record:
        if spec.required:
            return [f"{ev}: missing required field {name!r}"]
        return []
    value = record[name]
    if value is None:
        if not spec.nullable:
            return [f"{ev}: field {name!r} must not be null"]
        return []
    # bool is an int subclass; no trace field is boolean, so reject it.
    if isinstance(value, bool) or not isinstance(value, spec.types):
        return [
            f"{ev}: field {name!r} has type {type(value).__name__}, "
            f"expected one of {[t.__name__ for t in spec.types]}"
        ]
    return []


def validate_jsonl(path: str) -> int:
    """Validate a JSONL trace file; returns the number of records checked.

    Raises :class:`TraceSchemaError` on the first malformed line or
    schema violation, with the line number in the message.  Also checks
    that the emission index ``i`` is strictly increasing and timestamps
    never go backwards (the bus guarantees both).
    """
    count = 0
    last_i = -1
    last_t = float("-inf")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            problems = validate_event(record)
            if problems:
                raise TraceSchemaError(
                    f"{path}:{lineno}: " + "; ".join(problems)
                )
            if record["i"] <= last_i:
                raise TraceSchemaError(
                    f"{path}:{lineno}: emission index not increasing "
                    f"({record['i']} after {last_i})"
                )
            if record["t"] < last_t:
                raise TraceSchemaError(
                    f"{path}:{lineno}: time went backwards "
                    f"({record['t']} after {last_t})"
                )
            last_i = record["i"]
            last_t = record["t"]
            count += 1
    return count
