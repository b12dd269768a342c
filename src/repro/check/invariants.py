"""Continuously-checked protocol invariants (§6's safety arguments).

The paper's protocol claims are all *safety* properties: DSN bookkeeping
never loses or duplicates stream bytes, the single shared receive buffer
never overcommits, the MPTCP/LIA increase never exceeds regular TCP's.
The test suite historically asserted them at end-of-run; the
:class:`InvariantMonitor` instead subscribes to the
:class:`~repro.obs.trace.TraceBus` and checks each record against its own
fields and against the live state of **the one component it names**, so
an inconsistent state stops the run with a :class:`InvariantViolation`
carrying the reporting event and a trace-tail for replay.

Checked invariants
------------------

``queue_conservation``
    Per drop-tail queue: ``arrivals == departures + drops + occupancy``
    (packets are never created or lost inside a buffer).  The counters
    only count up from the queue's creation, so the balance
    ``arrivals - departures - drops - occupancy`` is 0 at every instant.
``queue_bounds``
    ``0 <= occupancy <= capacity`` for the queue a record names, also
    re-checked from each ``pkt.enqueue`` event's ``occ`` field.
``window_sanity``
    On every ``cc.cwnd_update``: cwnd positive, within
    ``[min_cwnd, max_cwnd]``, ssthresh positive when set.
``coupled_increase_bound``
    Every congestion-avoidance ``on_ack`` increase is at most ``1/w``
    (constraint (4) of §2.5: a multipath flow must never be more
    aggressive per-ACK than regular TCP).  Enforced by wrapping each
    controller's ``on_ack``; controllers named in ``exempt_controllers``
    (CUBIC, whose window growth is deliberately not ACK-bounded) are
    skipped.
``dsn_monotonic``
    ``mptcp.dsn_ack`` events carry a strictly increasing data cumulative
    ACK per connection, and a non-negative receive window.
``receive_buffer_bound``
    Shared-buffer accounting: ``occupancy <= capacity`` and
    ``unread >= 0`` (§6: everything the sender may send fits the pool).
``exactly_once_delivery``
    Subflow level: per-flow ``pkt.deliver`` sequence numbers are dense
    (0, 1, 2, ...).  Connection level: the reassembler has delivered
    exactly ``data_cum_ack`` packets — each DSN exactly once.

Detection points and cost model
-------------------------------

``pkt.enqueue`` / ``pkt.drop`` check the queues of the name they
carry (one, unless names are empty or shared), ``pkt.deliver`` /
``mptcp.dsn_ack`` the receiver that flow or connection delivers to; a name
that resolves to nothing checks *every* queue, or receiver, and
:meth:`InvariantMonitor.finish` checks everything.  A breach is thus
reported at the next record naming the broken component
(``docs/CHECKING.md``: why that loses no violation, the blind spots it
widens, the measured slowdown).  A record costs one memoised dict lookup
for its check, the check of its own fields, and a few attribute reads and
one comparison per named component; only a failed comparison reaches the
slow path that words the violation.
The dense-delivery and DSN checks need *every* record, so a monitored bus
must not be ``pause()``d mid-run.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Dict, List, Optional

from ..mptcp.connection import MptcpConnection, MptcpReceiver
from ..net.queue import DropTailQueue
from ..obs.sinks import TraceSink
from ..obs.trace import TraceBus
from ..sim.simulation import Simulation
from ..tcp.sender import TcpSender

__all__ = ["InvariantMonitor", "InvariantViolation", "CHECK_EVENTS"]

#: The trace event types emitted by this layer plus the fault layer —
#: the set a replay/golden sink usually filters down to.
CHECK_EVENTS = frozenset(
    ["check.attach", "check.violation", "check.stats",
     "fault.armed", "fault.fire"]
)

#: Absolute slop for floating-point window comparisons.
_EPS = 1e-9


class InvariantViolation(AssertionError):
    """An invariant failed mid-run.

    Carries everything needed to understand and replay the failure:

    ``invariant``
        Name of the failed check (see the module docstring).
    ``detail``
        Human-readable description with the offending values.
    ``event``
        The trace record being processed when the violation was detected
        (None when ``finish()``'s sweep or a controller's ``on_ack`` found it).
    ``tail``
        The last trace records up to the violation, in emission order,
        ending with ``event`` itself when there is one (a record enters
        the tail before it is checked) — feed them to ``repro
        trace-validate`` or diff them against a healthy run's tail to
        localise the divergence.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        event: Optional[dict] = None,
        tail: Optional[List[dict]] = None,
    ):
        self.invariant = invariant
        self.detail = detail
        self.event = event
        self.tail = list(tail or ())
        at = f" at event {event['i']} ({event['ev']})" if event else ""
        super().__init__(
            f"invariant {invariant!r} violated{at}: {detail} "
            f"[trace-tail: {len(self.tail)} records]"
        )


#: ``InvariantMonitor._route`` value for event types the monitor skips.
_BOOKKEEPING = object()


class InvariantMonitor(TraceSink):
    """A trace sink that checks each record, and the component it names.

    Usage::

        bus = TraceBus(events=DEFAULT_EVENTS)
        sim = Simulation(seed=1, trace=bus)
        monitor = InvariantMonitor()
        monitor.attach(sim)          # watches everything built on sim
        ... build scenario, run ...
        monitor.finish()             # final sweep + check.stats event

    Components are discovered through the simulation's registration
    watcher (:meth:`~repro.sim.simulation.Simulation.on_register`), so a
    monitor attached before *or* after the scenario is built watches every
    queue, sender, connection and shared buffer without explicit wiring.
    Any violation raises :class:`InvariantViolation` out of the emitting
    component (and therefore out of ``sim.run_until``), after emitting a
    ``check.violation`` trace record and flushing the bus.
    """

    def __init__(
        self,
        tail: int = 64,
        exempt_controllers: tuple = ("cubic",),
    ):
        self.tail: deque = deque(maxlen=tail)
        self.exempt_controllers = set(exempt_controllers)
        self.sim: Optional[Simulation] = None
        self.bus: Optional[TraceBus] = None

        # Watched components.
        self.queues: List[DropTailQueue] = []
        self.senders: List[TcpSender] = []
        self.conns: List[MptcpConnection] = []
        self.receivers: List[MptcpReceiver] = []
        self._senders_by_name: Dict[str, TcpSender] = {}
        self._wrapped_controllers: Dict[int, Any] = {}

        # Per-entity check state.  Queues by name are lists, so that queues
        # sharing a name (or unnamed) are checked together, not skipped.
        self._queues_named: Dict[str, List[DropTailQueue]] = {}
        self._receivers_of = functools.cache(self._find_receivers)  # by name
        self._next_deliver: Dict[str, int] = {}   # flow name -> next seq
        self._last_data_ack: Dict[str, int] = {}  # conn name -> data_ack

        # Statistics.
        self.events_seen = 0
        self.checks_run = 0
        self.violations = 0
        self._finished = False

        # Event type -> its check, None for a type that names nothing the
        # monitor watches, _BOOKKEEPING for one it does not even count;
        # write() memoises every type it meets here.
        self._route: Dict[str, Any] = {
            "pkt.enqueue": self._check_enqueue,
            "pkt.drop": self._check_drop,
            "pkt.deliver": self._check_deliver,
            "cc.cwnd_update": self._check_cwnd_update,
            "mptcp.dsn_ack": self._check_dsn_ack,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim: Simulation) -> "InvariantMonitor":
        """Subscribe to ``sim``'s trace bus and watch all its components."""
        bus = sim.trace
        if not isinstance(bus, TraceBus):
            raise ValueError(
                "InvariantMonitor needs a Simulation built with a TraceBus "
                "(Simulation(seed=..., trace=TraceBus())); invariants are "
                "checked at trace events, so an untraced simulation cannot "
                "be monitored"
            )
        hidden = sorted(ev for ev, check in self._route.items()
                        if callable(check) and not bus.records(ev))
        if hidden:
            raise ValueError(
                f"the trace bus filters out {', '.join(hidden)}, which the "
                "InvariantMonitor checks; record them on the bus (e.g. "
                "events=DEFAULT_EVENTS) and narrow a sink with FilterSink"
            )
        self.sim = sim
        self.bus = bus
        bus.add_sink(self)
        sim.on_register(self._watch)
        return self

    def _watch(self, component: Any) -> None:
        if isinstance(component, DropTailQueue):
            self.queues.append(component)
            self._queues_named.setdefault(component.name, []).append(component)
        elif isinstance(component, TcpSender):
            self.senders.append(component)
            if component.name:
                self._senders_by_name[component.name] = component
            self._wrap_controller(component.controller)
        elif isinstance(component, MptcpConnection):
            self.conns.append(component)
        elif isinstance(component, MptcpReceiver):
            self.receivers.append(component)

    def _wrap_controller(self, controller: Any) -> None:
        key = id(controller)
        if key in self._wrapped_controllers:
            return
        if getattr(controller, "name", "") in self.exempt_controllers:
            self._wrapped_controllers[key] = None
            return
        original = controller.on_ack
        monitor = self

        def checked_on_ack(subflow):
            before = subflow.cwnd
            original(subflow)
            monitor.checks_run += 1
            delta = subflow.cwnd - before
            if before > 0 and delta > 1.0 / before + _EPS:
                monitor._violate(
                    "coupled_increase_bound",
                    f"controller {controller.name!r} grew "
                    f"{getattr(subflow, 'name', subflow)!r} by {delta:.6g} "
                    f"on one ACK at cwnd {before:.6g}; the uncoupled bound "
                    f"is 1/w = {1.0 / before:.6g}",
                )

        controller.on_ack = checked_on_ack
        self._wrapped_controllers[key] = original

    # ------------------------------------------------------------------
    # TraceSink contract
    # ------------------------------------------------------------------
    def write(self, record: dict) -> None:
        self.tail.append(record)
        ev = record["ev"]
        try:
            check = self._route[ev]
        except KeyError:
            check = self._route[ev] = (
                _BOOKKEEPING if ev.startswith(("check.", "fault.")) else None
            )
        if check is _BOOKKEEPING:
            return  # our own (or the fault layer's) records
        self.events_seen += 1
        if check is not None:
            check(record)

    # ------------------------------------------------------------------
    # Per-record checks: the record's fields, then the component it names
    # ------------------------------------------------------------------
    def _check_enqueue(self, record: dict) -> None:
        self.checks_run += 1
        queues = self._queues_named.get(record["queue"], ())
        if len(queues) == 1 and record["occ"] > queues[0].capacity:
            self._violate(
                "queue_bounds",
                f"queue {record['queue']!r} enqueued to occupancy "
                f"{record['occ']} > capacity {queues[0].capacity}",
                record,
            )
        self._sweep(queues or self.queues, (), record)

    def _check_drop(self, record: dict) -> None:
        queues = self._queues_named.get(record["elem"])
        self._sweep(queues or self.queues, (), record)

    def _check_deliver(self, record: dict) -> None:
        self.checks_run += 1
        flow = record["flow"]
        seq = record["seq"]
        expected = self._next_deliver.get(flow, 0)
        if seq != expected:
            self._violate(
                "exactly_once_delivery",
                f"flow {flow!r} delivered subflow seq {seq}, expected "
                f"{expected} (in-order delivery must be dense: no byte "
                f"skipped or delivered twice)",
                record,
            )
        self._next_deliver[flow] = seq + 1
        self._sweep((), self._receivers_of(flow), record)

    def _check_cwnd_update(self, record: dict) -> None:
        self.checks_run += 1
        cwnd = record["cwnd"]
        ssthresh = record["ssthresh"]
        if not cwnd > 0:
            self._violate(
                "window_sanity",
                f"flow {record['flow']!r} has non-positive cwnd {cwnd!r}",
                record,
            )
        if ssthresh is not None and not ssthresh > 0:
            self._violate(
                "window_sanity",
                f"flow {record['flow']!r} has non-positive ssthresh "
                f"{ssthresh!r}",
                record,
            )
        sender = self._senders_by_name.get(record["flow"])
        if sender is not None:
            if cwnd < sender.min_cwnd - _EPS:
                self._violate(
                    "window_sanity",
                    f"flow {record['flow']!r} cwnd {cwnd:.6g} fell below "
                    f"min_cwnd {sender.min_cwnd:.6g}",
                    record,
                )
            if cwnd > sender.max_cwnd + _EPS:
                self._violate(
                    "window_sanity",
                    f"flow {record['flow']!r} cwnd {cwnd:.6g} exceeds "
                    f"max_cwnd {sender.max_cwnd:.6g}",
                    record,
                )

    def _check_dsn_ack(self, record: dict) -> None:
        self.checks_run += 1
        conn = record["conn"]
        data_ack = record["data_ack"]
        last = self._last_data_ack.get(conn)
        if last is not None and data_ack <= last:
            self._violate(
                "dsn_monotonic",
                f"connection {conn!r} data cumulative ACK went from {last} "
                f"to {data_ack}; it must be strictly increasing",
                record,
            )
        self._last_data_ack[conn] = data_ack
        rwnd = record["rwnd"]
        if rwnd is not None and rwnd < 0:
            self._violate(
                "dsn_monotonic",
                f"connection {conn!r} advertised negative receive window "
                f"{rwnd}",
                record,
            )
        self._sweep((), self._receivers_of(conn), record)

    # ------------------------------------------------------------------
    # Live state of the named components
    # ------------------------------------------------------------------
    def _find_receivers(self, name: str) -> List[MptcpReceiver]:
        """The receivers behind ``name`` (a subflow's in ``pkt.deliver``, its
        connection's in ``mptcp.dsn_ack``): where the senders so named
        deliver, else every receiver — that list itself, as it may grow."""
        ends = {
            s._data_route[-1] for s in self.senders if s._data_route and name
            in (s.name, getattr(getattr(s, "connection", None), "name", None))
        }
        found = [
            r for r in self.receivers if not ends.isdisjoint(r.subflow_receivers)
        ]
        return found or self.receivers

    def _sweep(self, queues, receivers, record: Optional[dict]) -> None:
        """Re-check these queues and receivers against live state.

        The loops below are the fast path: slot reads, the count and one
        comparison per component, nothing allocated.  A component whose
        comparison fails is handed to a ``_recheck_*`` method, which works
        out what (if anything) is wrong and builds the violation.
        """
        for queue in queues:
            self.checks_run += 1
            occ = len(queue._buffer)  # queue.occupancy, minus the call
            if (
                queue.arrivals == queue.departures + queue.drops + occ
                and occ <= queue.capacity
            ):
                continue
            self._recheck_queue(queue, record)
        for receiver in receivers:
            self.checks_run += 1
            reassembler = receiver.reassembler
            buffer = receiver.buffer
            if (
                reassembler.delivered == reassembler.data_cum_ack
                and buffer.unread >= 0
                and (
                    buffer.capacity is None
                    or buffer.occupancy <= buffer.capacity
                )
            ):
                continue
            self._recheck_receiver(receiver, record)

    def _recheck_queue(self, queue, record: Optional[dict]) -> None:
        """Slow path for a queue that failed the sweep's comparison: a
        bound is broken or packets leaked."""
        occ = queue.occupancy
        if occ > queue.capacity:
            self._violate(
                "queue_bounds",
                f"queue {queue.name!r} occupancy {occ} outside "
                f"[0, {queue.capacity}]",
                record,
            )
        balance = queue.arrivals - queue.departures - queue.drops - occ
        self._violate(
            "queue_conservation",
            f"queue {queue.name!r} leaks packets: arrivals "
            f"{queue.arrivals} != departures {queue.departures} + "
            f"drops {queue.drops} + occupancy {occ} "
            f"(balance {balance}, expected 0)",
            record,
        )

    def _recheck_receiver(
        self, receiver: MptcpReceiver, record: Optional[dict]
    ) -> None:
        """Slow path for a receiver that failed the sweep's comparison."""
        reassembler = receiver.reassembler
        buffer = receiver.buffer
        if reassembler.delivered != reassembler.data_cum_ack:
            self._violate(
                "exactly_once_delivery",
                f"receiver {receiver.name!r} delivered "
                f"{reassembler.delivered} packets but the data "
                f"cumulative ACK is {reassembler.data_cum_ack}; every "
                f"DSN below it must be delivered exactly once",
                record,
            )
        if buffer.unread < 0:
            self._violate(
                "receive_buffer_bound",
                f"receiver {receiver.name!r} has negative unread count "
                f"{buffer.unread}",
                record,
            )
        if buffer.capacity is not None and buffer.occupancy > buffer.capacity:
            self._violate(
                "receive_buffer_bound",
                f"receiver {receiver.name!r} shared buffer holds "
                f"{buffer.occupancy} > capacity {buffer.capacity} "
                f"({reassembler.buffered} out-of-order + "
                f"{buffer.unread} unread)",
                record,
            )

    # ------------------------------------------------------------------
    # Violation / lifecycle
    # ------------------------------------------------------------------
    def _violate(
        self, invariant: str, detail: str, event: Optional[dict] = None
    ) -> None:
        self.violations += 1
        tail = list(self.tail)
        if self.bus is not None and self.bus.enabled:
            self.bus.emit(
                "check.violation",
                self.sim.now if self.sim is not None else 0.0,
                invariant=invariant,
                detail=detail,
                event_i=event["i"] if event else None,
                tail=len(tail),
            )
            self.bus.flush()
        raise InvariantViolation(invariant, detail, event=event, tail=tail)

    def emit_attach(self, faults: int = 0) -> None:
        """Emit a ``check.attach`` record describing what is being watched
        (call after the scenario is built)."""
        if self.bus is not None and self.bus.enabled:
            self.bus.emit(
                "check.attach",
                self.sim.now if self.sim is not None else 0.0,
                queues=len(self.queues),
                senders=len(self.senders),
                conns=len(self.conns),
                buffers=len(self.receivers),
                faults=faults,
            )

    def finish(self) -> None:
        """Run a final sweep and emit the ``check.stats`` summary record.

        Idempotent; safe to call from test teardown even after a violation
        already surfaced (the final sweep re-raises on still-broken state).
        """
        if self._finished:
            return
        self._finished = True
        self._sweep(self.queues, self.receivers, None)
        if self.bus is not None and self.bus.enabled:
            self.bus.emit(
                "check.stats",
                self.sim.now if self.sim is not None else 0.0,
                events=self.events_seen,
                checks=self.checks_run,
                violations=self.violations,
            )

    def stats(self) -> Dict[str, int]:
        """Counters for result rows: events seen, checks run, violations."""
        return {
            "events": self.events_seen,
            "checks": self.checks_run,
            "violations": self.violations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantMonitor(queues={len(self.queues)}, "
            f"senders={len(self.senders)}, checks={self.checks_run}, "
            f"violations={self.violations})"
        )
