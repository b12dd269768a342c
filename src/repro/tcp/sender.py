"""TCP sender: window-based transmission with SACK/NewReno loss recovery.

The sender owns the machinery that is *common* to every algorithm in the
paper — slow start, fast retransmit / fast recovery, retransmission
timeouts, go-back-N after an RTO, RTT sampling — and delegates the window
adaptation rules (the paper's contribution) to a
:class:`~repro.core.base.CongestionController`:

* congestion-avoidance increase → ``controller.on_ack(self)`` once per
  newly acknowledged packet,
* multiplicative decrease on a loss event (third duplicate ACK) →
  ``controller.on_loss(self)``.

Loss recovery follows a simplified RFC 6675 SACK scheme (matching the Linux
2.6 stacks used in the paper's testbed): the sender keeps a scoreboard of
SACKed sequence numbers, marks a hole lost once three SACKed packets lie
above it, and during recovery keeps the pipe full with retransmissions
first, then new data.  With ``enable_sack=False`` it degrades to classic
NewReno (one hole recovered per RTT); the ``paper_ablation_sack`` grid
compares the two.

The scoreboard lives in :class:`~repro.tcp.scoreboard.SackScoreboard` — a
flat array of per-sequence flag bits rebased at the cumulative ACK, with
maintained counts (the perf-round-2 representation; the old container-based
implementation is retained there as the reference for the equivalence
property test).

A multipath subflow subclasses this sender and plugs the connection-level
data-sequence machinery into the ``next_dsn`` / ``on_ack_extension`` hooks
(the sending-side twins of the receiver's ``on_deliver`` /
``ack_extension``).

Sequence numbers count packets from 0; ``last_acked`` is the cumulative ACK
(the next sequence number the receiver expects).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.base import CongestionController
from ..net.packet import AckPacket, DataPacket
from ..net.route import Route
from ..sim.simulation import Simulation
from .receiver import TcpReceiver
from .rtt import RttEstimator
from .scoreboard import SackScoreboard
from .source import InfiniteSource

__all__ = ["TcpSender", "TcpFlow"]

#: Duplicate-ACK threshold for fast retransmit (and SACK loss marking).
DUP_THRESH = 3


class TcpSender:
    """One (sub)flow's sending side."""

    __slots__ = (
        "sim", "controller", "source", "name", "enable_sack", "trace",
        "cwnd", "init_cwnd", "min_cwnd", "max_cwnd", "ssthresh",
        "highest_sent", "max_seq_sent", "last_acked", "dup_acks",
        "in_recovery", "recover_seq", "_sb", "rtt", "_rtx_timer",
        "_timer_deadline", "_data_route", "_route", "_dsn_map",
        "packets_sent", "retransmissions", "loss_events", "timeouts",
        "running", "completed", "retired", "on_complete", "_sched",
        "next_dsn", "on_ack_extension",
        # Fault injection (repro.fault) wraps .receive on live instances,
        # and tests attach ad-hoc probes; keep a dict alongside the slots.
        "__dict__",
    )

    def __init__(
        self,
        sim: Simulation,
        controller: CongestionController,
        source: Any = None,
        name: str = "",
        init_cwnd: float = 2.0,
        min_cwnd: float = 1.0,
        max_cwnd: float = 1e9,
        min_rto: float = 0.2,
        enable_sack: bool = True,
        trace=None,
    ):
        self.sim = sim
        self.controller = controller
        self.source = source if source is not None else InfiniteSource()
        self.name = name
        self.enable_sack = enable_sack
        self.trace = sim.trace if trace is None else trace
        # The Timers seam (repro.sim.clock) is touched on every
        # transmit/ACK/timer operation; going through the Simulation.now
        # property costs a call per access, so cache the implementation.
        # On the sim backend this is the event scheduler itself; on the
        # real-network backend the same heap on the OS monotonic clock.
        self._sched = sim.timers

        # Window state (packets).
        self.cwnd = float(init_cwnd)
        self.init_cwnd = float(init_cwnd)
        self.min_cwnd = float(min_cwnd)
        self.max_cwnd = float(max_cwnd)
        self.ssthresh = float("inf")

        # Sequence state.
        self.highest_sent = 0          # next sequence number to send
        self.max_seq_sent = 0          # high-water mark (for go-back-N)
        self.last_acked = 0            # cumulative ACK received
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_seq = 0

        # SACK/loss/retransmit scoreboard (flat flag array; includes the
        # Karn retransmit-ambiguity marks that used to be a fourth set).
        self._sb = SackScoreboard()

        # Timing.
        self.rtt = RttEstimator(min_rto=min_rto)
        self._rtx_timer = None
        self._timer_deadline: Optional[float] = None

        # Wiring (set by attach()).
        self._data_route: Optional[Tuple] = None
        self._route: Optional[Route] = None

        # Data-sequence mapping for multipath (seq -> dsn).
        self._dsn_map: Dict[int, Optional[int]] = {}
        #: returns the next data sequence number to carry, or None when
        #: the connection has nothing we may send — MPTCP hooks this.
        self.next_dsn: Optional[Callable[[], Optional[int]]] = None
        #: called with every ACK's (data_ack, rwnd) — MPTCP hooks this.
        self.on_ack_extension: Optional[
            Callable[[Optional[int], Optional[int]], None]
        ] = None

        # Statistics.
        self.packets_sent = 0
        self.retransmissions = 0
        self.loss_events = 0
        self.timeouts = 0

        # Lifecycle.
        self.running = False
        self.completed = False
        #: Set when a path manager permanently removes this sender from its
        #: connection: late ACKs are ignored and the sender never restarts.
        self.retired = False
        self.on_complete: Optional[Callable[["TcpSender"], None]] = None

        controller.add_subflow(self)
        sim.register(self)

    # ------------------------------------------------------------------
    # Properties used by controllers
    # ------------------------------------------------------------------
    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT in seconds (None before the first sample)."""
        return self.rtt.srtt

    @property
    def base_rtt(self) -> Optional[float]:
        """Minimum RTT sampled so far — the propagation-delay estimate
        delay-based controllers (wVegas) read (None before the first
        Karn-unambiguous sample)."""
        return self.rtt.base_rtt

    @property
    def in_flight(self) -> int:
        """Sequence-range in flight (not SACK-adjusted)."""
        return self.highest_sent - self.last_acked

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    # Wiring and lifecycle
    # ------------------------------------------------------------------
    def attach(self, route: Route, receiver: TcpReceiver) -> None:
        """Bind this sender to a forward route and its receiver."""
        self._route = route
        self._data_route = route.forward_elements(receiver)
        receiver.attach(route.reverse_elements(self))

    @property
    def route(self) -> Optional[Route]:
        return self._route

    def start(self, at: Optional[float] = None) -> None:
        """Begin transmitting (now, or at absolute time ``at``)."""
        if self._data_route is None:
            raise RuntimeError(f"sender {self.name!r} not attached to a route")
        if at is None or at <= self.sim.now:
            self._begin()
        else:
            self.sim.schedule_at(at, self._begin)

    def _begin(self) -> None:
        self.running = True
        self.maybe_send()

    def stop(self) -> None:
        """Stop transmitting and cancel the retransmission timer."""
        self.running = False
        self._cancel_timer()

    # ------------------------------------------------------------------
    # Path signals (fault injection, link schedules)
    # ------------------------------------------------------------------
    def path_down(self, reason: str = "") -> None:
        """The path under this sender failed.  Plain TCP has no connection
        level to fail over to, so this just stops the sender; multipath
        subflows override to notify the connection's path manager."""
        self.stop()

    def path_up(self, reason: str = "") -> None:
        """The path under this sender recovered; resume transmission."""
        if not self.retired:
            self.start()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def effective_window(self) -> int:
        """Usable window.  Without SACK, duplicate ACKs inflate it during
        recovery (classic NewReno); with SACK the pipe rule governs."""
        window = int(self.cwnd + 1e-9)
        if self.in_recovery and not self.enable_sack:
            window += self.dup_acks
        return window

    def maybe_send(self) -> None:
        """Send as much as the window (or the SACK pipe rule) allows."""
        if not self.running:
            return
        # The window bound is loop-invariant: nothing below touches cwnd,
        # dup_acks or the recovery flags.
        window = self.effective_window()
        sack_recovery = self.in_recovery and self.enable_sack
        sb = self._sb
        next_dsn = self.next_dsn
        while True:
            seq = self.highest_sent
            if sack_recovery:
                # SACK pipe estimate: packets believed to be in the
                # network.  Retransmissions go first, then new data.
                pipe = seq - self.last_acked - sb.n_sacked - sb.n_lost + sb.n_rtx
                if pipe >= window:
                    break
                if sb.n_lost:
                    self._fast_retransmit(sb.pop_min_lost())
                    continue
            elif seq - self.last_acked >= window:
                break
            if seq < self.max_seq_sent:
                # Go-back-N territory after a timeout: resend old sequence
                # numbers with their original payload mapping, skipping any
                # the scoreboard says the receiver already holds.
                if not (self.enable_sack and sb.is_sacked(seq)):
                    self._transmit(seq, self._dsn_map.get(seq), is_retransmit=True)
            else:
                if next_dsn is None:
                    # Plain TCP consults its application source and carries
                    # no DSN, so it skips the mapping dict entirely.
                    limit = self.source.limit
                    if limit is not None and seq >= limit:
                        break
                    dsn = None
                else:
                    # Multipath: the connection hands out the next data
                    # sequence number, or refuses (transfer finished, or
                    # the shared receive buffer of §6 blocks new data).
                    dsn = next_dsn()
                    if dsn is None:
                        break
                    self._dsn_map[seq] = dsn
                self._transmit(seq, dsn, is_retransmit=False)
                self.max_seq_sent = seq + 1
            self.highest_sent = seq + 1
        # Arm the timer if idle, but do not push an existing deadline out:
        # only forward progress (a new cumulative ACK) may do that,
        # otherwise a steady stream of duplicate ACKs would forever postpone
        # the timeout that recovers a lost retransmission.
        if self.highest_sent > self.last_acked and self.running:
            if self._timer_deadline is None:
                self._timer_deadline = self._sched.now + self.rtt.rto
            if self._rtx_timer is None:
                self._rtx_timer = self._sched.schedule_at(
                    self._timer_deadline, self._on_timer_fire
                )
        else:
            self._timer_deadline = None

    def _transmit(self, seq: int, dsn: Optional[int], is_retransmit: bool) -> None:
        route = self._data_route
        packet = DataPacket(
            route, self, seq, self._sched.now, dsn, 1.0, is_retransmit
        )
        self.packets_sent += 1
        if is_retransmit:
            self.retransmissions += 1
            # Karn's algorithm: an ACK covering this sequence is ambiguous
            # until the cumulative ACK passes it.
            self._sb.mark_retx(seq)
        # packet.send() inlined (hop is 0 from construction).
        route[0].receive(packet)

    def _fast_retransmit(self, seq: int) -> None:
        """Resend one specific segment without touching highest_sent."""
        if self.trace.enabled:
            self.trace.emit(
                "tcp.fast_retransmit", self._sched.now, flow=self.name, seq=seq
            )
        self._transmit(seq, self._dsn_map.get(seq), is_retransmit=True)

    def _trace_cwnd(self, reason: str) -> None:
        """Emit a ``cc.cwnd_update`` event (callers guard on enabled)."""
        ssthresh = self.ssthresh
        self.trace.emit(
            "cc.cwnd_update",
            self._sched.now,
            flow=self.name,
            cwnd=self.cwnd,
            ssthresh=None if ssthresh == float("inf") else ssthresh,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def receive(self, ack: AckPacket) -> None:
        if not isinstance(ack, AckPacket):
            raise TypeError(f"sender got non-ACK packet {ack!r}")
        if self.retired:
            # A retired subflow no longer belongs to its connection or
            # controller; a late ACK still in flight at retirement time
            # must not feed data ACKs or window updates into state it
            # left behind.
            return
        if self.on_ack_extension is not None:
            self.on_ack_extension(ack.data_ack, ack.rwnd)
        if not ack.window_update:
            # A pure window update repeats the last ACK for its fresh
            # (data_ack, rwnd) alone: it reports no arrival, so it is
            # neither a duplicate ACK nor an RTT sample.
            blocks = ack.sack_blocks
            if blocks and self.enable_sack:
                # mark_sacked clamps to the scoreboard base (== last_acked)
                # and drops covered sequences from the lost/rtx marks — the
                # old IntervalSet add plus in-place difference updates (see
                # the property test in tests/test_properties.py).
                mark_sacked = self._sb.mark_sacked
                for start, end in blocks:
                    mark_sacked(start, end)
            ackno = ack.ack_seq
            if ackno > self.last_acked:
                self._on_new_ack(ackno, ack)
            elif ackno == self.last_acked and self.highest_sent > ackno:
                self._on_dup_ack()
            if self.in_recovery and self.enable_sack:
                self._sb.detect_losses(DUP_THRESH)
        self.maybe_send()

    def _on_new_ack(self, ackno: int, ack: AckPacket) -> None:
        newly_acked = ackno - self.last_acked
        sb = self._sb
        # Take an RTT sample unless Karn's algorithm forbids it.  A sample
        # is ambiguous when the ACK echoes a retransmitted segment's
        # timestamp, or when the cumulative ACK advance covers any sequence
        # number that was ever retransmitted: the acknowledgment could
        # belong to the original transmission or to the copy, and folding
        # the wrong round trip into SRTT corrupts the RTO (RFC 6298 §5 /
        # Karn & Partridge).  Suppressing the sample also leaves the timer
        # backoff in force until an unambiguous segment round-trips.  (The
        # pending marks themselves are consumed by the advance below.)
        if not ack.for_retransmit and not (sb.n_retx and sb.retx_below(ackno)):
            self.rtt.sample(max(1e-9, self._sched.now - ack.echo_timestamp))
        dsn_map = self._dsn_map
        if dsn_map:  # never populated on a single-path flow
            pop = dsn_map.pop
            for seq in range(self.last_acked, ackno):
                pop(seq, None)
        self.last_acked = ackno
        if ackno > self.highest_sent:
            # Can happen after a go-back-N rewind when in-flight copies of
            # old segments arrive: fast-forward the send cursor.
            self.highest_sent = ackno
        self.dup_acks = 0
        # One pass drops everything below the new cumulative ACK: SACKed
        # ranges, lost/rtx marks and consumed Karn ambiguity marks.
        sb.advance(ackno)

        if self.in_recovery:
            if ackno >= self.recover_seq:
                # Full ACK: recovery is over; deflate to ssthresh.
                self.in_recovery = False
                sb.clear_episode()
                self.cwnd = max(self.min_cwnd, min(self.cwnd, self.ssthresh))
                if self.trace.enabled:
                    self._trace_cwnd("recovery_exit")
            else:
                # Partial ACK (NewReno): the hole at the new cumulative ACK
                # point was also lost.
                if self.enable_sack:
                    if not sb.is_sacked(ackno) and not sb.is_rtx(ackno):
                        sb.mark_lost(ackno)
                else:
                    self._fast_retransmit(ackno)
        else:
            for _ in range(newly_acked):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0  # slow start
                else:
                    self.controller.on_ack(self)
                if self.cwnd >= self.max_cwnd:
                    self.cwnd = self.max_cwnd
                    break
            if self.trace.enabled:
                self._trace_cwnd("ack")

        # Re-arm the RTO from the new forward-progress point.
        if self.highest_sent > ackno and self.running:
            deadline = self._sched.now + self.rtt.rto
            self._timer_deadline = deadline
            if self._rtx_timer is None:
                self._rtx_timer = self._sched.schedule_at(
                    deadline, self._on_timer_fire
                )
        else:
            self._timer_deadline = None
        # Completion.  A subflow's source has no limit: completing is the
        # connection's business (its data cumulative ACK reaching the
        # transfer size), and the connection stops its subflows.
        limit = self.source.limit
        if limit is not None and ackno >= limit and not self.completed:
            self.completed = True
            self.running = False
            self._cancel_timer()
            if self.on_complete is not None:
                self.on_complete(self)

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        # The last_acked >= recover_seq guard is the NewReno "bugfix":
        # duplicate ACKs left over from a finished recovery episode must not
        # trigger a second window decrease for the same loss burst.
        if (
            self.dup_acks == DUP_THRESH
            and not self.in_recovery
            and self.last_acked >= self.recover_seq
        ):
            self._loss_event()

    def _loss_event(self) -> None:
        """Third duplicate ACK: one loss event (§2's 'each loss')."""
        self.loss_events += 1
        self.controller.on_loss(self)
        self.ssthresh = max(self.cwnd, self.min_cwnd)
        if self.trace.enabled:
            self._trace_cwnd("loss")
        self.recover_seq = self.highest_sent
        self.in_recovery = True
        sb = self._sb
        sb.clear_episode()
        sb.mark_rtx(self.last_acked)
        self._fast_retransmit(self.last_acked)

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    # The RTO timer is lazy: rather than cancelling and rescheduling a heap
    # event on every ACK, the sender tracks the logical deadline
    # (_timer_deadline) and the armed heap event (_rtx_timer) separately.
    # When the event fires early relative to the deadline (because progress
    # pushed the deadline out), it re-arms itself for the remainder.  The
    # (re)arm logic is inlined at its two call sites — maybe_send (which
    # never pushes an existing deadline out) and _on_new_ack (which always
    # resets it) — because it runs on every ACK.

    def _cancel_timer(self) -> None:
        self._timer_deadline = None
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _on_timer_fire(self) -> None:
        self._rtx_timer = None
        if (
            self._timer_deadline is None
            or self.highest_sent == self.last_acked
            or not self.running
        ):
            return
        if self._sched.now < self._timer_deadline - 1e-12:
            # Progress since this event was scheduled: sleep the remainder.
            self._rtx_timer = self._sched.schedule_at(
                self._timer_deadline, self._on_timer_fire
            )
            return
        self._on_timeout()

    def _on_timeout(self) -> None:
        """RTO: collapse to one packet, back off, go-back-N."""
        self.timeouts += 1
        self.rtt.back_off()
        if self.trace.enabled:
            self.trace.emit(
                "tcp.timeout",
                self._sched.now,
                flow=self.name,
                rto=self.rtt.rto,
                cwnd=self.cwnd,
            )
        # Clear the stale deadline so maybe_send() arms a fresh timer with
        # the backed-off RTO (leaving it would re-fire at the same instant).
        self._timer_deadline = None
        # ssthresh derives from the window the flow actually had when the
        # timer fired.  The controller hook may itself collapse cwnd (it
        # owns shared multi-subflow state), so snapshot first — otherwise
        # the flow is double-penalized: ssthresh = collapsed/2.
        cwnd_at_timeout = self.cwnd
        self.controller.on_timeout(self)
        self.ssthresh = max(cwnd_at_timeout / 2.0, 2.0)
        self.cwnd = self.min_cwnd
        if self.trace.enabled:
            self._trace_cwnd("timeout")
        self.in_recovery = False
        self.dup_acks = 0
        self._sb.clear_episode()
        # Go-back-N: rewind the send cursor; old sequence numbers will be
        # resent (with their original payload mapping) as the window opens,
        # skipping anything the SACK scoreboard shows as received.
        self.highest_sent = self.last_acked
        self.maybe_send()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpSender({self.name!r}, cwnd={self.cwnd:.1f}, "
            f"acked={self.last_acked}, inflight={self.in_flight})"
        )


class TcpFlow:
    """Convenience wrapper: a single-path TCP sender/receiver pair on a route.

    >>> flow = TcpFlow(sim, route, make_controller("reno"), name="f1")
    >>> flow.start()
    """

    def __init__(
        self,
        sim: Simulation,
        route: Route,
        controller: CongestionController,
        source: Any = None,
        name: str = "flow",
        enable_sack: bool = True,
        **sender_kwargs,
    ):
        self.sim = sim
        self.name = name
        self.sender = TcpSender(
            sim,
            controller,
            source=source,
            name=name,
            enable_sack=enable_sack,
            **sender_kwargs,
        )
        self.receiver = TcpReceiver(sim, name=f"{name}.rx", enable_sack=enable_sack)
        self.sender.attach(route, self.receiver)

    def start(self, at: Optional[float] = None) -> None:
        self.sender.start(at=at)

    def stop(self) -> None:
        self.sender.stop()

    @property
    def packets_delivered(self) -> int:
        return self.receiver.packets_delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpFlow({self.name!r})"
