"""TCP receiver: cumulative acknowledgment, SACK and in-order delivery.

The receiver reassembles the subflow byte stream (sequence numbers in
packets), generates one cumulative ACK per arriving data packet (no delayed
ACKs, as in the paper's simulator) and echoes the data packet's timestamp so
the sender can take RTT samples.  ACKs carry up to ``MAX_SACK_BLOCKS``
selective-acknowledgment ranges describing out-of-order data, as the Linux
stacks in the paper's testbed do; the block for the segment that just
arrived always comes first (RFC 2018 style), and remaining slots rotate
through the other held ranges so the whole scoreboard is eventually
advertised even under ACK loss.

For multipath connections the receiver also stamps each ACK with the
connection-level *data acknowledgment* and receive window via the
``ack_extension`` hook — §6 of the paper argues these must be explicit
fields, carried on every subflow ACK.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..net.packet import AckPacket, DataPacket
from ..sim.simulation import Simulation
from .intervals import IntervalSet

__all__ = ["TcpReceiver", "MAX_SACK_BLOCKS"]

#: Maximum SACK ranges carried per ACK (RFC 2018 allows 3-4).
MAX_SACK_BLOCKS = 3


class TcpReceiver:
    """Reassembles one subflow and emits cumulative (+ selective) ACKs.

    ACKs are delayed RFC 1122-style by default: every second in-order
    segment is acknowledged immediately, a lone segment after
    ``delack_timeout``; anything out of order (or filling a hole) is
    acknowledged at once so fast retransmit still sees prompt duplicate
    ACKs.  Beyond realism (the paper's Linux testbed delays ACKs), this
    makes senders transmit in small bursts, which keeps drop-tail losses
    proportional to arrival rates rather than to window-growth rates.

    Like the sender's RTO, the delayed-ACK timer is lazy: the logical
    deadline (``_delack_deadline``) is tracked separately from the armed
    heap event, which re-arms itself when it fires early and does nothing
    when it fires with no ACK pending — emission times are identical to
    the cancel-and-reschedule pattern, without the per-packet heap churn.
    """

    __slots__ = (
        "sim", "name", "enable_sack", "trace", "delayed_ack",
        "delack_timeout", "_unacked_count", "_delack_timer",
        "_delack_deadline", "_pending_packet", "expected", "_out_of_order",
        "_sack_set", "_sack_rotate", "packets_received", "packets_delivered",
        "duplicates", "_ack_route", "on_deliver", "ack_extension", "_sched",
        "acked_packet",
        # Tests and fault hooks may wrap methods on live instances.
        "__dict__",
    )

    def __init__(
        self,
        sim: Simulation,
        name: str = "",
        enable_sack: bool = True,
        delayed_ack: int = 2,
        delack_timeout: float = 0.040,
        trace=None,
    ):
        self.sim = sim
        self.name = name
        self.enable_sack = enable_sack
        self.trace = sim.trace if trace is None else trace
        # Timers seam (repro.sim.clock): the sim scheduler or the real
        # backend's monotonic-clock heap, whichever this sim carries.
        self._sched = sim.timers
        if delayed_ack < 1:
            raise ValueError(f"delayed_ack must be >= 1, got {delayed_ack!r}")
        self.delayed_ack = delayed_ack
        self.delack_timeout = delack_timeout
        self._unacked_count = 0
        self._delack_timer = None
        self._delack_deadline: Optional[float] = None
        self._pending_packet: Optional[DataPacket] = None
        self.expected = 0              # next in-order subflow sequence number
        self._out_of_order: Dict[int, DataPacket] = {}
        self._sack_set = IntervalSet()
        self._sack_rotate = 0
        self.packets_received = 0      # all data arrivals (incl. duplicates)
        self.packets_delivered = 0     # delivered in order
        self.duplicates = 0
        self._ack_route: Optional[Tuple] = None
        #: the data packet the most recent ACK answered (None before it).
        self.acked_packet: Optional[DataPacket] = None
        #: in-order delivery callback (packet) — MPTCP reassembly hooks this.
        self.on_deliver: Optional[Callable[[DataPacket], None]] = None
        #: returns (data_ack, rwnd) stamped on every ACK — MPTCP hooks this.
        self.ack_extension: Optional[
            Callable[[], Tuple[Optional[int], Optional[int]]]
        ] = None

    def attach(self, ack_route: Tuple) -> None:
        """Set the route ACKs travel on (reverse pipe + sender endpoint)."""
        self._ack_route = ack_route

    # ------------------------------------------------------------------
    def receive(self, packet: DataPacket) -> None:
        if not isinstance(packet, DataPacket):
            raise TypeError(f"receiver got non-data packet {packet!r}")
        self.packets_received += 1
        seq = packet.seq
        if seq == self.expected and not self._out_of_order:
            # Fast path: plain in-order arrival with nothing buffered.
            # The SACK set only ever holds buffered ranges, so it is empty
            # here and the drain/discard below would be no-ops.
            # _deliver inlined:
            self.expected = seq + 1
            self.packets_delivered += 1
            if self.trace.enabled:
                self.trace.emit(
                    "pkt.deliver",
                    self.sim.now,
                    flow=getattr(packet.flow, "name", self.name),
                    seq=seq,
                    dsn=packet.dsn,
                )
            if self.on_deliver is not None:
                self.on_deliver(packet)
            if self.delayed_ack > 1:
                # Delay the ACK up to ``delayed_ack`` segments.
                count = self._unacked_count + 1
                if count >= self.delayed_ack:
                    self._unacked_count = 0
                    self._pending_packet = None
                    self._delack_deadline = None
                    self._send_ack(packet)
                else:
                    self._unacked_count = count
                    self._pending_packet = packet
                    if count == 1:
                        # First pending segment starts the clock.
                        self._delack_deadline = (
                            self._sched.now + self.delack_timeout
                        )
                        if self._delack_timer is None:
                            self._delack_timer = self._sched.schedule_at(
                                self._delack_deadline, self._on_delack_timeout
                            )
                return
            self._send_ack(packet)
            return
        # Anything unusual — duplicate, hole, hole filled — is
        # acknowledged immediately.
        if seq < self.expected or seq in self._out_of_order:
            self.duplicates += 1
        elif seq == self.expected:
            self._deliver(packet)
            self._drain()
            self._sack_set.discard_below(self.expected)
        else:
            self._out_of_order[seq] = packet
            self._sack_set.add(seq)
        self._clear_delack()
        self._send_ack(packet)

    def _emit_pending_ack(self) -> None:
        packet = self._pending_packet
        self._clear_delack()
        self._send_ack(packet)

    def send_window_update(self) -> None:
        """Advertise ``ack_extension`` afresh although nothing arrived (an
        application read reopened the MPTCP receive window).  A pending
        delayed ACK is released early and carries it; otherwise the last
        ACK is repeated, marked ``window_update``."""
        if self._pending_packet is not None:
            self._emit_pending_ack()
        elif self.acked_packet is not None:
            self._send_ack(self.acked_packet, window_update=True)

    def _clear_delack(self) -> None:
        # The armed heap event, if any, is left to fire as a no-op (or
        # re-arm towards a newer deadline) instead of being cancelled.
        self._unacked_count = 0
        self._pending_packet = None
        self._delack_deadline = None

    def _on_delack_timeout(self) -> None:
        self._delack_timer = None
        deadline = self._delack_deadline
        if self._pending_packet is None or deadline is None:
            return
        if self._sched.now < deadline - 1e-12:
            # A newer pending segment pushed the deadline out.
            self._delack_timer = self._sched.schedule_at(
                deadline, self._on_delack_timeout
            )
            return
        self._emit_pending_ack()

    def _deliver(self, packet: DataPacket) -> None:
        self.expected = packet.seq + 1
        self.packets_delivered += 1
        if self.trace.enabled:
            self.trace.emit(
                "pkt.deliver",
                self.sim.now,
                flow=getattr(packet.flow, "name", self.name),
                seq=packet.seq,
                dsn=packet.dsn,
            )
        if self.on_deliver is not None:
            self.on_deliver(packet)

    def _drain(self) -> None:
        while self.expected in self._out_of_order:
            self._deliver(self._out_of_order.pop(self.expected))

    # ------------------------------------------------------------------
    def _sack_blocks_for(self, seq: int) -> tuple:
        """Up to MAX_SACK_BLOCKS ranges; the one holding ``seq`` first."""
        if not self.enable_sack or not self._sack_set:
            return ()
        blocks = []
        try:
            blocks.append(self._sack_set.interval_containing(seq))
        except KeyError:
            pass  # the packet advanced the cumulative ACK instead
        others = [b for b in self._sack_set.intervals() if b not in blocks]
        if others:
            # Rotate so all ranges get advertised across successive ACKs.
            self._sack_rotate = (self._sack_rotate + 1) % len(others)
            rotated = others[self._sack_rotate:] + others[: self._sack_rotate]
            blocks.extend(rotated[: MAX_SACK_BLOCKS - len(blocks)])
        return tuple(blocks)

    def _send_ack(self, data_packet: DataPacket, window_update: bool = False) -> None:
        route = self._ack_route
        if route is None:
            raise RuntimeError(f"receiver {self.name!r} has no ACK route")
        self.acked_packet = data_packet
        data_ack, rwnd = (None, None)
        if self.ack_extension is not None:
            data_ack, rwnd = self.ack_extension()
        ack = AckPacket(
            route,
            data_packet.flow,
            self.expected,
            data_packet.timestamp,
            data_ack,
            rwnd,
            data_packet.is_retransmit,
            # _sack_blocks_for's empty cases hoisted: the common in-order
            # ACK carries no blocks and should not pay the call.  (The SACK
            # set holds exactly the buffered ranges; the dict's truth is a
            # C-level test, the set's a Python call.)
            self._sack_blocks_for(data_packet.seq)
            if self.enable_sack and self._out_of_order
            else (),
            window_update,
        )
        # ack.send() inlined (hop is 0 from construction).
        route[0].receive(ack)

    # ------------------------------------------------------------------
    @property
    def reorder_buffer_size(self) -> int:
        return len(self._out_of_order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpReceiver({self.name!r}, expected={self.expected}, "
            f"ooo={len(self._out_of_order)})"
        )
