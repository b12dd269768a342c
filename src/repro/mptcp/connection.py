"""The multipath TCP connection: subflows + coupled congestion control +
data-level sequencing, reassembly and flow control (§2 and §6).

:class:`MptcpConnection` is the sender side: it owns the shared
:class:`~repro.core.base.CongestionController`, assigns data sequence
numbers to subflows on demand, tracks the explicit data cumulative ACK and
the advertised receive window, and (optionally) reinjects data stranded on a
dead subflow.

:class:`MptcpReceiver` is the receiving side: one
:class:`~repro.tcp.receiver.TcpReceiver` per subflow feeds the shared
:class:`~repro.mptcp.reassembly.DataReassembler`; every subflow ACK carries
the explicit data ACK and the shared-buffer receive window (§6 shows why
both must be explicit).

:class:`MptcpFlow` wires both ends over a list of routes — the unit the
experiments work with.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.base import CongestionController
from ..net.packet import DataPacket
from ..net.route import Route
from ..sim.simulation import Simulation
from ..tcp.receiver import TcpReceiver
from .reassembly import DataReassembler, SharedReceiveBuffer
from .scheduler import DsnScheduler
from .subflow import MptcpSubflow

__all__ = ["MptcpConnection", "MptcpReceiver", "MptcpFlow"]


class MptcpConnection:
    """Sender side of one multipath connection."""

    def __init__(
        self,
        sim: Simulation,
        controller: CongestionController,
        transfer_packets: Optional[int] = None,
        name: str = "mptcp",
        enable_reinjection: bool = False,
        reinjection_timeout_threshold: int = 2,
        trace=None,
    ):
        self.sim = sim
        self.controller = controller
        self.name = name
        self.trace = sim.trace if trace is None else trace
        self.scheduler = DsnScheduler(limit=transfer_packets)
        self.subflows: List[MptcpSubflow] = []
        self.data_acked = 0              # connection-level cumulative ACK
        self.peer_rwnd: Optional[int] = None
        self.completed = False
        self.on_complete: Optional[Callable[["MptcpConnection"], None]] = None
        self.enable_reinjection = enable_reinjection
        self.reinjection_timeout_threshold = reinjection_timeout_threshold
        self._subflow_timeout_marks: dict = {}
        #: Some subflow asked :meth:`next_dsn` for data and was refused
        #: since the last kick.  ``on_data_ack`` kicks the subflows only
        #: then, because a kick of a subflow that was never refused sends
        #: nothing: (1) every sender event already ends in a ``maybe_send``
        #: that runs until the window is full or ``next_dsn`` refuses;
        #: (2) a controller writes only the ``cwnd`` of the subflow whose
        #: event it is handling, so no other subflow's ACK can open a full
        #: window; (3) timer arming in ``maybe_send`` is idempotent.
        #: Retirement and reinjection change what is sendable without a
        #: refusal and kick unconditionally.
        self._refused = False
        #: Set by :class:`repro.pathmgr.PathManager` when it attaches; the
        #: connection never imports pathmgr (the dependency points one way).
        self.path_manager = None
        sim.register(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_subflow(self, name: str = "", **sender_kwargs) -> MptcpSubflow:
        """Create a new subflow (§6 subflow establishment: additional
        subflows join the existing connection)."""
        label = name or f"{self.name}.sf{len(self.subflows)}"
        subflow = MptcpSubflow(
            self.sim, self.controller, self, name=label, **sender_kwargs
        )
        self.subflows.append(subflow)
        return subflow

    def retire_subflow(self, subflow: MptcpSubflow, reason: str = "retired") -> int:
        """Permanently remove a subflow from the connection at run time.

        The subflow is stopped and marked retired (late ACKs are dropped),
        any data it still had outstanding is queued for reinjection on the
        surviving subflows, and the shared controller forgets it — which
        also recomputes the coupled increase over the remaining set.
        Returns the number of DSNs queued for reinjection.
        """
        if subflow not in self.subflows:
            return 0
        subflow.retired = True
        subflow.stop()
        stranded = sorted(
            d
            for d in subflow._dsn_map.values()
            if d is not None and d >= self.data_acked
        )
        for dsn in stranded:
            self.scheduler.queue_reinjection(dsn)
        self.subflows.remove(subflow)
        self.controller.remove_subflow(subflow)
        self._subflow_timeout_marks.pop(subflow, None)
        if not self.completed:
            self._kick_subflows()
        return len(stranded)

    # ------------------------------------------------------------------
    # Path signals (from subflows; see MptcpSubflow.path_down/path_up)
    # ------------------------------------------------------------------
    def notice_path_down(self, subflow: MptcpSubflow, reason: str = "") -> None:
        """A subflow's underlying path failed.  With a path manager
        attached, the manager owns the reaction (retire + fail over);
        without one, the event is still made visible on the trace bus so a
        killed subflow never just silently freezes."""
        if self.path_manager is not None:
            self.path_manager.on_subflow_path_down(subflow, reason)
        elif self.trace.enabled:
            self.trace.emit(
                "pathmgr.path_down",
                self.sim.now,
                conn=self.name,
                path=subflow.name,
                cause=reason or "signal",
            )

    def notice_path_up(self, subflow: MptcpSubflow, reason: str = "") -> None:
        """The failed path under ``subflow`` recovered."""
        if self.path_manager is not None:
            self.path_manager.on_subflow_path_up(subflow, reason)
        elif self.trace.enabled:
            self.trace.emit(
                "pathmgr.path_up",
                self.sim.now,
                conn=self.name,
                path=subflow.name,
            )

    # ------------------------------------------------------------------
    # Data scheduling (called by subflows)
    # ------------------------------------------------------------------
    def next_dsn(self) -> Optional[int]:
        """Next DSN for the asking subflow, or None: transfer finished or
        connection-level flow control (the shared receive buffer, §6)
        blocks new data."""
        dsn = None
        if not self.completed:
            flow_limit = None
            if self.peer_rwnd is not None:
                # Receive window is advertised relative to the data
                # cumulative ACK (§6): fresh data must stay below
                # data_acked + rwnd.
                flow_limit = self.data_acked + self.peer_rwnd
            dsn = self.scheduler.next_dsn(flow_limit)
        if dsn is None:
            self._refused = True
        return dsn

    # ------------------------------------------------------------------
    # ACK plumbing (called by subflows)
    # ------------------------------------------------------------------
    def on_data_ack(self, data_ack: Optional[int], rwnd: Optional[int]) -> None:
        opened = False
        if rwnd is not None and rwnd != self.peer_rwnd:
            if self.peer_rwnd is None or rwnd > self.peer_rwnd:
                opened = True
            self.peer_rwnd = rwnd
        if data_ack is not None and data_ack > self.data_acked:
            self.data_acked = data_ack
            scheduler = self.scheduler
            if scheduler.pending_reinjections:
                scheduler.drop_reinjections_below(data_ack)
            if self.trace.enabled:
                self.trace.emit(
                    "mptcp.dsn_ack",
                    self.sim.now,
                    conn=self.name,
                    data_ack=data_ack,
                    rwnd=self.peer_rwnd,
                )
            opened = True
            limit = scheduler.limit
            if limit is not None and data_ack >= limit and not self.completed:
                self.completed = True
                for subflow in self.subflows:
                    subflow.stop()
                if self.on_complete is not None:
                    self.on_complete(self)
        if opened and self._refused and not self.completed:
            self._kick_subflows()

    def _kick_subflows(self) -> None:
        self._refused = False
        for subflow in self.subflows:
            if subflow.running:
                subflow.maybe_send()

    # ------------------------------------------------------------------
    # Reinjection extension
    # ------------------------------------------------------------------
    def notice_subflow_timeout(self, subflow: MptcpSubflow) -> None:
        """Called when a subflow times out repeatedly; with reinjection
        enabled, strand-ed data is requeued for the healthy subflows."""
        if not self.enable_reinjection:
            return
        marks = self._subflow_timeout_marks.get(subflow, 0) + 1
        self._subflow_timeout_marks[subflow] = marks
        if marks < self.reinjection_timeout_threshold:
            return
        self._subflow_timeout_marks[subflow] = 0
        for dsn in sorted(
            d
            for d in subflow._dsn_map.values()
            if d is not None and d >= self.data_acked
        ):
            self.scheduler.queue_reinjection(dsn)
        self._kick_subflows()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        for subflow in self.subflows:
            subflow.start(at=at)

    def stop(self) -> None:
        for subflow in self.subflows:
            subflow.stop()

    @property
    def total_cwnd(self) -> float:
        return sum(s.cwnd for s in self.subflows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MptcpConnection({self.name!r}, subflows={len(self.subflows)}, "
            f"data_acked={self.data_acked})"
        )


class MptcpReceiver:
    """Receiver side: per-subflow receivers feeding one shared reassembler.

    ``receive_buffer`` packets bound the shared pool (§6's single buffer);
    None models an unconstrained receiver.  ``app_read_rate`` (packets per
    second) simulates a slow application draining the pool; None means the
    application reads instantly.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "mptcp.rx",
        receive_buffer: Optional[int] = None,
        app_read_rate: Optional[float] = None,
        enable_sack: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.reassembler = DataReassembler()
        self.buffer = SharedReceiveBuffer(capacity=receive_buffer)
        self.buffer.bind(self.reassembler)
        self.app_read_rate = app_read_rate
        self.enable_sack = enable_sack
        self.subflow_receivers: List[TcpReceiver] = []
        self._read_timer = None
        #: The window the last ACK advertised (the sender assumes an open
        #: one until the first).
        self._advertised_rwnd = self.buffer.rwnd
        sim.register(self)

    def new_subflow_receiver(self, name: str = "") -> TcpReceiver:
        label = name or f"{self.name}.sf{len(self.subflow_receivers)}"
        receiver = TcpReceiver(self.sim, name=label, enable_sack=self.enable_sack)
        receiver.on_deliver = self._on_subflow_deliver
        receiver.ack_extension = self._ack_extension
        self.subflow_receivers.append(receiver)
        return receiver

    # ------------------------------------------------------------------
    def _on_subflow_deliver(self, packet: DataPacket) -> None:
        dsn = packet.dsn
        if dsn is None:
            raise ValueError(
                f"multipath receiver {self.name!r} got packet without DSN"
            )
        reassembler = self.reassembler
        before = reassembler.delivered
        reassembler.receive(dsn, packet)
        # Pool accounting, once per arrival.  Most arrivals release nothing
        # (a hole below them is still open); one that fills a hole releases
        # its whole run.  An application that reads instantly never leaves
        # in-order data in the pool.
        released = reassembler.delivered - before
        if released and self.app_read_rate is not None:
            self.buffer.on_in_order(released)
            self._ensure_read_timer()

    def _ensure_read_timer(self) -> None:
        if self._read_timer is None and self.buffer.unread > 0:
            self._read_timer = self.sim.schedule_in(
                1.0 / self.app_read_rate, self._app_read_tick
            )

    def _app_read_tick(self) -> None:
        self._read_timer = None
        buffer = self.buffer
        buffer.app_read(1)
        self._ensure_read_timer()
        # ACKs otherwise leave only when data arrives, so a window the
        # sender saw closed would stay closed once nothing is in flight.
        # RFC 1122 §4.2.3.3's receiver rule: advertise again when the
        # window has grown by half the pool since last advertised — on the
        # subflow whose last ACK answered the most recently sent data (the
        # one that last delivered, unless its ACK is still delayed).
        if (
            buffer.capacity is not None
            and 2 * (buffer.rwnd - self._advertised_rwnd) >= buffer.capacity
        ):
            acked = [
                r for r in self.subflow_receivers if r.acked_packet is not None
            ]
            if acked:
                freshest = max(acked, key=lambda r: r.acked_packet.timestamp)
                freshest.send_window_update()

    def _ack_extension(self) -> Tuple[Optional[int], Optional[int]]:
        rwnd = self._advertised_rwnd = self.buffer.rwnd
        return self.reassembler.data_cum_ack, rwnd

    @property
    def packets_delivered(self) -> int:
        """In-order data packets delivered to the connection level."""
        return self.reassembler.delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MptcpReceiver({self.name!r}, delivered={self.packets_delivered})"


class MptcpFlow:
    """A complete multipath connection over a set of routes.

    >>> flow = MptcpFlow(sim, routes, MptcpController(), name="m")
    >>> flow.start()
    """

    def __init__(
        self,
        sim: Simulation,
        routes: Sequence[Route],
        controller: CongestionController,
        transfer_packets: Optional[int] = None,
        name: str = "mptcp",
        receive_buffer: Optional[int] = None,
        app_read_rate: Optional[float] = None,
        enable_sack: bool = True,
        enable_reinjection: bool = False,
        **sender_kwargs: Any,
    ):
        if not routes:
            raise ValueError("a multipath flow needs at least one route")
        self.sim = sim
        self.name = name
        self.connection = MptcpConnection(
            sim,
            controller,
            transfer_packets=transfer_packets,
            name=name,
            enable_reinjection=enable_reinjection,
        )
        self.receiver = MptcpReceiver(
            sim,
            name=f"{name}.rx",
            receive_buffer=receive_buffer,
            app_read_rate=app_read_rate,
            enable_sack=enable_sack,
        )
        self.routes = list(routes)
        for i, route in enumerate(self.routes):
            subflow = self.connection.add_subflow(
                name=f"{name}.sf{i}", enable_sack=enable_sack, **sender_kwargs
            )
            subflow_receiver = self.receiver.new_subflow_receiver()
            subflow.attach(route, subflow_receiver)

    # ------------------------------------------------------------------
    @property
    def subflows(self) -> List[MptcpSubflow]:
        return self.connection.subflows

    @property
    def controller(self) -> CongestionController:
        return self.connection.controller

    @property
    def packets_delivered(self) -> int:
        return self.receiver.packets_delivered

    def subflow_delivered(self) -> List[int]:
        """In-order subflow-level deliveries, per subflow (per-path load)."""
        return [r.packets_delivered for r in self.receiver.subflow_receivers]

    def start(self, at: Optional[float] = None) -> None:
        self.connection.start(at=at)

    def stop(self) -> None:
        self.connection.stop()

    @property
    def completed(self) -> bool:
        return self.connection.completed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MptcpFlow({self.name!r}, paths={len(self.routes)})"
