"""One MPTCP subflow: a TCP sender whose payload comes from the connection.

Each subflow keeps its own sequence space, loss detection and retransmission
state (§6: "the sequence numbers and cumulative ack in the TCP header are
per-subflow, allowing efficient loss detection and fast retransmission"),
while the data it carries is assigned connection-level data sequence
numbers.  Retransmissions resend the *same* DSN on the same subflow, so the
seq→DSN mapping survives loss.

Window adaptation comes from the connection's shared
:class:`~repro.core.base.CongestionController` — this is where the coupling
between subflows happens.
"""

from __future__ import annotations

from ..tcp.sender import TcpSender

__all__ = ["MptcpSubflow"]


class MptcpSubflow(TcpSender):
    """A TCP sender bound to a parent multipath connection."""

    __slots__ = ("connection",)

    def __init__(self, sim, controller, connection, name="", **kwargs):
        super().__init__(sim, controller, source=None, name=name, **kwargs)
        self.connection = connection
        # One call per layer crossing: the sender pulls data sequence
        # numbers from, and feeds the explicit data ACK and receive window
        # to, the connection itself.
        self.next_dsn = connection.next_dsn
        self.on_ack_extension = connection.on_data_ack

    def path_down(self, reason: str = "") -> None:
        """Path failure under this subflow: stop, then tell the connection
        so an attached path manager can retire us and fail over."""
        self.stop()
        self.connection.notice_path_down(self, reason)

    def path_up(self, reason: str = "") -> None:
        """Path recovery.  Unmanaged connections simply restart the
        subflow (the historical ``subflow_kill`` revive behaviour); under a
        path manager the retired subflow stays dead and the manager opens a
        fresh subflow — which starts in slow start, as RFC 6356 requires."""
        if self.connection.path_manager is None and not self.retired:
            self.start()
        self.connection.notice_path_up(self, reason)

    def _on_timeout(self) -> None:
        super()._on_timeout()
        self.connection.notice_subflow_timeout(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MptcpSubflow({self.name!r}, cwnd={self.cwnd:.1f}, "
            f"acked={self.last_acked})"
        )
