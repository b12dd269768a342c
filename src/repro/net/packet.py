"""Packets and the forwarding convention.

A packet carries its route (a flat tuple of network elements ending at the
destination endpoint) and a ``hop`` cursor.  Each element, once done with the
packet, advances the cursor and hands the packet to the next element.  This
keeps forwarding allocation-free and avoids any routing lookups on the hot
path.

Windows and sequence numbers are expressed in packets, as in the paper
("we express windows in this paper in packets"); ``size`` is the packet's
transmission size in MSS units so that a full-sized data packet has
``size == 1.0`` and an ACK has a token size of ``ACK_SIZE``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = ["Packet", "DataPacket", "AckPacket", "MSS_BYTES", "ACK_SIZE"]

#: Maximum segment size assumed when converting between Mb/s and pkt/s.
MSS_BYTES = 1500

#: Transmission size of an ACK, as a fraction of an MSS.  ACKs travel on
#: delay-only reverse paths by default, so this only matters if a scenario
#: routes ACKs through queues.
ACK_SIZE = 0.04  # ~60 bytes


class Packet:
    """Base packet: routing state shared by data packets and ACKs."""

    __slots__ = ("route", "hop", "size", "flow")

    def __init__(self, route: Sequence[Any], size: float, flow: Any):
        self.route = route
        self.hop = 0
        self.size = size
        self.flow = flow

    def send(self) -> None:
        """Inject the packet at the first element of its route."""
        self.hop = 0
        self.route[0].receive(self)

    def forward(self) -> None:
        """Advance to the next element on the route."""
        self.hop += 1
        self.route[self.hop].receive(self)

    @property
    def at_last_hop(self) -> bool:
        return self.hop >= len(self.route) - 1


class DataPacket(Packet):
    """A data segment belonging to one (sub)flow.

    ``seq`` is the subflow-level sequence number (in packets, counting from
    0).  ``dsn`` is the connection-level data sequence number for multipath
    connections (None for plain single-path TCP).  ``timestamp`` is the send
    time, echoed back in the ACK for RTT estimation.
    """

    __slots__ = ("seq", "dsn", "timestamp", "is_retransmit")

    def __init__(
        self,
        route: Sequence[Any],
        flow: Any,
        seq: int,
        timestamp: float,
        dsn: Optional[int] = None,
        size: float = 1.0,
        is_retransmit: bool = False,
    ):
        # Base __init__ flattened in: one DataPacket per transmission
        # makes construction itself a hot path.
        self.route = route
        self.hop = 0
        self.size = size
        self.flow = flow
        self.seq = seq
        self.dsn = dsn
        self.timestamp = timestamp
        self.is_retransmit = is_retransmit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataPacket(seq={self.seq}, dsn={self.dsn}, hop={self.hop})"


class AckPacket(Packet):
    """A (subflow) acknowledgment.

    ``ack_seq`` is the cumulative subflow-level ACK: the next subflow
    sequence number expected.  ``data_ack`` is the explicit connection-level
    cumulative data acknowledgment (§6 of the paper argues it must be
    explicit), and ``rwnd`` the receive window advertised relative to it.
    ``echo_timestamp`` echoes the timestamp of the data packet that triggered
    this ACK.  ``window_update`` marks a pure window update: the last ACK
    repeated for its fresh ``data_ack``/``rwnd`` alone, which the sender
    must take neither for a duplicate ACK nor for an RTT sample.
    """

    __slots__ = (
        "ack_seq",
        "echo_timestamp",
        "data_ack",
        "rwnd",
        "for_retransmit",
        "sack_blocks",
        "window_update",
    )

    def __init__(
        self,
        route: Sequence[Any],
        flow: Any,
        ack_seq: int,
        echo_timestamp: float,
        data_ack: Optional[int] = None,
        rwnd: Optional[int] = None,
        for_retransmit: bool = False,
        sack_blocks: tuple = (),
        window_update: bool = False,
    ):
        # Base __init__ flattened in, as for DataPacket: one AckPacket
        # per (delayed) ACK.
        self.route = route
        self.hop = 0
        self.size = ACK_SIZE
        self.flow = flow
        self.ack_seq = ack_seq
        self.echo_timestamp = echo_timestamp
        self.data_ack = data_ack
        self.rwnd = rwnd
        self.for_retransmit = for_retransmit
        self.sack_blocks = sack_blocks
        self.window_update = window_update

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AckPacket(ack_seq={self.ack_seq}, data_ack={self.data_ack})"
