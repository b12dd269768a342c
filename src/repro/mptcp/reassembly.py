"""Connection-level stream reassembly for multipath TCP (§6).

Data arrives over multiple subflows, each with its own subflow sequence
space; every data packet additionally carries a *data sequence number* (DSN)
"stating where in the application data stream the payload should be placed"
(§6, Loss Detection and Stream Reassembly).  This module reassembles the
data stream from in-order subflow deliveries and tracks the connection-level
cumulative data ACK.

The paper's flow-control analysis (§6) mandates a **single shared buffer**
for the whole connection, advertised relative to the data sequence space:
per-subflow buffers can deadlock when one subflow stalls while another's
buffer fills.  :class:`SharedReceiveBuffer` implements that shared pool: it
accounts for every out-of-order byte held plus in-order data the application
has not yet read, and computes the receive window to advertise.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

__all__ = ["DataReassembler", "SharedReceiveBuffer"]


class DataReassembler:
    """Reorders DSNs from all subflows into the application data stream."""

    def __init__(self) -> None:
        self.data_cum_ack = 0          # next DSN expected in order
        self._held: Dict[int, object] = {}  # out-of-order DSN -> payload
        self.delivered = 0             # packets handed to the application side
        self.duplicates = 0
        #: Called as ``on_data(dsn, payload)`` for each DSN as it joins the
        #: in-order stream: one call per DSN, in DSN order, made after
        #: ``data_cum_ack`` and ``delivered`` have moved past that DSN.
        self.on_data: Optional[Callable[[int, object], None]] = None

    def receive(self, dsn: int, payload: object = None) -> bool:
        """Accept one data packet.  Returns True if it advanced or buffered
        new data, False for a duplicate."""
        held = self._held
        if dsn < self.data_cum_ack or dsn in held:
            self.duplicates += 1
            return False
        if dsn != self.data_cum_ack:
            held[dsn] = payload
            return True
        # In order: release it and the run of held data it uncovers.
        on_data = self.on_data
        while True:
            self.data_cum_ack = dsn + 1
            self.delivered += 1
            if on_data is not None:
                on_data(dsn, payload)
            dsn += 1
            if dsn not in held:
                return True
            payload = held.pop(dsn)

    @property
    def buffered(self) -> int:
        """Out-of-order packets currently held (above the data cum-ACK)."""
        return len(self._held)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataReassembler(cum_ack={self.data_cum_ack}, "
            f"held={len(self._held)})"
        )


class SharedReceiveBuffer:
    """The single shared receive buffer pool of §6.

    Occupancy = out-of-order data held for reassembly + in-order data the
    application has not read yet.  The advertised window is reported
    *relative to the data cumulative ACK* ("all subflows report the receive
    window relative to the last consecutively received data in the data
    sequence space"), so the sender may have at most

        data_cum_ack + rwnd - highest_dsn_sent

    new data packets outstanding.

    ``capacity=None`` models an unconstrained receiver (used in the large
    simulations, where flow control is not the phenomenon under study).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.unread = 0                # in-order packets awaiting app read
        self._reassembler: Optional[DataReassembler] = None

    def bind(self, reassembler: DataReassembler) -> None:
        self._reassembler = reassembler

    @property
    def occupancy(self) -> int:
        held = self._reassembler.buffered if self._reassembler else 0
        return held + self.unread

    @property
    def rwnd(self) -> Optional[int]:
        """Receive window relative to the data cumulative ACK (None if
        unconstrained)."""
        if self.capacity is None:
            return None
        # Out-of-order data already occupies pool space but lies *above*
        # the cumulative ACK, inside the window we previously advertised;
        # advertising capacity - unread keeps the invariant that everything
        # the sender may send fits in the pool.
        return max(0, self.capacity - self.unread)

    def on_in_order(self, count: int = 1) -> None:
        """Record in-order data entering the pool (awaiting app read)."""
        self.unread += count

    def app_read(self, count: int = 1) -> int:
        """The application consumes up to ``count`` packets; returns how
        many were actually read."""
        taken = min(count, self.unread)
        self.unread -= taken
        return taken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedReceiveBuffer(cap={self.capacity}, unread={self.unread})"
