"""Real UDP paths: sockets, wire channels and the route adapter.

An :class:`RtPath` is the real-backend analogue of a sim path (queue +
pipe): a pair of loopback UDP sockets — client side sends data, server
side sends ACKs — with a per-direction :class:`~repro.rt.netem.NetemChannel`
in front of each socket.  :class:`RtRoute` mirrors the
:class:`~repro.net.route.Route` API (``forward_elements`` /
``reverse_elements`` / ``name``), so ``TcpSender.attach`` and the whole
path-manager stack bind to it without knowing it ends in a socket.

Each ``attach`` opens a fresh **wire channel** (an integer stamped into
every datagram): the receiving host dispatches decoded frames by channel
id, so datagrams still in flight when a subflow is retired and reopened
on the same path reach the *old* subflow's receiver — the same semantics
as sim packets that carry their original route tuple.  One UDP socket
pair per path, one channel per subflow: ISSUE's "one UDP socket per
subflow" holds for the single-subflow-per-path scenarios the paper runs,
and reopened subflows (handover) multiplex cleanly.

MPTCP handshake options travel as CTRL frames via :meth:`RtPath.send_option`
(the decision logic itself stays in :mod:`repro.mptcp.handshake`, which
is synchronous — see docs/REALNET.md for the caveat); the server side
records them in :attr:`RtPath.options_received` and traces ``rt.ctrl``.

Like the sim's :class:`~repro.topology.wireless.WirelessPath`, an
``RtPath`` is a registered component with ``set_rate_mbps`` and
``carries(route)``, so a scenario's ``rate`` events (:mod:`repro.fault`)
and ``WirelessHandover`` drive it unmodified, by path name.
"""

from __future__ import annotations

import selectors
import socket
from typing import Any, Dict, List, Optional, Tuple

from ..net.packet import MSS_BYTES, AckPacket, DataPacket
from .codec import CodecError, ctrl_kind, decode, encode
from .netem import NetemChannel, NetemProfile, PROFILES
from .loop import RtSimulation

__all__ = ["RtPath", "RtRoute"]


class _FlowRef:
    """Lightweight ``packet.flow`` stand-in: decoded packets carry only
    the flow's name (all the receive path reads from ``flow``)."""

    __slots__ = ("name",)

    def __init__(self, name: Optional[str] = None):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_FlowRef({self.name!r})"


class _Wire:
    """One route element: encodes and launches packets into one netem
    direction.  This is the ``Wire`` protocol's socket implementation —
    ``route[0].receive(packet)`` in the sender lands here."""

    __slots__ = ("_path", "_channel_id", "_ack")

    def __init__(self, path: "RtPath", channel_id: int, ack: bool):
        self._path = path
        self._channel_id = channel_id
        self._ack = ack

    def receive(self, packet) -> None:
        if self._ack:
            self._path._send_ack(self._channel_id, packet)
        else:
            self._path._send_data(self._channel_id, packet)


class _Channel:
    """One subflow attach: endpoint bindings for a wire channel id."""

    __slots__ = ("id", "receiver", "sender", "flow_ref",
                 "data_wire", "ack_wire")

    def __init__(self, path: "RtPath", channel_id: int):
        self.id = channel_id
        self.receiver: Any = None     # server side: gets DataPackets
        self.sender: Any = None       # client side: gets AckPackets
        self.flow_ref = _FlowRef()
        self.data_wire = _Wire(path, channel_id, ack=False)
        self.ack_wire = _Wire(path, channel_id, ack=True)


#: Datagrams one readiness callback reads at most before returning to
#: the run loop, so a busy socket cannot starve due timers.
_RECV_BATCH = 32


class _Host:
    """One UDP socket: send directly, read arriving datagrams."""

    def __init__(self, path: "RtPath", side: str, host: str):
        self._path = path
        self._side = side
        #: The largest possible UDP payload: nothing is ever truncated.
        self._buf = memoryview(bytearray(65535))
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        self.sock.bind((host, 0))
        path.sim.selector.register(self.sock, selectors.EVENT_READ, self.read)

    def read(self) -> None:
        buf, recv_into = self._buf, self.sock.recv_into
        for _ in range(_RECV_BATCH):
            try:
                size = recv_into(buf)
            except BlockingIOError:
                return
            except OSError:  # pragma: no cover - OS-dependent
                self._path.socket_errors += 1
                return
            self._path._dispatch(self._side, bytes(buf[:size]))

    def send(self, datagram: bytes) -> None:
        # Emulated in-flight datagrams landing on a torn-down path just
        # vanish, like packets on an unplugged wire.
        if self._path._teardown:
            return
        try:
            self.sock.send(datagram)
        except OSError:
            # A send the kernel refuses (BlockingIOError on a full socket
            # buffer, ENOBUFS) is a counted drop, like a full NIC ring.
            self._path.socket_errors += 1


class RtPath:
    """One emulated network path over a real loopback UDP socket pair."""

    def __init__(
        self,
        sim: RtSimulation,
        name: str,
        profile: Optional[NetemProfile] = None,
        reverse: Optional[NetemProfile] = None,
        host: str = "127.0.0.1",
        pad_data: bool = True,
    ):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if profile is None:
            profile = PROFILES["clean"]
        if reverse is None:
            reverse = profile.reverse()
        self.sim = sim
        self.name = name
        self.profile = profile
        #: Pad DATA frames to a full MSS so datagrams occupy realistic
        #: space on the wire (loopback MTU is ~64 KiB, so always safe).
        self._pad = MSS_BYTES if pad_data else 0
        self.fwd = NetemChannel(sim, name, "fwd", profile)
        self.rev = NetemChannel(sim, name, "rev", reverse)
        self._channels: Dict[int, _Channel] = {}
        self._next_channel = 1
        self.codec_errors = 0
        self.socket_errors = 0
        self.unknown_channels = 0
        self._teardown = False
        #: Handshake options decoded at the server side, in arrival order.
        self.options_received: List[Any] = []

        self._client = _Host(self, "client", host)
        self._server = _Host(self, "server", host)
        sim.add_cleanup(self.close)
        # Connected to each other: the kernel filters datagrams from any
        # other address before they can reach the codec.
        self._client.sock.connect(self._server.sock.getsockname())
        self._server.sock.connect(self._client.sock.getsockname())
        sim.register(self)

    # ------------------------------------------------------------------
    # Route factory and WirelessPath duck-typing
    # ------------------------------------------------------------------
    def route(self, name: str = "") -> "RtRoute":
        """A fresh route over this path (flows sharing the path share
        the netem channels, as they share the physical medium)."""
        return RtRoute(self, name=name or self.name)

    def set_rate_mbps(self, mbps: float) -> None:
        """Change the forward (data) line rate — the hook a ``rate``
        event drives, as on a sim ``WirelessPath``."""
        self.fwd.set_rate_mbps(mbps)

    def carries(self, route) -> bool:
        """Does ``route`` run over this path?"""
        return getattr(route, "path", None) is self

    @property
    def rtt_floor(self) -> float:
        """Emulated propagation RTT (socket latency excluded)."""
        return self.fwd.delay + self.rev.delay

    # ------------------------------------------------------------------
    # Channel lifecycle (called by RtRoute)
    # ------------------------------------------------------------------
    def _open_channel(self) -> _Channel:
        channel = _Channel(self, self._next_channel)
        self._next_channel += 1
        self._channels[channel.id] = channel
        return channel

    def _bind_trace(self, channel: _Channel) -> None:
        if self.sim.trace.enabled:
            self.sim.trace.emit(
                "rt.channel_open",
                self.sim.now,
                path=self.name,
                channel=channel.id,
                flow=channel.flow_ref.name,
            )

    # ------------------------------------------------------------------
    # Transmit side (called by _Wire.receive; netem calls _Host.send)
    # ------------------------------------------------------------------
    def _send_data(self, channel_id: int, packet: DataPacket) -> None:
        datagram = encode(channel_id, packet, pad_to=self._pad)
        self.fwd.admit(
            datagram, packet.size, self._client.send,
            flow=getattr(packet.flow, "name", None), seq=packet.seq,
        )

    def _send_ack(self, channel_id: int, ack: AckPacket) -> None:
        datagram = encode(channel_id, ack)
        self.rev.admit(
            datagram, ack.size, self._server.send,
            flow=getattr(ack.flow, "name", None), seq=ack.ack_seq,
        )

    def send_option(self, option, channel_id: int = 0) -> None:
        """Carry one MPTCP handshake option to the server as a CTRL
        frame (through the forward impairments, like a SYN would)."""
        datagram = encode(channel_id, option)
        self.fwd.admit(datagram, 0.04, self._client.send)

    # ------------------------------------------------------------------
    # Receive side (called by _Host.read)
    # ------------------------------------------------------------------
    def _dispatch(self, side: str, datagram: bytes) -> None:
        try:
            channel_id, payload = decode(datagram)
        except CodecError as exc:
            self.codec_errors += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit(
                    "rt.codec_error",
                    self.sim.now,
                    path=self.name,
                    reason=str(exc),
                )
            return
        if isinstance(payload, DataPacket):
            channel = self._channels.get(channel_id)
            if channel is None or channel.receiver is None:
                self.unknown_channels += 1
                return
            payload.flow = channel.flow_ref
            channel.receiver.receive(payload)
        elif isinstance(payload, AckPacket):
            channel = self._channels.get(channel_id)
            if channel is None or channel.sender is None:
                self.unknown_channels += 1
                return
            payload.flow = channel.flow_ref
            channel.sender.receive(payload)
        else:  # handshake option (CTRL frame)
            self.options_received.append(payload)
            if self.sim.trace.enabled:
                kind = ctrl_kind(payload)
                self.sim.trace.emit(
                    "rt.ctrl",
                    self.sim.now,
                    path=self.name,
                    kind=kind,
                    token=getattr(payload, "token",
                                  getattr(payload, "sender_key", None)),
                    addr_id=getattr(payload, "addr_id", None),
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._teardown:
            return
        self._teardown = True
        for end in (self._client, self._server):
            self.sim.selector.unregister(end.sock)
            end.sock.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RtPath({self.name!r}, channels={len(self._channels)}, "
            f"fwd_sent={self.fwd.sent}, fwd_dropped={self.fwd.dropped})"
        )


class RtRoute:
    """Route-shaped adapter over an :class:`RtPath`.

    Mirrors the :class:`~repro.net.route.Route` call discipline used by
    ``TcpSender.attach``: ``forward_elements(receiver)`` first (opens a
    wire channel, binds the receiver), then ``reverse_elements(sender)``
    (binds the sender to the same channel).  Each attach — including a
    reopened subflow after handover — gets a fresh channel, so late
    datagrams from a retired subflow never reach its successor.
    """

    def __init__(self, path: RtPath, name: str = ""):
        self.path = path
        self.name = name or path.name
        self._pending: Optional[_Channel] = None
        path.sim.register(self)

    def forward_elements(self, receiver) -> Tuple:
        channel = self.path._open_channel()
        channel.receiver = receiver
        self._pending = channel
        return (channel.data_wire,)

    def reverse_elements(self, sender) -> Tuple:
        channel = self._pending
        if channel is None:
            raise RuntimeError(
                f"route {self.name!r}: reverse_elements before "
                "forward_elements (sender must attach data side first)"
            )
        self._pending = None
        channel.sender = sender
        channel.flow_ref.name = getattr(sender, "name", None) or self.name
        self.path._bind_trace(channel)
        return (channel.ack_wire,)

    @property
    def rtt_floor(self) -> float:
        return self.path.rtt_floor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RtRoute({self.name!r} over {self.path.name!r})"
