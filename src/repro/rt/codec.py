"""Wire codec: packets and MPTCP options ⇄ UDP datagrams.

The real-network backend (:mod:`repro.rt`) carries the *same*
:class:`~repro.net.packet.DataPacket` / :class:`~repro.net.packet.AckPacket`
objects the simulator forwards, so the codec must round-trip every field
the state machines read: subflow sequence number, DSN, the echoed
timestamp (a raw monotonic-clock double — encoded as an IEEE double, so
the round trip is exact), SACK blocks, the explicit data ACK and receive
window (§6 of the paper requires both on every subflow ACK), and the
retransmit flags Karn's algorithm depends on.  MPTCP signalling options
(MP_CAPABLE / MP_JOIN / ADD_ADDR / REMOVE_ADDR, from
:mod:`repro.mptcp.handshake`) travel as CTRL frames.

Frame layout (network byte order)::

    magic   2B  0xA6 0x52
    version 1B  1
    ptype   1B  1=DATA 2=ACK 3=CTRL
    channel 4B  wire channel id (one per subflow attach)
    body        per-type, self-describing (below)
    padding     zero bytes (DATA frames are padded to MSS_BYTES so the
                datagram really occupies a full segment on the wire)
    crc32   4B  over everything before it

DATA body:  flags(1B: bit0 retransmit, bit1 has-dsn)  seq(8B)
            timestamp(8B double)  size(8B double)  [dsn(8B)]
ACK  body:  flags(1B: bit0 for-retransmit, bit1 has-data-ack,
            bit2 has-rwnd, bit3 window-update)  ack_seq(8B)
            echo_timestamp(8B double)
            [data_ack(8B)]  [rwnd(8B signed)]  n_sack(1B)
            n_sack × (start(8B) end(8B))
CTRL body:  subtype(1B: 1..4)  value(8B: key / token / addr_id)

:func:`decode` rejects (raises :class:`CodecError`) anything truncated,
with a bad magic/version/type, a checksum mismatch, or non-zero padding
— a corrupted datagram must never reach a state machine.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Tuple, Union

from ..mptcp.handshake import (
    AddAddrOption,
    MpCapableOption,
    MpJoinOption,
    RemoveAddrOption,
)
from ..net.packet import MSS_BYTES, AckPacket, DataPacket

__all__ = ["CodecError", "encode", "decode", "MAX_DATAGRAM"]

MAGIC = b"\xa6\x52"
VERSION = 1

_DATA, _ACK, _CTRL = 1, 2, 3

_HEADER = struct.Struct("!2sBBI")
_DATA_FIXED = struct.Struct("!BQdd")
_U64 = struct.Struct("!Q")
_ACK_FIXED = struct.Struct("!BQd")
_I64 = struct.Struct("!q")
_SACK = struct.Struct("!QQ")
_CTRL_BODY = struct.Struct("!BQ")
_CRC = struct.Struct("!I")

#: Largest datagram the codec will emit (an ACK with full SACK blocks is
#: far smaller; DATA frames are padded up to one MSS).
MAX_DATAGRAM = MSS_BYTES

#: option class <-> CTRL subtype
_CTRL_SUBTYPES = {
    MpCapableOption: 1,
    MpJoinOption: 2,
    AddAddrOption: 3,
    RemoveAddrOption: 4,
}
_CTRL_KINDS = {1: "mp_capable", 2: "mp_join", 3: "add_addr", 4: "remove_addr"}

WirePayload = Union[
    DataPacket, AckPacket,
    MpCapableOption, MpJoinOption, AddAddrOption, RemoveAddrOption,
]


class CodecError(ValueError):
    """A datagram that must not reach the state machines."""


def _ctrl_value(option) -> int:
    if isinstance(option, MpCapableOption):
        return option.sender_key
    if isinstance(option, MpJoinOption):
        return option.token
    return option.addr_id


def encode(channel: int, payload: WirePayload, pad_to: int = 0) -> bytes:
    """Serialize one packet or handshake option into a datagram.

    ``channel`` identifies the subflow attach the frame belongs to (the
    receiving host dispatches on it).  ``pad_to`` grows the datagram with
    zero bytes (before the trailing CRC) up to the given total size, so
    data frames occupy a realistic share of the wire.
    """
    if isinstance(payload, DataPacket):
        flags = (1 if payload.is_retransmit else 0)
        dsn = payload.dsn
        if dsn is not None:
            flags |= 2
        body = _DATA_FIXED.pack(
            flags, payload.seq, payload.timestamp, payload.size
        )
        if dsn is not None:
            body += _U64.pack(dsn)
        ptype = _DATA
    elif isinstance(payload, AckPacket):
        flags = (1 if payload.for_retransmit else 0)
        data_ack, rwnd = payload.data_ack, payload.rwnd
        if data_ack is not None:
            flags |= 2
        if rwnd is not None:
            flags |= 4
        if payload.window_update:
            flags |= 8
        body = _ACK_FIXED.pack(flags, payload.ack_seq, payload.echo_timestamp)
        if data_ack is not None:
            body += _U64.pack(data_ack)
        if rwnd is not None:
            body += _I64.pack(rwnd)
        blocks = payload.sack_blocks
        if len(blocks) > 255:
            raise CodecError(f"too many SACK blocks ({len(blocks)})")
        body += bytes([len(blocks)])
        for start, end in blocks:
            body += _SACK.pack(start, end)
        ptype = _ACK
    else:
        subtype = _CTRL_SUBTYPES.get(type(payload))
        if subtype is None:
            raise CodecError(f"cannot encode {type(payload).__name__}")
        body = _CTRL_BODY.pack(subtype, _ctrl_value(payload))
        ptype = _CTRL
    frame = _HEADER.pack(MAGIC, VERSION, ptype, channel) + body
    if pad_to > len(frame) + _CRC.size:
        frame += bytes(pad_to - len(frame) - _CRC.size)
    return frame + _CRC.pack(zlib.crc32(frame))


def decode(datagram: bytes) -> Tuple[int, WirePayload]:
    """Parse one datagram back into ``(channel, payload)``.

    Decoded packets carry an empty route and no flow binding (the
    receiving host supplies both); every other field round-trips exactly.
    Raises :class:`CodecError` on anything malformed.
    """
    if len(datagram) < _HEADER.size + _CRC.size:
        raise CodecError(f"truncated ({len(datagram)} bytes)")
    end = len(datagram) - _CRC.size
    (crc,) = _CRC.unpack_from(datagram, end)
    frame = memoryview(datagram)[:end]  # bounds the body reads; no copy
    if zlib.crc32(frame) != crc:
        raise CodecError("checksum mismatch")
    magic, version, ptype, channel = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unknown version {version}")
    off = _HEADER.size
    try:
        if ptype == _DATA:
            flags, seq, timestamp, size = _DATA_FIXED.unpack_from(frame, off)
            off += _DATA_FIXED.size
            dsn = None
            if flags & 2:
                (dsn,) = _U64.unpack_from(frame, off)
                off += _U64.size
            payload: WirePayload = DataPacket(
                (), None, seq, timestamp, dsn, size, bool(flags & 1)
            )
        elif ptype == _ACK:
            flags, ack_seq, echo = _ACK_FIXED.unpack_from(frame, off)
            off += _ACK_FIXED.size
            data_ack = rwnd = None
            if flags & 2:
                (data_ack,) = _U64.unpack_from(frame, off)
                off += _U64.size
            if flags & 4:
                (rwnd,) = _I64.unpack_from(frame, off)
                off += _I64.size
            if off >= end:  # datagram[off] would read the CRC
                raise IndexError("index out of range")
            n_sack = datagram[off]
            off += 1
            blocks = []
            for _ in range(n_sack):
                blocks.append(_SACK.unpack_from(frame, off))
                off += _SACK.size
            payload = AckPacket(
                (), None, ack_seq, echo, data_ack, rwnd,
                bool(flags & 1), tuple(blocks), bool(flags & 8),
            )
        elif ptype == _CTRL:
            subtype, value = _CTRL_BODY.unpack_from(frame, off)
            off += _CTRL_BODY.size
            if subtype == 1:
                payload = MpCapableOption(sender_key=value)
            elif subtype == 2:
                payload = MpJoinOption(token=value)
            elif subtype == 3:
                payload = AddAddrOption(addr_id=value)
            elif subtype == 4:
                payload = RemoveAddrOption(addr_id=value)
            else:
                raise CodecError(f"unknown ctrl subtype {subtype}")
        else:
            raise CodecError(f"unknown frame type {ptype}")
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated body: {exc}") from None
    if datagram.count(0, off, end) != end - off:
        raise CodecError("non-zero padding")
    return channel, payload


def ctrl_kind(option) -> str:
    """Trace-facing name for a handshake option ('mp_join', ...)."""
    return _CTRL_KINDS[_CTRL_SUBTYPES[type(option)]]
