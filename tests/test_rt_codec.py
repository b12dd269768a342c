"""Wire-codec properties: exact round-trips, hard rejection of garbage.

The codec is the trust boundary of the real backend — every field the
TCP/MPTCP state machines read must survive packet → datagram → packet
unchanged (including the monotonic-clock timestamp doubles RTT sampling
depends on), and nothing corrupted may ever reach a state machine.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mptcp.handshake import (
    AddAddrOption,
    MpCapableOption,
    MpJoinOption,
    RemoveAddrOption,
)
from repro.net.packet import MSS_BYTES, AckPacket, DataPacket
from repro.rt.codec import MAGIC, CodecError, ctrl_kind, decode, encode

u64 = st.integers(min_value=0, max_value=2**64 - 1)
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)

data_packets = st.builds(
    DataPacket,
    st.just(()),                      # route (supplied by the host)
    st.none(),                        # flow (supplied by the host)
    u64,                              # seq
    finite,                           # timestamp (monotonic double)
    st.one_of(st.none(), u64),        # dsn
    finite,                           # size
    st.booleans(),                    # is_retransmit
)

ack_packets = st.builds(
    AckPacket,
    st.just(()),
    st.none(),
    u64,                              # ack_seq
    finite,                           # echo_timestamp
    st.one_of(st.none(), u64),        # data_ack
    st.one_of(st.none(), i64),        # rwnd
    st.booleans(),                    # for_retransmit
    st.lists(st.tuples(u64, u64), max_size=16).map(tuple),  # sack_blocks
    st.booleans(),                    # window_update
)

options = st.one_of(
    st.builds(MpCapableOption, sender_key=u64),
    st.builds(MpJoinOption, token=u64),
    st.builds(AddAddrOption, addr_id=u64),
    st.builds(RemoveAddrOption, addr_id=u64),
)


def _data_fields(p: DataPacket):
    return (p.seq, p.timestamp, p.dsn, p.size, p.is_retransmit)


def _ack_fields(p: AckPacket):
    return (p.ack_seq, p.echo_timestamp, p.data_ack, p.rwnd,
            p.for_retransmit, tuple(p.sack_blocks), p.window_update)


@given(channel=u32, packet=data_packets, pad=st.booleans())
@settings(max_examples=200)
def test_data_round_trip(channel, packet, pad):
    datagram = encode(channel, packet, pad_to=MSS_BYTES if pad else 0)
    if pad:
        assert len(datagram) == MSS_BYTES
    got_channel, got = decode(datagram)
    assert got_channel == channel
    assert isinstance(got, DataPacket)
    assert _data_fields(got) == _data_fields(packet)
    assert got.route == () and got.flow is None


@given(channel=u32, packet=ack_packets)
@settings(max_examples=200)
def test_ack_round_trip(channel, packet):
    got_channel, got = decode(encode(channel, packet))
    assert got_channel == channel
    assert isinstance(got, AckPacket)
    assert _ack_fields(got) == _ack_fields(packet)


@given(channel=u32, option=options)
@settings(max_examples=100)
def test_option_round_trip(channel, option):
    got_channel, got = decode(encode(channel, option))
    assert got_channel == channel
    assert got == option                    # frozen dataclasses: == by value
    assert ctrl_kind(got) == ctrl_kind(option)


@given(packet=data_packets, cut=st.integers(min_value=0, max_value=200))
@settings(max_examples=100)
def test_truncated_datagram_rejected(packet, cut):
    datagram = encode(7, packet)
    truncated = datagram[: min(cut, len(datagram) - 1)]
    with pytest.raises(CodecError):
        decode(truncated)


@given(packet=ack_packets, data=st.data())
@settings(max_examples=100)
def test_bit_flip_rejected(packet, data):
    datagram = bytearray(encode(9, packet))
    pos = data.draw(st.integers(min_value=0, max_value=len(datagram) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    datagram[pos] ^= 1 << bit
    # CRC32 detects any single-bit error; a flip inside the CRC field
    # itself mismatches the (unchanged) frame.
    with pytest.raises(CodecError):
        decode(bytes(datagram))


@given(blob=st.binary(max_size=64))
@settings(max_examples=100)
def test_random_bytes_rejected(blob):
    if blob[:2] == MAGIC:               # astronomically unlikely, but exact
        blob = b"\x00" + blob
    with pytest.raises(CodecError):
        decode(blob)


def _reseal(frame: bytes) -> bytes:
    """Recompute the trailing CRC so only the targeted defect remains."""
    import zlib
    return frame + struct.pack("!I", zlib.crc32(frame))


def test_bad_magic_rejected():
    body = encode(1, MpJoinOption(token=5))[:-4]
    with pytest.raises(CodecError, match="magic"):
        decode(_reseal(b"XX" + body[2:]))


def test_bad_version_rejected():
    body = bytearray(encode(1, MpJoinOption(token=5))[:-4])
    body[2] = 99
    with pytest.raises(CodecError, match="version"):
        decode(_reseal(bytes(body)))


def test_unknown_frame_type_rejected():
    body = bytearray(encode(1, MpJoinOption(token=5))[:-4])
    body[3] = 77
    with pytest.raises(CodecError, match="type"):
        decode(_reseal(bytes(body)))


def test_nonzero_padding_rejected():
    # Zero padding round-trips; flip one padding byte (CRC resealed).
    frame = bytearray(encode(1, DataPacket((), None, 3, 1.5), pad_to=200)[:-4])
    assert frame[-1] == 0
    frame[-1] = 1
    with pytest.raises(CodecError, match="padding"):
        decode(_reseal(bytes(frame)))


def test_too_many_sack_blocks_rejected():
    ack = AckPacket((), None, 1, 0.0,
                    sack_blocks=tuple((i, i + 1) for i in range(256)))
    with pytest.raises(CodecError, match="SACK"):
        encode(1, ack)
