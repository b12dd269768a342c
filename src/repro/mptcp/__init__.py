"""Multipath TCP connection layer: subflows, data sequencing, reassembly,
explicit data ACKs and shared-buffer flow control (§6 of the paper)."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "DataReassembler": ".reassembly",
    "DsnScheduler": ".scheduler",
    "HandshakeResult": ".handshake",
    "MpCapableOption": ".handshake",
    "MpJoinOption": ".handshake",
    "MptcpEndpoint": ".handshake",
    "MptcpConnection": ".connection",
    "MptcpFlow": ".connection",
    "MptcpReceiver": ".connection",
    "MptcpSubflow": ".subflow",
    "OptionStrippingMiddlebox": ".handshake",
    "ReceiveWindowTrace": ".flow_control",
    "SharedReceiveBuffer": ".reassembly",
    "connect": ".handshake",
    "data_ack_deadlock_possible": ".flow_control",
    "join_subflow": ".handshake",
    "run_inferred_ack_scenario": ".flow_control",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
