"""Network elements: packets, queues, pipes, routes and topologies."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "ACK_SIZE": ".packet",
    "MSS_BYTES": ".packet",
    "AckPacket": ".packet",
    "DataPacket": ".packet",
    "DropTailQueue": ".queue",
    "Link": ".network",
    "Network": ".network",
    "Packet": ".packet",
    "Pipe": ".pipe",
    "Route": ".route",
    "SequenceRandomizingFirewall": ".middlebox",
    "mbps_to_pps": ".network",
    "pps_to_mbps": ".network",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
