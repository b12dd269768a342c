"""Single-path TCP endpoints (NewReno-style loss recovery)."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "FiniteSource": ".source",
    "InfiniteSource": ".source",
    "RttEstimator": ".rtt",
    "TcpFlow": ".sender",
    "TcpReceiver": ".receiver",
    "TcpSender": ".sender",
    "bytes_to_packets": ".source",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
