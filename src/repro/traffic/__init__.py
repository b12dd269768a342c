"""Workload generators: long-lived flows, bursty CBR, Poisson file
transfers and the §4 data-center traffic matrices."""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "CbrSource": ".cbr",
    "OnOffCbrSource": ".cbr",
    "PacketSink": ".cbr",
    "ParetoSizes": ".poisson",
    "PoissonFlowGenerator": ".poisson",
    "one_digit_neighbors": ".matrix",
    "one_to_many_matrix": ".matrix",
    "permutation_matrix": ".matrix",
    "sparse_matrix": ".matrix",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
