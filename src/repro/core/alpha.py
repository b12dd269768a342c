"""Window-increase computations for the MPTCP algorithm.

The MPTCP rule (§2, eq. (1)) increases the window of subflow r, per ACK, by

    min over S ⊆ R with r ∈ S of
        max_{s∈S} (w_s / RTT_s²)  /  ( Σ_{s∈S} w_s / RTT_s )²

The appendix shows that with subflows ordered by w/RTT² the minimising subset
is always a prefix-by-value set, so the minimum can be found with a linear
scan after sorting (``mptcp_increases``, all subflows from one sort;
``mptcp_increase`` is one entry of it).  ``mptcp_increase_bruteforce``
enumerates all subsets and exists to cross-check the linear search in tests.

``rfc6356_alpha`` computes the aggressiveness parameter of the equivalent
RFC 6356 ("Linked Increases") formulation, eq. (5) of the paper:

    a = w_total · max_r(w_r/RTT_r²) / (Σ_r w_r/RTT_r)²

with per-ACK increase min(a/w_total, 1/w_r).
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

__all__ = [
    "mptcp_increase",
    "mptcp_increases",
    "mptcp_increase_bruteforce",
    "rfc6356_alpha",
    "rfc6356_increase",
    "AlphaCache",
]


def _validate(windows: Sequence[float], rtts: Sequence[float], index: int) -> None:
    if len(windows) != len(rtts):
        raise ValueError("windows and rtts must have the same length")
    if not windows:
        raise ValueError("need at least one subflow")
    if not 0 <= index < len(windows):
        raise ValueError(f"subflow index {index} out of range")
    if any(w <= 0 for w in windows):
        raise ValueError("windows must be positive")
    if any(r <= 0 for r in rtts):
        raise ValueError("RTTs must be positive")


def mptcp_increases(windows: Sequence[float], rtts: Sequence[float]) -> List[float]:
    """Per-ACK window increase of *every* subflow (eq. (1)), via the
    appendix's linear search.

    Sort subflows by w/RTT² ascending.  For a candidate maximum element u,
    the best subset S is *every* subflow whose w/RTT² does not exceed u's
    (adding such subflows grows the denominator without changing the max),
    so each rank has one candidate, from a prefix sum; a subflow may use
    the candidates at or after its own rank, hence the suffix minimum.
    """
    _validate(windows, rtts, 0)
    n = len(windows)
    if n == 1:
        return [1.0 / windows[0]]

    order = sorted(range(n), key=lambda i: windows[i] / (rtts[i] * rtts[i]))
    increases = [0.0] * n
    prefix_rate = 0.0  # running Σ w/RTT over the sorted prefix
    for i in order:
        prefix_rate += windows[i] / rtts[i]
        increases[i] = (
            (windows[i] / (rtts[i] * rtts[i])) / (prefix_rate * prefix_rate)
        )
    best = float("inf")
    for i in reversed(order):  # candidates -> suffix minima, in place
        if increases[i] < best:
            best = increases[i]
        increases[i] = best
    return increases


def mptcp_increase(
    windows: Sequence[float], rtts: Sequence[float], index: int
) -> float:
    """Per-ACK window increase for subflow ``index`` (eq. (1)): one entry
    of :func:`mptcp_increases`."""
    increases = mptcp_increases(windows, rtts)
    if not 0 <= index < len(increases):
        raise ValueError(f"subflow index {index} out of range")
    return increases[index]


def mptcp_increase_bruteforce(
    windows: Sequence[float], rtts: Sequence[float], index: int
) -> float:
    """Eq. (1) by explicit enumeration of every subset containing ``index``.

    Exponential in the number of subflows; used only to validate
    :func:`mptcp_increase` in the test suite.
    """
    _validate(windows, rtts, index)
    n = len(windows)
    others = [i for i in range(n) if i != index]
    best = float("inf")
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            subset = (index,) + extra
            numerator = max(windows[i] / (rtts[i] * rtts[i]) for i in subset)
            denominator = sum(windows[i] / rtts[i] for i in subset)
            best = min(best, numerator / (denominator * denominator))
    return best


def rfc6356_alpha(windows: Sequence[float], rtts: Sequence[float]) -> float:
    """The aggressiveness parameter ``a`` of eq. (5) / RFC 6356."""
    _validate(windows, rtts, 0)
    total = sum(windows)
    numerator = max(w / (r * r) for w, r in zip(windows, rtts))
    denominator = sum(w / r for w, r in zip(windows, rtts))
    return total * numerator / (denominator * denominator)


class AlphaCache:
    """Cached RFC 6356 aggressiveness parameter with set-change awareness.

    RFC 6356 permits recomputing ``a`` only once per window of ACKs, which
    is how the authors' implementation (and ours) amortises the cost.  The
    refresh is driven by the ACK path, so the cache must additionally be
    dropped the moment the *subflow set* changes: a subflow that was just
    removed sends no more ACKs, and its window would otherwise linger in
    the max/sum terms of eq. (5) until a refresh that never comes.  The
    cache therefore tracks the subflow count it was computed over and
    treats any size change as a forced recompute; controllers also call
    :meth:`invalidate` from their set-change hook so that even a same-size
    replacement (one subflow swapped for another) recomputes.

    >>> cache = AlphaCache()
    >>> cache.get([10.0, 10.0], [0.1, 0.1])   # computes: 1/n for equal paths
    0.5
    >>> cache.get([10.0], [0.1])              # set shrank: recomputes
    1.0
    """

    def __init__(self) -> None:
        self._alpha = 1.0
        self._valid = False
        self._subflows = 0
        self._acks = 0

    @property
    def alpha(self) -> float:
        """The most recently computed value (1.0 before the first get)."""
        return self._alpha

    def invalidate(self) -> None:
        """Force the next :meth:`get` to recompute (loss, set change)."""
        self._valid = False

    def get(
        self,
        windows: Sequence[float],
        rtts: Sequence[float],
        per_ack: bool = False,
    ) -> float:
        """Alpha for the current subflow set, recomputed when stale.

        Counts one ACK per call; recomputes when invalidated, when a
        window's worth of ACKs has accumulated, when ``per_ack`` is set,
        or when ``windows`` has a different length than the set the cached
        value was computed over.
        """
        self._acks += 1
        if (
            per_ack
            or not self._valid
            or len(windows) != self._subflows
            or self._acks >= sum(windows)
        ):
            self._alpha = rfc6356_alpha(windows, rtts)
            self._valid = True
            self._subflows = len(windows)
            self._acks = 0
        return self._alpha


def rfc6356_increase(
    windows: Sequence[float],
    rtts: Sequence[float],
    index: int,
    alpha: float = None,
) -> float:
    """Per-ACK increase min(a/w_total, 1/w_r) of the §2.5 algorithm.

    ``alpha`` may be passed in when cached (recomputed once per window, as
    in the authors' implementation); otherwise it is computed fresh.
    """
    _validate(windows, rtts, index)
    if alpha is None:
        alpha = rfc6356_alpha(windows, rtts)
    total = sum(windows)
    return min(alpha / total, 1.0 / windows[index])
