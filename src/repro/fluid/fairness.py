"""The §2.5 fairness constraints, as executable checks.

For equilibrium windows ŵ_r, RTTs and the single-path TCP equilibrium
windows ŵTCP_r = sqrt(2/p_r):

(3)  Σ_r ŵ_r/RTT_r  >=  max_r ŵTCP_r/RTT_r
     — the multipath flow does at least as well as single-path TCP on its
     best path (the incentive to deploy).

(4)  Σ_{r∈S} ŵ_r/RTT_r  <=  max_{r∈S} ŵTCP_r/RTT_r   for every S ⊆ R
     — on no collection of paths does it take more than one single-path
     TCP on the best of them (does not harm others at any bottleneck).
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Sequence, Tuple

__all__ = [
    "tcp_reference_windows",
    "satisfies_goal_3",
    "satisfies_goal_4",
]


def tcp_reference_windows(losses: Sequence[float]) -> Tuple[float, ...]:
    """ŵTCP_r = sqrt(2/p_r) for each path."""
    if any(not 0 < p < 1 for p in losses):
        raise ValueError(f"loss rates must be in (0, 1), got {losses!r}")
    return tuple(math.sqrt(2.0 / p) for p in losses)


def _rates(windows: Sequence[float], rtts: Sequence[float]):
    return [w / r for w, r in zip(windows, rtts)]


def satisfies_goal_3(
    windows: Sequence[float],
    rtts: Sequence[float],
    losses: Sequence[float],
    slack: float = 0.0,
) -> bool:
    """Constraint (3): total rate >= best single-path TCP rate.

    ``slack`` is a relative tolerance (e.g. 0.05 allows a 5 % shortfall)
    for use against noisy simulation measurements.
    """
    total = sum(_rates(windows, rtts))
    reference = max(_rates(tcp_reference_windows(losses), rtts))
    return total >= reference * (1.0 - slack)


def satisfies_goal_4(
    windows: Sequence[float],
    rtts: Sequence[float],
    losses: Sequence[float],
    slack: float = 0.0,
) -> bool:
    """Constraint (4) for every non-empty subset of paths."""
    rates = _rates(windows, rtts)
    tcp_rates = _rates(tcp_reference_windows(losses), rtts)
    indices = range(len(windows))
    subsets = chain.from_iterable(
        combinations(indices, k) for k in range(1, len(windows) + 1)
    )
    for subset in subsets:
        taken = sum(rates[i] for i in subset)
        allowed = max(tcp_rates[i] for i in subset)
        if taken > allowed * (1.0 + slack):
            return False
    return True
