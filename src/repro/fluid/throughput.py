"""Closed-form equilibrium windows from the paper's balance arguments.

All formulas come from §2's "rate of ACKs × average increase per ACK =
rate of drops × average decrease per drop" balance, with the paper's
small-p approximation (1 - p ≈ 1):

* REGULAR TCP:    w = sqrt(2/p)                                   (eq. 2)
* EWTCP:          w_r = sqrt(2a/p_r)
* COUPLED:        w_total = sqrt(2/p_min); only minimum-loss paths carry
                  traffic (§2.2)
* SEMICOUPLED:    w_r = sqrt(2a) · (1/p_r) / sqrt(Σ_s 1/p_s)       (§2.4)
* MPTCP:          numeric fixed point of the eq. (1) balance (no closed
                  form in general; see :func:`mptcp_equilibrium_windows`)

These are the analytic oracles the law table in
:mod:`repro.fluid.dynamics` is tested against; no product code calls
them.  Every fluid equilibrium the package reports — one flow
(:func:`repro.fluid.dynamics.equilibrium_windows`) or a whole network
(:func:`repro.fluid.network_equilibrium.solve_equilibrium`) — is a
tail-averaged trajectory of that table, for every name in
``FLUID_ALGORITHMS``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..core.alpha import mptcp_increase

__all__ = [
    "tcp_window",
    "tcp_rate",
    "ewtcp_windows",
    "coupled_windows",
    "semicoupled_windows",
    "semicoupled_weights",
    "mptcp_equilibrium_windows",
]


def _check_losses(losses: Sequence[float]) -> None:
    if not losses:
        raise ValueError("need at least one path")
    if any(not 0 < p < 1 for p in losses):
        raise ValueError(f"loss rates must be in (0, 1), got {losses!r}")


def tcp_window(p: float) -> float:
    """Regular TCP equilibrium window sqrt(2/p) (paper eq. (2) with one
    path)."""
    _check_losses([p])
    return math.sqrt(2.0 / p)


def tcp_rate(p: float, rtt: float) -> float:
    """Regular TCP throughput sqrt(2/p)/RTT in pkt/s (§2.3's
    approximation)."""
    if rtt <= 0:
        raise ValueError(f"rtt must be positive, got {rtt!r}")
    return tcp_window(p) / rtt


def ewtcp_windows(losses: Sequence[float], a: float = None) -> List[float]:
    """EWTCP equilibrium windows sqrt(2a/p_r).

    Default a = 1/n² gives each subflow a window of w_TCP/n — the scaling
    all of the paper's EWTCP claims assume (see the EWTCP-erratum note in
    DESIGN.md).
    """
    _check_losses(losses)
    n = len(losses)
    if a is None:
        a = 1.0 / (n * n)
    return [math.sqrt(2.0 * a / p) for p in losses]


def coupled_windows(
    losses: Sequence[float], tolerance: float = 1e-12
) -> List[float]:
    """COUPLED equilibrium: w_total = sqrt(2/p_min) on the minimum-loss
    paths (split evenly among ties), zero elsewhere (§2.2)."""
    _check_losses(losses)
    p_min = min(losses)
    total = math.sqrt(2.0 / p_min)
    winners = [i for i, p in enumerate(losses) if p <= p_min + tolerance]
    share = total / len(winners)
    return [share if i in winners else 0.0 for i in range(len(losses))]


def semicoupled_windows(losses: Sequence[float], a: float = 1.0) -> List[float]:
    """SEMICOUPLED equilibrium windows (§2.4):
    w_r = sqrt(2a) · (1/p_r) / sqrt(Σ_s 1/p_s)."""
    _check_losses(losses)
    if a <= 0:
        raise ValueError(f"a must be positive, got {a!r}")
    inv_sum = sum(1.0 / p for p in losses)
    return [math.sqrt(2.0 * a) * (1.0 / p) / math.sqrt(inv_sum) for p in losses]


def semicoupled_weights(losses: Sequence[float]) -> List[float]:
    """Fraction of the total window on each path under SEMICOUPLED.

    §2.4's example: losses (1 %, 1 %, 5 %) give weights (45 %, 45 %, 10 %).
    """
    windows = semicoupled_windows(losses)
    total = sum(windows)
    return [w / total for w in windows]


def mptcp_equilibrium_windows(
    losses: Sequence[float],
    rtts: Sequence[float],
    min_window: float = 1e-9,
    iterations: int = 20000,
    damping: float = 0.05,
) -> List[float]:
    """Numeric fixed point of the MPTCP balance equations.

    At equilibrium each subflow satisfies  inc_r(w) = p_r · w_r / 2  where
    inc_r is the eq. (1) increase.  We iterate a damped multiplicative
    update on each window until the balance holds.
    """
    _check_losses(losses)
    if len(losses) != len(rtts):
        raise ValueError("losses and rtts must have the same length")
    if any(r <= 0 for r in rtts):
        raise ValueError("RTTs must be positive")
    windows = [max(min_window, math.sqrt(2.0 / p)) for p in losses]
    for _ in range(iterations):
        max_error = 0.0
        for r, (p, _rtt) in enumerate(zip(losses, rtts)):
            inc = mptcp_increase(windows, rtts, r)
            dec = p * windows[r] / 2.0
            ratio = inc / dec
            windows[r] = max(min_window, windows[r] * ratio ** damping)
            max_error = max(max_error, abs(math.log(ratio)))
        if max_error < 1e-10:
            break
    return windows
