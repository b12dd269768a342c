"""MPTCP: the paper's final coupled congestion control algorithm (§2).

ALGORITHM: MPTCP
    * Each ACK on subflow r, increase w_r by

          min over S ⊆ R with r ∈ S of
              max_{s∈S}(w_s/RTT_s²) / (Σ_{s∈S} w_s/RTT_s)²

    * Each loss on subflow r, decrease w_r by w_r/2.

Taking S = {r} shows the increase never exceeds 1/w_r (regular TCP), which
enforces fairness constraint (4); the appendix proves the full rule meets
both fairness goals of §2.5.  The min over subsets is computed with the
appendix's linear search (:func:`repro.core.alpha.mptcp_increase`).

Like the authors' implementation ("we compute the increase parameter only
when the congestion windows grow to accommodate one more packet"), the
increase can be cached and recomputed once per window's worth of ACKs
(``recompute='per_window'``); the default recomputes on every ACK, which is
affordable at simulation scale and slightly more faithful to eq. (1).

:class:`LinkedIncreasesController` is the RFC 6356 formulation — increase
min(a/w_total, 1/w_r) with the cached aggressiveness parameter ``a`` of
eq. (5) — provided as the deployed variant of the same design.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .alpha import AlphaCache, mptcp_increase, mptcp_increases
from .base import CongestionController, WindowedSubflow

__all__ = ["MptcpController", "LinkedIncreasesController"]

#: RTT assumed for a subflow before its first RTT sample.  Subflows without
#: a sample are still in initial slow start, so this value only matters for
#: the first few congestion-avoidance increases.
_DEFAULT_RTT = 0.1


class MptcpController(CongestionController):
    """The paper's MPTCP rule, eq. (1)."""

    name = "mptcp"

    def __init__(self, recompute: str = "per_ack"):
        super().__init__()
        if recompute not in ("per_ack", "per_window"):
            raise ValueError(f"unknown recompute policy {recompute!r}")
        self.recompute = recompute
        self._cached: Dict[int, float] = {}
        self._acks_since_recompute = 0

    # ------------------------------------------------------------------
    def _windows_and_rtts(self) -> Tuple[List[float], List[float]]:
        windows = [s.cwnd for s in self.subflows]
        rtts = [s.srtt if s.srtt else _DEFAULT_RTT for s in self.subflows]
        return windows, rtts

    def increase_for(self, subflow: WindowedSubflow) -> float:
        """The eq. (1) per-ACK increase for ``subflow`` at current state."""
        index = self.subflows.index(subflow)
        windows, rtts = self._windows_and_rtts()
        return mptcp_increase(windows, rtts, index)

    # ------------------------------------------------------------------
    def on_ack(self, subflow: WindowedSubflow) -> None:
        if self.recompute == "per_ack":
            subflows = self.subflows
            if len(subflows) == 2:
                # The common two-path case, with the generic machinery of
                # increase_for/mptcp_increases unrolled into the same float
                # operations (x0 + x1 commutes, so sort order does not
                # matter to the sum): bit-identical, and the golden suite
                # holds it to that.
                s0, s1 = subflows
                w0 = s0.cwnd
                w1 = s1.cwnd
                r0 = s0.srtt or _DEFAULT_RTT
                r1 = s1.srtt or _DEFAULT_RTT
                v0 = w0 / (r0 * r0)
                v1 = w1 / (r1 * r1)
                x0 = w0 / r0
                x1 = w1 / r1
                total = x0 + x1
                # S = both subflows; whichever sorts first by w/RTT²
                # (ties: s0) may also stand alone, S = {r}.
                best = (v1 if v0 <= v1 else v0) / (total * total)
                if subflow is s0:
                    if v0 <= v1 and v0 / (x0 * x0) < best:
                        best = v0 / (x0 * x0)
                elif v1 < v0 and v1 / (x1 * x1) < best:
                    best = v1 / (x1 * x1)
                subflow.cwnd += best
                return
            subflow.cwnd += self.increase_for(subflow)
            return
        # per_window: refresh all cached increases once per total window of
        # ACKs, mirroring the authors' implementation note.
        self._acks_since_recompute += 1
        key = id(subflow)
        if key not in self._cached or (
            self._acks_since_recompute >= self.total_window
        ):
            increases = mptcp_increases(*self._windows_and_rtts())
            self._cached = dict(zip(map(id, self.subflows), increases))
            self._acks_since_recompute = 0
        # The cached value may be a window (or a slow start) stale; eq.
        # (1)'s S = {r} term, 1/w_r, caps it at the *current* window, as
        # RFC 6356 caps its cached alpha.
        subflow.cwnd += min(self._cached[key], 1.0 / subflow.cwnd)

    def on_loss(self, subflow: WindowedSubflow) -> None:
        self._halve(subflow)
        self._cached.clear()

    def on_subflow_set_change(self) -> None:
        # Cached per-subflow increases were computed over the old set; a
        # removed subflow's window must not survive in them (and an added
        # subflow has no entry, so a fresh compute is due anyway).
        self._cached.clear()
        self._acks_since_recompute = 0


class LinkedIncreasesController(CongestionController):
    """RFC 6356 "Linked Increases" (LIA): eq. (5) with a cached alpha.

    Increase per ACK: min(a/w_total, 1/w_r), with
    a = w_total · max(w_r/RTT_r²) / (Σ w_r/RTT_r)², recomputed once per
    window's worth of ACKs (as RFC 6356 suggests) or per ACK.
    """

    name = "lia"

    def __init__(self, recompute: str = "per_window"):
        super().__init__()
        if recompute not in ("per_ack", "per_window"):
            raise ValueError(f"unknown recompute policy {recompute!r}")
        self.recompute = recompute
        self._cache = AlphaCache()

    @property
    def alpha(self) -> float:
        """Current (possibly cached) aggressiveness parameter."""
        return self._cache.alpha

    def on_ack(self, subflow: WindowedSubflow) -> None:
        windows = [s.cwnd for s in self.subflows]
        rtts = [s.srtt if s.srtt else _DEFAULT_RTT for s in self.subflows]
        alpha = self._cache.get(
            windows, rtts, per_ack=(self.recompute == "per_ack")
        )
        total = sum(windows)
        subflow.cwnd += min(alpha / total, 1.0 / subflow.cwnd)

    def on_loss(self, subflow: WindowedSubflow) -> None:
        self._halve(subflow)
        self._cache.invalidate()

    def on_subflow_set_change(self) -> None:
        # The AlphaCache recomputes on a size change by itself; explicit
        # invalidation additionally covers a same-size swap of subflows.
        self._cache.invalidate()
