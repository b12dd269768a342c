"""Sim vs. real divergence harness.

The real backend's whole claim is that the *same state machines* under
the *same emulated impairments* behave like the simulation.  This module
measures that claim instead of asserting it: :func:`divergence_report`
runs one ``rt_loopback`` spec on both backends, aligns the two
:class:`~repro.obs.series.SeriesRecorder` outputs sample-for-sample
(both axes are 0-based scenario time — the recorder samples
``sim.elapsed``), and reports per-metric relative error:

    ``rel_err = |rt − sim| / max(|sim|, eps)``

Compared metrics:

* ``goodput_pps`` — mean of the aligned per-interval goodput series
  (falls back to the row's window-average when a run is too short for
  series samples);
* ``cwnd_mean`` — mean of the aligned total-cwnd series;
* ``delivered_bytes`` — final delivered bytes over the measurement
  window, from the result rows.

Each comparison is emitted as an ``rt.divergence`` trace event and
collected into a :class:`DivergenceReport`;
:meth:`DivergenceReport.assert_within` is the pytest gate.  Default
tolerances are intentionally loose (see docs/REALNET.md for why sim and
real runs legitimately differ: wall-clock jitter, scheduler latency,
independent loss-draw sequences) and scale globally through the
``REPRO_RT_TOLERANCE_SCALE`` environment variable so CI can relax the
gate on noisy shared runners without code changes.  ``cwnd_mean`` is
reported but not gated by default — window dynamics are the noisiest
statistic at the short durations the loopback harness runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..exp.spec import ScenarioSpec
from .scenarios import _loopback_run

__all__ = [
    "DEFAULT_TOLERANCES",
    "DivergenceReport",
    "MetricDivergence",
    "divergence_report",
    "tolerance_scale",
]

#: Relative-error gates applied by :meth:`DivergenceReport.assert_within`
#: when the caller passes none.  Multiplied by :func:`tolerance_scale`.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "goodput_pps": 0.35,
    "delivered_bytes": 0.35,
}

_EPS = 1e-9


def tolerance_scale() -> float:
    """Global tolerance multiplier from ``REPRO_RT_TOLERANCE_SCALE``
    (default 1.0; CI sets it >1 on shared runners)."""
    return float(os.environ.get("REPRO_RT_TOLERANCE_SCALE", "1.0"))


@dataclass(frozen=True)
class MetricDivergence:
    """One metric compared across backends."""

    metric: str
    sim_value: float
    rt_value: float
    rel_err: float

    def __str__(self) -> str:
        return (
            f"{self.metric}: sim={self.sim_value:.4g} "
            f"rt={self.rt_value:.4g} rel_err={self.rel_err:.3f}"
        )


@dataclass(frozen=True)
class DivergenceReport:
    """All metric comparisons for one spec run on both backends."""

    scenario: str
    metrics: Dict[str, MetricDivergence]
    aligned_samples: int
    sim_row: Dict[str, float]
    rt_row: Dict[str, float]

    def rel_err(self, metric: str) -> float:
        return self.metrics[metric].rel_err

    def violations(
        self,
        tolerances: Optional[Mapping[str, float]] = None,
        scale: Optional[float] = None,
    ) -> Dict[str, Tuple[float, float]]:
        """``{metric: (rel_err, effective_tolerance)}`` for every gated
        metric whose relative error exceeds its (scaled) tolerance."""
        if tolerances is None:
            tolerances = DEFAULT_TOLERANCES
        if scale is None:
            scale = tolerance_scale()
        out: Dict[str, Tuple[float, float]] = {}
        for metric, tol in tolerances.items():
            if metric not in self.metrics:
                continue
            limit = tol * scale
            err = self.metrics[metric].rel_err
            if err > limit:
                out[metric] = (err, limit)
        return out

    def assert_within(
        self,
        tolerances: Optional[Mapping[str, float]] = None,
        scale: Optional[float] = None,
    ) -> None:
        """Raise ``AssertionError`` naming every out-of-tolerance metric
        (the pytest divergence gate)."""
        bad = self.violations(tolerances, scale)
        if bad:
            detail = "; ".join(
                f"{m}: rel_err={err:.3f} > tol={limit:.3f} "
                f"({self.metrics[m]})"
                for m, (err, limit) in sorted(bad.items())
            )
            raise AssertionError(
                f"sim/rt divergence out of tolerance for "
                f"{self.scenario!r}: {detail}"
            )

    def __str__(self) -> str:
        lines = [f"divergence[{self.scenario}] "
                 f"(aligned_samples={self.aligned_samples})"]
        lines += [f"  {self.metrics[m]}" for m in sorted(self.metrics)]
        return "\n".join(lines)


def _rel_err(sim_value: float, rt_value: float) -> float:
    return abs(rt_value - sim_value) / max(abs(sim_value), _EPS)


def _aligned_mean(
    sim_values: Iterable[Optional[float]],
    rt_values: Iterable[Optional[float]],
) -> Optional[Tuple[float, float, int]]:
    """Means over index-aligned samples where both sides have a value
    (both series share the interval and a 0-based axis, so index i is
    the same scenario-time bin on both backends)."""
    pairs = [
        (s, r)
        for s, r in zip(sim_values, rt_values)
        if s is not None and r is not None
    ]
    if not pairs:
        return None
    n = len(pairs)
    return (
        sum(s for s, _ in pairs) / n,
        sum(r for _, r in pairs) / n,
        n,
    )


def divergence_report(
    spec: ScenarioSpec, trace=None
) -> DivergenceReport:
    """Run ``spec`` through the shared loopback scenario on both
    backends and compare.  ``trace`` (a :class:`~repro.obs.trace.TraceBus`)
    receives one ``rt.divergence`` event per metric; event timestamps are
    ``time.monotonic()`` (the harness itself runs outside either
    backend's clock)."""
    base = dict(spec.params)
    base.pop("backend", None)
    sim_row, sim_rec = _loopback_run(
        replace(spec, params=dict(base, backend="sim")), "sim"
    )
    rt_row, rt_rec = _loopback_run(
        replace(spec, params=dict(base, backend="rt")), "rt"
    )

    metrics: Dict[str, MetricDivergence] = {}
    aligned_samples = 0

    goodput = _aligned_mean(
        sim_rec.series("goodput")[1], rt_rec.series("goodput")[1]
    )
    if goodput is not None:
        sim_g, rt_g, aligned_samples = goodput
    else:  # run shorter than one sampling interval: use window averages
        sim_g, rt_g = sim_row["goodput_pps"], rt_row["goodput_pps"]
    metrics["goodput_pps"] = MetricDivergence(
        "goodput_pps", sim_g, rt_g, _rel_err(sim_g, rt_g)
    )

    cwnd = _aligned_mean(
        sim_rec.series("cwnd")[1], rt_rec.series("cwnd")[1]
    )
    if cwnd is None:
        sim_c, rt_c = sim_row["cwnd_mean"], rt_row["cwnd_mean"]
    else:
        sim_c, rt_c, _ = cwnd
    metrics["cwnd_mean"] = MetricDivergence(
        "cwnd_mean", sim_c, rt_c, _rel_err(sim_c, rt_c)
    )

    sim_b = float(sim_row["delivered_bytes"])
    rt_b = float(rt_row["delivered_bytes"])
    metrics["delivered_bytes"] = MetricDivergence(
        "delivered_bytes", sim_b, rt_b, _rel_err(sim_b, rt_b)
    )

    report = DivergenceReport(
        scenario=spec.scenario,
        metrics=metrics,
        aligned_samples=aligned_samples,
        sim_row=sim_row,
        rt_row=rt_row,
    )
    if trace is not None and trace.enabled:
        scale = tolerance_scale()
        for name in sorted(metrics):
            div = metrics[name]
            tol = DEFAULT_TOLERANCES.get(name)
            trace.emit(
                "rt.divergence",
                time.monotonic(),
                scenario=spec.scenario,
                metric=div.metric,
                sim=div.sim_value,
                rt=div.rt_value,
                rel_err=div.rel_err,
                tolerance=None if tol is None else tol * scale,
            )
    return report
