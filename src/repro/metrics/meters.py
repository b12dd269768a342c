"""Windowed-rate helper.

Experiments measure goodput as in-order deliveries per second over a
measurement window (discarding warm-up): :func:`windowed_rate` averages
a counter delta over a window and raises ``ValueError`` when the window
is not positive.  Sampled series (goodput, cwnd, queue loss over time)
are :class:`repro.obs.series.SeriesRecorder`'s job.
"""

from __future__ import annotations

__all__ = ["windowed_rate"]


def windowed_rate(counter_before: int, counter_after: int, window: float) -> float:
    """Average rate of a monotonic counter over a window of seconds.

    Raises
    ------
    ValueError
        If ``window`` is zero or negative (``window <= 0``).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    return (counter_after - counter_before) / window
