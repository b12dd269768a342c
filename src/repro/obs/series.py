"""Per-flow / per-queue time-series recording.

:class:`SeriesRecorder` samples an arbitrary set of named probes on one
shared clock: gauges (cwnd, smoothed RTT, queue depth — sampled values)
and rates (goodput — the delta of a monotonic counter divided by the
sampling interval).  All probes are
sampled at the same instants, so rows line up into a table that exports
directly to CSV or JSONL — the raw material for every per-flow figure in
the paper (e.g. the Fig. 2-style cwnd traces).

Warm-up handling: samples taken at or before ``warmup`` are discarded
(rate probes still re-baseline on them), matching the measurement
methodology used throughout the evaluation.

Typical use::

    rec = SeriesRecorder(sim, interval=0.5, warmup=20.0)
    rec.add_probe("cwnd.sf0", cwnd_probe(flow.subflows[0]))
    rec.add_rate_probe("goodput", lambda: flow.packets_delivered)
    rec.start()
    sim.run_until(80.0)
    rec.to_csv("series.csv")

The convenience factories :func:`cwnd_probe`, :func:`rtt_probe` and
:func:`queue_depth_probe` build gauge callables for the common simulator
objects without coupling this module to their classes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "SeriesRecorder",
    "cwnd_probe",
    "rtt_probe",
    "queue_depth_probe",
]

Probe = Callable[[], Optional[float]]


def cwnd_probe(sender) -> Probe:
    """Gauge probe: a (sub)flow sender's congestion window in packets."""
    return lambda: sender.cwnd


def rtt_probe(sender) -> Probe:
    """Gauge probe: smoothed RTT estimate in seconds (None before the
    first sample)."""
    return lambda: sender.srtt


def queue_depth_probe(queue) -> Probe:
    """Gauge probe: queue occupancy in packets."""
    return lambda: queue.occupancy


class SeriesRecorder:
    """Samples named probes periodically and records aligned columns.

    Storage is columnar: one shared time list plus one pre-bound value
    list per probe, appended to directly at each tick.  A million-sample
    recording (the hybrid tier's natural scale) therefore costs a few
    flat lists, not a dict per row; the dict-shaped ``rows`` view is
    materialised on demand for compatibility and export only.

    Parameters
    ----------
    sim:
        Owning simulation (provides the clock and the scheduler).
    interval:
        Sampling period in simulated seconds.
    warmup:
        Samples at ``t <= warmup`` are discarded; rate probes still
        consume them to re-baseline their counters.

    Recorded times are ``sim.elapsed`` — seconds since
    ``sim.time_origin`` — and ``warmup`` is compared on that axis, so a
    run on the real-network backend (whose clock is raw ``loop.time()``
    monotonic seconds, an arbitrary large origin) produces the same
    0-based time axis as a sim run and the two series align
    sample-for-sample.  On virtual time the origin is 0.0 and
    ``elapsed`` is ``now`` bit-for-bit.
    """

    def __init__(self, sim, interval: float = 1.0, warmup: float = 0.0):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup!r}")
        self.sim = sim
        self.interval = float(interval)
        self.warmup = float(warmup)
        self._gauges: Dict[str, Probe] = {}
        self._rates: Dict[str, Callable[[], int]] = {}
        self._rate_last: Dict[str, float] = {}
        self._order: List[str] = []        # column order = registration order
        self._times: List[float] = []
        self._columns: Dict[str, List[Optional[float]]] = {}
        # (column, probe) pairs bound at registration: _tick appends to
        # the column lists directly, never building a per-row dict.
        self._gauge_samplers: List[Tuple[List, Probe]] = []
        self._rate_samplers: List[Tuple[List, Callable[[], int], str]] = []
        self._running = False

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def add_probe(self, name: str, probe: Probe) -> None:
        """Register a gauge: ``probe()`` is called at each tick and its
        return value recorded as-is (None allowed for 'no data yet')."""
        column = self._bind_column(name)
        self._gauges[name] = probe
        self._gauge_samplers.append((column, probe))

    def add_rate_probe(self, name: str, counter: Callable[[], int]) -> None:
        """Register a rate: ``counter()`` must be monotonic; each tick
        records ``(counter - previous) / interval`` (per second)."""
        column = self._bind_column(name)
        self._rates[name] = counter
        self._rate_samplers.append((column, counter, name))
        if self._running:
            self._rate_last[name] = counter()

    def _bind_column(self, name: str) -> List[Optional[float]]:
        if name in self._gauges or name in self._rates:
            raise ValueError(f"duplicate probe name {name!r}")
        # A probe registered mid-run starts with None back-fill so all
        # columns stay aligned with the shared time axis.
        column: List[Optional[float]] = [None] * len(self._times)
        self._order.append(name)
        self._columns[name] = column
        return column

    @property
    def probe_names(self) -> List[str]:
        return list(self._order)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Baseline rate counters and begin periodic sampling."""
        if self._running:
            return
        self._running = True
        for name, counter in self._rates.items():
            self._rate_last[name] = counter()
        self.sim.schedule_in(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.elapsed
        if now > self.warmup:
            self._times.append(now)
            for column, probe in self._gauge_samplers:
                column.append(probe())
            rate_last = self._rate_last
            for column, counter, name in self._rate_samplers:
                value = counter()
                column.append((value - rate_last[name]) / self.interval)
                rate_last[name] = value
        else:
            # Warm-up tick: discard samples but re-baseline the counters.
            rate_last = self._rate_last
            for _, counter, name in self._rate_samplers:
                rate_last[name] = counter()
        self.sim.schedule_in(self.interval, self._tick)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def rows(self) -> List[Tuple[float, Dict[str, Optional[float]]]]:
        """Row-oriented view ``[(t, {probe: value})]`` (materialised on
        demand; the storage itself is columnar)."""
        columns = [self._columns[name] for name in self._order]
        return [
            (t, dict(zip(self._order, values)))
            for t, values in zip(self._times, zip(*columns))
        ] if columns else [(t, {}) for t in self._times]

    def series(self, name: str) -> Tuple[List[float], List[Optional[float]]]:
        """(times, values) for one probe, post-warm-up samples only."""
        if name not in self._columns:
            raise KeyError(name)
        return list(self._times), list(self._columns[name])

    def mean(self, name: str) -> float:
        """Average of a probe's non-None samples."""
        _, values = self.series(name)
        chosen = [v for v in values if v is not None]
        if not chosen:
            raise ValueError(f"no samples for probe {name!r}")
        return sum(chosen) / len(chosen)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, target) -> None:
        """Write ``t`` plus one column per probe as CSV (path or file)."""
        self._write(target, self._csv_lines())

    def to_jsonl(self, target) -> None:
        """Write one ``{"t": ..., "<probe>": ...}`` object per row."""
        import json

        columns = [self._columns[name] for name in self._order]
        self._write(
            target,
            (
                json.dumps({"t": t, **dict(zip(self._order, values))})
                for t, values in zip(self._times, zip(*columns))
            ) if columns else (
                json.dumps({"t": t}) for t in self._times
            ),
        )

    def _csv_lines(self):
        yield ",".join(["t"] + self._order)
        columns = [self._columns[name] for name in self._order]
        for i, t in enumerate(self._times):
            cells = [f"{t:.6f}"]
            for column in columns:
                value = column[i]
                cells.append("" if value is None else repr(value))
            yield ",".join(cells)

    @staticmethod
    def _write(target, lines) -> None:
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "w", encoding="utf-8") as fh:
                for line in lines:
                    fh.write(line)
                    fh.write("\n")
        else:
            for line in lines:
                target.write(line)
                target.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SeriesRecorder({len(self._order)} probes, "
            f"{len(self._times)} rows, interval={self.interval})"
        )
