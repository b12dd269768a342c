"""The workload child process: set-up, the timed section, the checks.

One child runs one workload, so each has its own imports and its own
``ru_maxrss``.  Untraced, it runs the workload's unit kinds round-robin
until ``--seconds`` is spent and reports the end-to-end metrics.  Traced,
it runs the workload's fixed slice twice — once plain, once under the
profiler, spans and the simulation probe — then the direct drives, and
reports the per-layer metrics; the fixed slice is what makes call counts
and work counts repeat exactly for a fixed seed.
"""

from __future__ import annotations

import gc
import heapq
import json
import pathlib
import resource
import time
from typing import Dict, List

from . import catalog, drives, workloads
from .trace import NULL_TRACER, SimProbe, Tracer
from .workloads import Sample, cpu_now

__all__ = ["main"]

#: Each drive loop lasts about ``seconds / DRIVE_LOOP_DIVISOR`` (75 ms at
#: the catalogue's run length) and is repeated ``DRIVE_REPS`` times, so
#: the 27 drives together take about half the run length.
DRIVE_LOOP_DIVISOR = 200.0
DRIVE_REPS = 3


#: CPU seconds :func:`reference_kernel` takes at the reference host
#: speed (the machine the bounds were set on, in a quiet phase).  Only a
#: scale: on a host running at this speed, reference seconds are seconds.
REFERENCE_NOMINAL_S = 0.0100


def reference_kernel(n: int = 20000) -> float:
    """CPU seconds of a fixed pure-Python loop (heap, allocation, dict
    and float work — the interpreter operations a simulator leans on).
    It touches nothing under ``repro``: no change to the simulator can
    move it."""
    start = time.process_time()
    heap, acc, seen = [], 0.0, {}
    for i in range(n):
        heapq.heappush(heap, (i * 0.37 % 11.0, i, [i]))
        if i & 3 == 3:
            t, _, box = heapq.heappop(heap)
            acc += t * 1.0001
            seen[box[0] & 255] = acc
    return time.process_time() - start


class HostMeter:
    """Runs the reference kernel between units and gives every sample
    its host factor: the mean of the kernel's time just before and just
    after the unit, over the nominal time."""

    def __init__(self):
        self.readings: List[float] = []
        self._pending: List[Sample] = []

    def _read(self) -> None:
        # The better of two: the first also absorbs the core's wake-up
        # after a unit that left it mostly idle (the paced rt phase).
        self.readings.append(min(reference_kernel(), reference_kernel()))

    def run(self, workload, kind: str) -> Sample:
        self._read()
        sample = workload.run(kind)
        self._pending.append(sample)
        return sample

    def close(self) -> None:
        """Take the closing reading and assign the factors."""
        self._read()
        for before, after, sample in zip(self.readings, self.readings[1:],
                                         self._pending):
            sample.host = (before + after) / (2.0 * REFERENCE_NOMINAL_S)
        self._pending = []


def measure(workload, seconds: float, meter: HostMeter):
    """Round-robin over the unit kinds until the next unit would not
    finish within ``seconds`` (always at least one full pass)."""
    by_kind = {kind: [] for kind in workload.kinds}
    took: Dict[str, float] = {}
    start = time.perf_counter()
    first_pass = True
    while True:
        for kind in workload.kinds:
            if not first_pass and (
                    time.perf_counter() - start + took[kind] > seconds):
                meter.close()
                return by_kind
            gc.collect()
            begin = time.perf_counter()
            by_kind[kind].append(meter.run(workload, kind))
            took[kind] = time.perf_counter() - begin
        first_pass = False


def one_pass(workload, meter: HostMeter = None) -> Dict[str, List[Sample]]:
    """The traced run's fixed slice, once (metered when it is timed)."""
    by_kind = {}
    for kind in workload.slice_kinds:
        gc.collect()
        by_kind[kind] = [workload.run(kind) if meter is None
                         else meter.run(workload, kind)]
    if meter is not None:
        meter.close()
    return by_kind


def succeeded(by_kind):
    return {kind: [s for s in samples if s.error is None]
            for kind, samples in by_kind.items()
            if any(s.error is None for s in samples)}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def timed_run(workload, seconds: float) -> dict:
    meter = HostMeter()
    by_kind = measure(workload, seconds, meter)
    metrics = workload.metrics(succeeded(by_kind))
    metrics["peak_rss_mb"] = peak_rss_mb()
    checks = workload.verify(by_kind)
    return {
        "metrics": metrics,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "rows_digest": workload.digest_rows(by_kind),
        "samples": {kind: {"wall": [s.wall for s in samples],
                           "cpu": [s.cpu for s in samples],
                           "host": [s.host for s in samples]}
                    for kind, samples in by_kind.items()},
    }


def traced_run(workload, tracer: Tracer, seconds: float, out) -> dict:
    from repro.obs.sinks import MemorySink
    from repro.obs.trace import TraceBus

    workload.bus = TraceBus(sinks=[MemorySink()])

    # Pass A: the slice as the timed runs see it (no profiler, no spans).
    workload.tracer = NULL_TRACER
    cpu0 = cpu_now()
    plain = one_pass(workload, HostMeter())
    plain_cpu = cpu_now() - cpu0
    metrics = workload.metrics(succeeded(plain))
    metrics.update(workload.event_metrics(plain))
    kept_before = workload.work_counts()

    # Pass B: the same slice under the profiler, spans and the probe.
    workload.tracer = tracer
    with SimProbe(tracer) as probe:
        cpu0 = cpu_now()
        with tracer.profiled(), tracer.span("workload", slice=True):
            traced = one_pass(workload)
        traced_cpu = cpu_now() - cpu0
    counts = probe.work_counts()
    for name, value in workload.work_counts().items():
        counts[name] = value - kept_before[name]
    counts["hybrid.steps"] = tracer.calls_of("_step", "hybrid/simulation.py")
    halved = (tracer.calls_of("_guarded_step", "fluid/dynamics.py")
              - tracer.calls_of("step_windows", "fluid/dynamics.py"))
    counts["fluid.step_halvings"] = halved // 2

    folded = tracer.folded()
    for layer, numbers in folded.items():
        metrics[f"{layer}.self_s"] = numbers["self_s"]
        metrics[f"{layer}.calls"] = numbers["calls"]
    metrics.update(counts)
    metrics["perfbench.trace_overhead_x"] = traced_cpu / plain_cpu
    metrics.update(drives.run_drives(
        workload.scratch, seconds / DRIVE_LOOP_DIVISOR, DRIVE_REPS))

    checks = workload.verify(plain)
    again = workload.verify(traced)
    checks.attempted += again.attempted
    checks.failures += again.failures
    metrics["ops_failed_share"] = len(checks.failures) / checks.attempted

    if out is not None:
        path = pathlib.Path(out) / f"trace-{workload.name}.json"
        path.write_text(json.dumps({
            "schema": "perfbench.trace/1",
            "workload": workload.name,
            "seed": workload.seed,
            "slice": workload.slice_kinds,
            "layers": folded,
            "counts": counts,
            "span_self_s": tracer.self_time_by_span(),
            "spans": tracer.spans,
        }, indent=1, default=str) + "\n", encoding="utf-8")
    return {
        "metrics": metrics,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "rows_digest": workload.digest_rows(plain),
        "samples": {},
    }


def main(args) -> int:
    """Body of ``python -m perfbench --child`` (namespace in, rc out)."""
    scratch = pathlib.Path(args.scratch)
    tracer = Tracer(args.workload) if args.trace else NULL_TRACER
    module = workloads.load(args.workload)
    workload = module.build(args.seed, args.scale, scratch, tracer)
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": time.time() - args.t0}
    try:
        if not args.setup_only:
            if args.trace:
                result.update(traced_run(workload, tracer, args.seconds,
                                         args.out))
            else:
                result.update(timed_run(workload, args.seconds))
            catalog.fill(result["metrics"], traced=bool(args.trace))
    finally:
        workload.close()
    pathlib.Path(args.result).write_text(json.dumps(result),
                                         encoding="utf-8")
    return 0
