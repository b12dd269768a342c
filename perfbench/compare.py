"""``--compare A B``: two result directories, metric by metric.

For every workload and metric: each side's median and quartiles, the
fixed bound, and a verdict —

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — better by more than the bound;
* ``unchanged``  — within the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  either side) is wider than the bound, or a run was marked noisy; the
  one exception is when every run of B reads better than every run of A.

End-to-end bounds come from ``BENCHMARK.json``; the workload metrics
that the catalogue lists without a bound use :data:`WORKLOAD_BOUNDS`.
For the three simulated workloads the traced runs' call counts and work
counts must match exactly, within each side and between the sides.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Optional, Tuple

from . import catalog

__all__ = ["main", "verdict", "WORKLOAD_BOUNDS"]

#: Bounds of the workload metrics timed with tracing off (share of A's
#: median).  ``ops_failed_share`` may not rise at all.
WORKLOAD_BOUNDS: Dict[str, float] = {
    "monitor_slowdown_x": 0.07,
    "flows_per_s": 0.05,
    "serial_tasks_per_s": 0.10,
    "warm_hits_per_s": 0.10,
    "pool_tasks_per_s": 0.10,
    "farm_tasks_per_s": 0.10,
    "rt_paced_efficiency": 0.02,
    "rt_cpu_us_per_pkt": 0.10,
    "rt_sat_goodput_pps": 0.10,
    "ops_failed_share": 0.0,
}

#: Workloads whose counts repeat exactly for a fixed seed.
EXACT_COUNT_WORKLOADS = ("torus_packet", "zoo_checked", "hybrid_1m")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float,
            noisy: bool = False) -> str:
    qa, ma, qb = quartiles(a), statistics.median(a), quartiles(b)
    mb = statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if ma == 0:
        worse = sign * (mb - ma)
        spread = 0.0
    else:
        worse = sign * (mb - ma) / abs(ma)
        spread = max((qa[2] - qa[0]) / abs(ma),
                     (qb[2] - qb[0]) / abs(mb) if mb else 0.0)
    if noisy or spread > bound:
        clean_win = (max(b) < min(a) if better == "lower"
                     else min(b) > max(a))
        return "improved" if clean_win and not noisy else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def load_dir(path: str) -> Dict[Tuple[str, int], List[dict]]:
    """Results of one directory grouped by (workload, trace)."""
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for file in sorted(pathlib.Path(path).glob("result-*.json")):
        result = json.loads(file.read_text(encoding="utf-8"))
        groups.setdefault((result["workload"], result["trace"]),
                          []).append(result)
    if not groups:
        raise SystemExit(f"perfbench: no result-*.json files in {path}")
    return groups


def values_of(results: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def bound_of(name: str) -> Optional[float]:
    entry = catalog.end_to_end().get(name)
    if entry is not None:
        return entry["bound"]
    return WORKLOAD_BOUNDS.get(name)


def better_of(name: str) -> str:
    entry = catalog.end_to_end().get(name) or catalog.per_layer()[name]
    return entry["better"]


def count_names() -> List[str]:
    return [name for name, entry in catalog.per_layer().items()
            if entry["unit"] == "count"]


def compare_counts(a: List[dict], b: List[dict]) -> List[str]:
    """Names of count metrics that are not one single value across every
    traced run of both sides."""
    differing = []
    for name in count_names():
        if len(set(values_of(a, name) + values_of(b, name))) > 1:
            differing.append(name)
    return differing


def main(dir_a: str, dir_b: str) -> int:
    side_a, side_b = load_dir(dir_a), load_dir(dir_b)
    status = 0
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace = key
        a, b = side_a[key], side_b[key]
        noisy = any(r["noisy"] for r in a + b)
        seeds = sorted({r["conditions"]["seed"] for r in a + b})
        print(f"{workload} trace={trace}: {len(a)} run(s) in A, {len(b)} "
              f"in B, seed(s) {seeds}{' [noisy]' if noisy else ''}")
        names = [n for n in a[0]["metrics"] if values_of(b, n)]
        for name in names:
            va, vb = values_of(a, name), values_of(b, name)
            if not any(va) and not any(vb):
                continue  # a layer this workload does not touch
            qa, qb = quartiles(va), quartiles(vb)
            bound = bound_of(name)
            line = (f"  {name:<34} A {qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                    f"  B {qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                    f"{catalog.unit(name)}")
            if bound is not None:
                result = verdict(va, vb, better_of(name), bound, noisy)
                line += f"  bound {bound:g}  {result}"
                if result == "regressed":
                    status = 1
            print(line)
        failed = sum(r["failed"] for r in a + b)
        if failed:
            print(f"  {failed} failed check(s) across these runs")
            status = 1
        if trace and workload in EXACT_COUNT_WORKLOADS:
            differing = compare_counts(a, b)
            if len(seeds) > 1:
                print("  counts: not compared (runs used different seeds)")
            elif differing:
                print(f"  counts: DIFFER: {', '.join(differing)}")
                status = 1
            else:
                print("  counts: call counts and work counts match exactly")
    only = sorted(set(side_a) ^ set(side_b))
    for workload, trace in only:
        print(f"{workload} trace={trace}: present on one side only")
    return status
