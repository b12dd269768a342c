#!/usr/bin/env python
"""Append one perfbench run to the committed trend file.

    python tools/perf_record.py LABEL DIR      # or: make perf-record LABEL=pr16

``DIR`` is what ``python3 -m perfbench --out DIR`` wrote.  From its timed
result files (``result-<workload>-trace0-*.json``) this takes, per
workload, the median over the runs of every metric the run printed — the
five end-to-end ones and the workload's own — and appends one JSON line

    {"label", "sha", "date", "noisy", "workloads": {name: {metric: median}}}

to ``BENCH_trend.jsonl`` at the repository root.  ``sha`` is the commit
the measured checkout sat on, ``noisy`` is true when any run began with
the load average above the core count (perfbench's own flag).  The file
is append-only: no per-PR files, no gate; ``--compare`` stays the judge
of a change, this is only the trajectory.
"""

import collections
import json
import pathlib
import statistics
import sys
import time

TREND = pathlib.Path(__file__).resolve().parent.parent / "BENCH_trend.jsonl"


def summarise(label: str, out_dir: str) -> dict:
    samples = collections.defaultdict(lambda: collections.defaultdict(list))
    shas, noisy = set(), False
    for path in sorted(pathlib.Path(out_dir).glob("result-*-trace0-*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        shas.add(result["conditions"]["git_sha"])
        noisy = noisy or result["noisy"]
        for name, metric in result["metrics"].items():
            samples[result["workload"]][name].append(metric["value"])
    if not samples:
        raise SystemExit(f"perf_record: no timed result files in {out_dir}")
    return {
        "label": label,
        "sha": "+".join(sorted(shas)),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "noisy": noisy,
        "workloads": {
            workload: {name: float(f"{statistics.median(values):.6g}")
                       for name, values in metrics.items()}
            for workload, metrics in samples.items()
        },
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(TREND, "a", encoding="utf-8") as trend:
        trend.write(json.dumps(summarise(*sys.argv[1:])) + "\n")
