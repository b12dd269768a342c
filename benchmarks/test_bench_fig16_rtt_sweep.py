"""§5 / Fig 16 — RTT compensation across a capacity/RTT grid.

Paper setup: link 1 fixed at C1 = 400 pkt/s, RTT1 = 100 ms; link 2 swept
over C2 ∈ {400, 800, 1600, 3200} pkt/s and RTT2 ∈ {12..800} ms.  Metric:
flow M's throughput divided by the better of S1 and S2.  Paper claims the
ratio is within a few percent of 1 except at very small bandwidth-delay
products on link 2 (timeout-dominated), and that M always beats the best
single path it could have used alone, by ~15 % on average.

The 16-point C2 x RTT2 grid runs through the parallel experiment runner
(`repro.exp`); the point function is `repro.exp.grids.rtt_ratio` and the
grid is `repro.topology.scenarios.SWEEP_GRIDS["fig16_rtt"]` — the same
sweep is one command away as `python -m repro sweep fig16_rtt --parallel
4`.  Serial-vs-parallel wall-clock for the runner itself is perfbench's
`exec_paths` workload.
"""

import os
import time

from repro import Runner, Table, specs_for_grid
from repro.topology import SWEEP_GRIDS

from conftest import record

_PARAMS = SWEEP_GRIDS["fig16_rtt"]["parameters"]
C2_VALUES = tuple(_PARAMS["c2"])
RTT2_VALUES = tuple(_PARAMS["rtt2"])
WORKERS = min(4, os.cpu_count() or 1)


def run_experiment():
    runner = Runner(parallel=WORKERS)
    rows = runner.run(specs_for_grid("fig16_rtt"))
    return {(row["c2"], row["rtt2"]): row["ratio"] for row in rows}


def test_fig16_rtt_sweep(benchmark):
    start = time.monotonic()
    ratios = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    wall = time.monotonic() - start
    table = Table(
        ["C2 (pkt/s)"] + [f"RTT2={int(r * 1000)}ms" for r in RTT2_VALUES],
        precision=2,
    )
    for c2 in C2_VALUES:
        table.add_row([int(c2)] + [ratios[(c2, r)] for r in RTT2_VALUES])
    record("fig16_rtt_sweep", table.render(
        "Fig 16: M's throughput / best(S1, S2) "
        "(paper: ~1.0 except tiny BDP on link 2)\n"
        f"(16-point grid via repro.exp runner, {WORKERS} worker(s) on "
        f"{os.cpu_count()} CPU(s), {wall:.1f}s wall)"
    ))

    comfortable = [
        v for (c2, rtt2), v in ratios.items() if c2 * rtt2 > 30.0
    ]
    # Away from the tiny-BDP corner, M is within a reasonable band of the
    # best single-path flow (paper: within a few percent of 1).
    assert all(v > 0.6 for v in comfortable)
    assert sum(comfortable) / len(comfortable) > 0.8
