"""§3 / Fig 8 — balancing congestion on the five-link torus.

Paper setup: five bottleneck links in a ring, two multipath flows per
link, RTT 100 ms, buffers of one bandwidth-delay product; the capacity of
link C is varied and the imbalance of loss rates (pA vs pC) measured.
Paper claims: COUPLED balances congestion very well, EWTCP badly, MPTCP in
between; at C = 100 pkt/s Jain's index over flow totals is 0.99 (COUPLED),
0.986 (MPTCP), 0.92 (EWTCP).

The 12-point algo x capacity grid runs through the parallel experiment
runner (`repro.exp`); the point function is
`repro.exp.grids.torus_balance` and the grid is
`repro.topology.scenarios.SWEEP_GRIDS["fig8_torus"]` — the same sweep is
one command away as `python -m repro sweep fig8_torus --parallel 4`.
Serial-vs-parallel wall-clock for the runner itself is perfbench's
`exec_paths` workload.
"""

import os
import time

from repro import Runner, Table, specs_for_grid
from repro.topology import SWEEP_GRIDS

from conftest import record

CAPACITIES = tuple(
    int(c) for c in SWEEP_GRIDS["fig8_torus"]["parameters"]["capacity_c"]
)
PAPER_JAIN_AT_100 = {"coupled": 0.99, "mptcp": 0.986, "ewtcp": 0.92}
WORKERS = min(4, os.cpu_count() or 1)


def run_experiment():
    runner = Runner(parallel=WORKERS)
    rows = runner.run(specs_for_grid("fig8_torus"))
    results = {}
    for row in rows:
        by_cap = results.setdefault(row["algo"], {})
        by_cap[int(row["capacity_c"])] = (row["pa_pc_ratio"], row["jain"])
    return results


def test_fig8_torus_balance(benchmark):
    start = time.monotonic()
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    wall = time.monotonic() - start
    table = Table(
        ["algorithm", "capacity C", "pA/pC (1=balanced)", "Jain index"],
        precision=3,
    )
    for algo, by_cap in results.items():
        for cap, (ratio, jain) in by_cap.items():
            table.add_row([algo, cap, ratio, jain])
    record("fig8_torus", table.render(
        "Fig 8: torus loss-rate balance vs capacity of link C\n"
        "(paper Jain at C=100: COUPLED 0.99, MPTCP 0.986, EWTCP 0.92)\n"
        f"(12-point grid via repro.exp runner, {WORKERS} worker(s) on "
        f"{os.cpu_count()} CPU(s), {wall:.1f}s wall)"
    ))

    # At equal capacities EWTCP and MPTCP balance (ratio ~1); COUPLED's
    # winner-take-all wandering makes its loss ratio noisy even there
    # (losses are near zero at equal capacities), so it gets a wide band.
    for algo in ("ewtcp", "mptcp"):
        assert 0.5 < results[algo][1000][0] < 2.0
    assert 0.1 < results["coupled"][1000][0] < 10.0
    # Squeezing link C: COUPLED balances best, EWTCP worst.
    assert results["coupled"][100][0] > results["mptcp"][100][0]
    assert results["mptcp"][100][0] > results["ewtcp"][100][0]
    # Fairness of flow totals mirrors the paper's ordering.
    assert results["mptcp"][100][1] > results["ewtcp"][100][1]
