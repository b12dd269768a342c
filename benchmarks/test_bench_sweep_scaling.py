"""Sweep-runner scaling: in-process vs worker-process wall-clock, fixed grid.

Runs the 8-point `demo_rtt` grid (scaled-down Fig 16 shape) once
in-process and once over worker processes, records both wall-clocks and
the speedup, and checks the runner's core guarantee along the way: rows
are bit-identical whatever the worker count.  On a single-CPU host the
"speedup" is honestly ≤ 1 (worker overhead, no extra cores); the recorded
table states the CPU count so the number can be read in context.
"""

import json
import os
import time

from repro import Runner, Table, specs_for_grid

from conftest import record

WORKERS = min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 2


def run_comparison():
    specs = specs_for_grid("demo_rtt")

    start = time.monotonic()
    serial_runner = Runner(parallel=1)
    serial_rows = serial_runner.run(specs)
    serial_wall = time.monotonic() - start

    start = time.monotonic()
    parallel_runner = Runner(parallel=WORKERS)
    parallel_rows = parallel_runner.run(specs)
    parallel_wall = time.monotonic() - start

    return {
        "serial_wall": serial_wall,
        "parallel_wall": parallel_wall,
        "serial_rows": serial_rows,
        "parallel_rows": parallel_rows,
        "executed": serial_runner.executed + parallel_runner.executed,
    }


def test_sweep_scaling(benchmark):
    r = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert json.dumps(r["serial_rows"]) == json.dumps(r["parallel_rows"]), \
        "parallel execution changed the results"
    assert r["executed"] == 16  # 8 points per mode, nothing cached

    speedup = r["serial_wall"] / max(r["parallel_wall"], 1e-9)
    table = Table(["mode", "workers", "wall (s)", "speedup"], precision=2)
    table.add_row(["serial", 1, r["serial_wall"], 1.0])
    table.add_row(["worker processes", WORKERS, r["parallel_wall"], speedup])
    record("sweep_scaling", table.render(
        "Sweep-runner scaling on the 8-point demo_rtt grid\n"
        f"(rows bit-identical across modes; host has {os.cpu_count()} "
        "CPU(s) — expect speedup ~min(workers, CPUs) on multicore hosts)"
    ))

    # Worker overhead must stay sane even with nothing to gain (1 CPU).
    assert r["parallel_wall"] < r["serial_wall"] * 5 + 2.0
