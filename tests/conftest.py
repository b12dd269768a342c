"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import collections
import contextlib
import os
import sys

import pytest
from hypothesis import settings

from repro.check import InvariantMonitor
from repro.exp import Runner, ScenarioSpec, TaskSpec, specs_for_grid, target_id
from repro.exp.spec import grid_points
from repro.net.pipe import Pipe
from repro.net.queue import DropTailQueue
from repro.net.route import Route
from repro.obs import DEFAULT_EVENTS, TraceBus
from repro.sim.simulation import Simulation

# Tier-1 is deterministic: every property test replays the same examples
# on every run (derandomize also switches the example database off), so
# "no worse than the seed" is decidable.  Searching for new
# counter-examples is a separate act — ``--hypothesis-profile=explore``,
# which CI runs as a non-blocking job that uploads what it finds.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, print_blob=True
)
settings.register_profile("explore", deadline=None, print_blob=True)


def pytest_configure(config):
    # The Hypothesis plugin loads a profile named on the command line
    # itself; tier1 is only the default.
    if not config.getoption("--hypothesis-profile", default=None):
        settings.load_profile("tier1")


@pytest.fixture
def sim(request) -> Simulation:
    """The standard seeded Simulation.

    Tests marked ``@pytest.mark.invariants`` get a traced simulation with
    an :class:`~repro.check.InvariantMonitor` attached (reachable as
    ``sim.check_monitor``): every component the test builds is watched,
    any invariant violation fails the test at the next record naming the
    broken component, and a final sweep of everything runs at teardown.
    """
    if request.node.get_closest_marker("invariants") is None:
        yield Simulation(seed=42)
        return
    simulation = Simulation(seed=42, trace=TraceBus(events=DEFAULT_EVENTS))
    monitor = InvariantMonitor()
    monitor.attach(simulation)
    simulation.check_monitor = monitor
    yield simulation
    monitor.finish()


def sweep(parameters, fn, **runner_kwargs):
    """Run the module-level (or, in-process only, any) point function
    ``fn(**point)`` over the cartesian grid of ``parameters`` through a
    ``Runner(**runner_kwargs)``; returns the merged rows in grid order."""
    tasks = [
        TaskSpec(
            index=i,
            spec=ScenarioSpec(scenario=target_id(fn), params=point),
            fn=fn,
        )
        for i, point in enumerate(grid_points(parameters))
    ]
    return Runner(**runner_kwargs).run_tasks(tasks)


def bottleneck_route(
    sim: Simulation,
    rate_pps: float,
    rtt: float = 0.1,
    buffer_pkts: int = 100,
    name: str = "bneck",
):
    """A single drop-tail bottleneck route (congestion losses only)."""
    queue = DropTailQueue(sim, rate_pps, buffer_pkts, name=f"{name}.q")
    pipe = Pipe(sim, delay=rtt / 2.0, name=f"{name}.p")
    return Route(sim, [queue, pipe], reverse_delay=rtt / 2.0, name=name), queue


@contextlib.contextmanager
def python_calls(also=None):
    """Count Python ``call`` events inside the block with ``sys.setprofile``
    — exact and repeatable, unlike a clock.  Yields a Counter keyed by the
    ``repro/<layer>/`` directory of the called code, with every call into
    code outside ``repro/`` (stdlib, tests) under ``"outside"``;
    ``also(code)`` may return one more key to count a repro call under."""
    calls = collections.Counter()
    marker = os.sep + "repro" + os.sep

    def count(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            cut = filename.rfind(marker)
            if cut >= 0:
                calls[filename[cut + len(marker):].split(os.sep)[0]] += 1
                if also is not None:
                    calls[also(frame.f_code)] += 1
            else:
                calls["outside"] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


#: The claims grids cheap enough to run at registered scale in tier-1, in
#: ``repro sweep paper`` order.
TIER1_GRIDS = (
    "paper_fig1", "paper_fig2", "paper_fig3", "paper_fig4",
    "paper_semicoupled", "paper_dynamic_cbr", "paper_wireless_static",
    "paper_fig15", "paper_rtt_sim", "paper_fig17", "paper_ablation_sack",
    "paper_ablation_recompute", "paper_ablation_ewtcp_weight",
)


@pytest.fixture(scope="session")
def registered_rows():
    """Every TIER1_GRIDS point at its registered seed and windows, as one
    task list on two workers with no cache; rows keyed by grid.  Simulated
    once per session, whichever test module asks first."""
    specs = {grid: specs_for_grid(grid) for grid in TIER1_GRIDS}
    rows = iter(Runner(parallel=2).run(
        [spec for grid in TIER1_GRIDS for spec in specs[grid]]
    ))
    return {grid: [next(rows) for _ in specs[grid]] for grid in TIER1_GRIDS}
