"""Golden equivalence: every registered sweep grid replays bit-identical.

The hot-path rewrite (array scoreboard, SoA queue/pipe state, batched
dispatch, columnar sinks) promises that no observable bit changes.  These
tests are that promise, executable: each grid in ``SWEEP_GRIDS`` replays
at its registered seed with short golden windows and is compared against
the committed pre-rewrite documents under ``tests/golden/equivalence/``
— result rows by canonical JSON (exact float equality) and the semantic
trace stream by SHA-256 digest (see :mod:`repro.exp.golden` for the two
scheduler-representation exclusions).

A diff here means the rewrite changed behaviour.  If the change is
*intentional*, regenerate deliberately with
``PYTHONPATH=src python tools/regen_goldens.py`` and document the cause
in the PR (docs/REPRODUCTION_NOTES.md, "Golden equivalence").
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.exp.golden import (
    GOLDEN_SETTINGS,
    compute_golden,
    golden_grid_names,
    golden_specs,
)
from repro.topology.scenarios import SWEEP_GRIDS

pytestmark = pytest.mark.golden

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "equivalence"


def load_golden(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"no golden document for grid {name!r}; generate it with "
        f"PYTHONPATH=src python tools/regen_goldens.py {name}"
    )
    return json.loads(path.read_text())


def test_every_grid_has_golden_settings():
    """A new grid must opt into golden coverage (or be added here)."""
    missing = sorted(set(SWEEP_GRIDS) - set(GOLDEN_SETTINGS))
    assert not missing, (
        f"grids without golden settings: {missing}; add them to "
        f"repro.exp.golden.GOLDEN_SETTINGS and regenerate"
    )


@pytest.mark.parametrize("name, enough", [
    ("paper_fattree", lambda n: n >= 4),
    ("paper_fig12_paths", lambda n: n >= 4),
    ("paper_bcube", lambda n: n == 3),
])
def test_fabric_goldens_run_more_than_two_subflows(name, enough):
    """eq. (1)'s min-set search differs from the two-subflow unroll only
    at n >= 3 paths, and these grids are the only monitored end-to-end
    runs that get there: shrinking one to a two-path fabric must fail
    here, not silently lose the coverage."""
    rows = [point["row"] for point in load_golden(name)["points"]]
    assert any(enough(row["max_subflows"]) for row in rows), (
        f"{name}: no golden point with enough subflows "
        f"({[row['max_subflows'] for row in rows]})"
    )
    assert all(row["violations"] == 0 for row in rows)


@pytest.mark.parametrize("name", golden_grid_names())
def test_grid_replays_bit_identical(name):
    golden = load_golden(name)
    fresh = compute_golden(name)
    assert golden["seed"] == fresh["seed"], "grid seed changed"
    assert len(golden["points"]) == len(fresh["points"]), (
        f"{name}: point count changed "
        f"{len(golden['points'])} -> {len(fresh['points'])}"
    )
    for i, (want, got) in enumerate(zip(golden["points"], fresh["points"])):
        assert want["params"] == got["params"], f"{name}[{i}]: params diverged"
        assert json.dumps(want["row"], sort_keys=True) == json.dumps(
            got["row"], sort_keys=True
        ), (
            f"{name}[{i}] {want['params']}: result row diverged\n"
            f" golden: {json.dumps(want['row'], sort_keys=True)}\n"
            f"  fresh: {json.dumps(got['row'], sort_keys=True)}"
        )
        assert want["trace_sha256"] == got["trace_sha256"], (
            f"{name}[{i}] {want['params']}: trace digest diverged "
            f"({want['trace_records']} golden vs {got['trace_records']} "
            f"fresh semantic records); the run is observably different"
        )


def test_golden_specs_force_monitoring():
    """Every golden point runs under the invariant monitor."""
    for spec in golden_specs("demo_rtt"):
        assert spec.params.get("check") == 1
