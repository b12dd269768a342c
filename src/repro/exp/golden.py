"""Golden-equivalence capture: pin every registered sweep grid's
observable behaviour before (and after) internal rewrites.

The array-based hot-path rewrite (ROADMAP: "perf round 2") guts the
internal representation of the SACK scoreboard, queue/pipe state, the
scheduler dispatch loop and the trace sinks, while promising that every
*observable* bit stays identical.  This module defines what "observable"
means and computes it reproducibly:

* **Result rows** — every metric a point function returns, compared by
  canonical JSON (exact float equality; no tolerances).
* **Trace digests** — a SHA-256 over the ordered stream of semantic
  trace records (``pkt.*``, ``cc.*``, ``tcp.*``, ``mptcp.*``,
  ``pathmgr.*``, ``fault.*``, ``check.attach``/``check.violation``,
  ``hybrid.*``), each serialised as key-sorted JSON.

Two things are deliberately **excluded** from the digest, because they
describe the scheduler's internal representation rather than protocol
behaviour:

* ``engine.event_fired`` records (and the per-record emission index
  ``i``) — rewiring timer re-arm patterns or batching dispatch changes
  how many scheduler events fire, without changing a single packet;
* ``check.stats`` — its ``events``/``checks`` counters count those same
  scheduler-internal events.

Everything else — every float timestamp, sequence number, cwnd value,
queue occupancy, in exact emission order — is pinned.

Each grid runs at its registered seed but with golden-specific (short)
warm-up/duration so the whole suite replays in seconds; the oversized
``fig8_torus_hybrid_1m`` point additionally runs a scaled-down class
layout (the full 10^6-flow layout is perfbench's ``hybrid_1m`` workload).
Every golden spec forces ``check=1`` so the run is traced *and* the
invariant monitor rides along — a rewrite that breaks an invariant
fails before the digest even diverges.

Regenerate with ``python tools/regen_goldens.py`` (see
``docs/REPRODUCTION_NOTES.md`` for when that is legitimate);
``tests/test_golden_equivalence.py`` replays and compares.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..obs.schema import DEFAULT_EVENTS
from ..obs.sinks import TraceSink
from ..obs.trace import TraceBus
from ..check.hooks import trace_override
from ..topology.scenarios import SWEEP_GRIDS
from .spec import ScenarioSpec, TaskSpec, execute_task
from .grids import specs_for_grid

__all__ = [
    "GOLDEN_SETTINGS",
    "TraceDigest",
    "golden_specs",
    "run_golden_point",
    "compute_golden",
    "golden_grid_names",
]

_SMALL_FATTREE = {"k": 4, "rate": 300, "buffer": 10}

#: Per-grid golden run settings: short windows so the full suite replays
#: in seconds, plus parameter overrides for points whose registered size
#: is a scale demo rather than a behaviour probe.  Seeds always come
#: from the grid registration — goldens pin the registered behaviour.
GOLDEN_SETTINGS: Dict[str, dict] = {
    "fig8_torus": {"warmup": 1.0, "duration": 1.5},
    "fig16_rtt": {"warmup": 1.5, "duration": 2.0},
    "fig8_torus_zoo": {"warmup": 0.75, "duration": 1.25},
    "fig16_rtt_zoo": {"warmup": 1.0, "duration": 1.5},
    "demo_rtt": {"warmup": 1.0, "duration": 2.0},
    "fig8_torus_hybrid": {"warmup": 1.0, "duration": 2.0},
    "fig8_torus_hybrid_1m": {
        "warmup": 0.5,
        "duration": 1.0,
        # 40x25 = 1000 aggregate flows: same code paths, 1/1000 the
        # integration cost.
        "params": {"classes": 40, "flows_per_class": 25, "tracers": 4},
    },
    "wifi_3g_handover": {"warmup": 3.0, "duration": 6.0},
    "subflow_churn": {"warmup": 2.0, "duration": 6.0},
    # The paper's figures and tables.  Windows are the shortest at which
    # the points of a grid have diverged from one another (so the digest
    # tells the algorithms apart); the fabrics shrink to FatTree k=4 (16
    # hosts, flows of up to 8 subflows) and BCube(3,2) (27 hosts, still 3
    # interfaces each) on slow, shallow links — the only golden runs
    # whose flows have more than two subflows.
    "paper_fig1": {"warmup": 0.75, "duration": 1.0},
    "paper_fig2": {"warmup": 0.75, "duration": 1.25},
    "paper_fig3": {"warmup": 0.5, "duration": 1.0},
    "paper_fig4": {"warmup": 0.2, "duration": 0.3},
    "paper_semicoupled": {"warmup": 0.4, "duration": 0.8},
    "paper_dynamic_cbr": {"warmup": 0.2, "duration": 0.3},
    "paper_fig10": {"warmup": 0.1, "duration": 0.2},
    "paper_poisson": {"warmup": 0.2, "duration": 0.4},
    "paper_fattree": {"warmup": 0.4, "duration": 0.6, "params": _SMALL_FATTREE},
    "paper_fig12_paths": {"warmup": 0.4, "duration": 0.6,
                          "params": _SMALL_FATTREE},
    "paper_fig13": {"warmup": 0.4, "duration": 0.6, "params": _SMALL_FATTREE},
    "paper_bcube": {"warmup": 0.3, "duration": 0.4,
                    "params": {"n": 3, "rate": 300, "buffer": 10}},
    "paper_wireless_static": {"warmup": 0.5, "duration": 1.0},
    "paper_fig15": {"warmup": 0.5, "duration": 1.0},
    "paper_rtt_sim": {"warmup": 2.0, "duration": 3.0},
    "paper_fig17": {"warmup": 1.0, "duration": 2.0},
    "paper_ablation_sack": {"warmup": 0.5, "duration": 1.0},
    "paper_ablation_recompute": {"warmup": 1.0, "duration": 1.5},
    "paper_ablation_ewtcp_weight": {"warmup": 0.75, "duration": 1.0},
    # Explicit opt-OUT: half the rt_loopback points run on the rt tier,
    # whose rows are wall-clock (same spec, different run → slightly
    # different goodput; see docs/REALNET.md), so the grid cannot be
    # pinned bit-for-bit.  Its claim (repro.exp.claims) bounds packet-
    # vs-rt disagreement instead, and the realnet test in
    # tests/test_paper_claims.py runs it on the grid's lan pair.
    "rt_loopback": None,
}


class TraceDigest(TraceSink):
    """Hashes the semantic trace stream (see module doc for exclusions)."""

    #: Scheduler-representation records excluded from the digest.
    EXCLUDED_EVENTS = frozenset({"engine.event_fired", "check.stats"})

    def __init__(self):
        self._hash = hashlib.sha256()
        self.records = 0

    def write(self, record: dict) -> None:
        if record["ev"] in self.EXCLUDED_EVENTS:
            return
        line = json.dumps(
            {k: v for k, v in record.items() if k != "i"},
            sort_keys=True,
            default=str,
        )
        self._hash.update(line.encode("utf-8"))
        self._hash.update(b"\n")
        self.records += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def golden_grid_names() -> List[str]:
    """Grids with golden coverage (``None`` settings = explicit opt-out)."""
    return [
        name for name in SWEEP_GRIDS if GOLDEN_SETTINGS.get(name) is not None
    ]


def golden_specs(name: str) -> List[ScenarioSpec]:
    """The grid's specs with golden windows, param overrides, check=1."""
    settings = GOLDEN_SETTINGS[name]
    if settings is None:
        raise ValueError(
            f"grid {name!r} is explicitly excluded from golden coverage "
            "(see GOLDEN_SETTINGS)"
        )
    specs = specs_for_grid(
        name, warmup=settings["warmup"], duration=settings["duration"]
    )
    overrides = settings.get("params", {})
    out = []
    for spec in specs:
        params = dict(spec.params)
        params.update(overrides)
        params["check"] = 1
        out.append(
            ScenarioSpec(
                scenario=spec.scenario,
                params=params,
                seed=spec.seed,
                warmup=spec.warmup,
                duration=spec.duration,
            )
        )
    return out


def run_golden_point(spec: ScenarioSpec) -> Tuple[dict, str, int]:
    """Run one golden point; returns (canonical row, digest, n records).

    The point runs monitored (``check=1`` routes it onto a private
    :class:`TraceBus`) with a :class:`TraceDigest` attached through
    :func:`~repro.check.hooks.trace_override`, so the digest sees the
    exact stream the invariant monitor sees.
    """
    digest = TraceDigest()
    bus = TraceBus(sinks=[digest], events=DEFAULT_EVENTS)
    with trace_override(bus):
        row = execute_task(TaskSpec(index=0, spec=spec))
    row = json.loads(json.dumps(row, sort_keys=True, default=str))
    return row, digest.hexdigest(), digest.records


def compute_golden(name: str) -> dict:
    """Replay every point of one grid; returns the golden document."""
    settings = GOLDEN_SETTINGS[name]
    points = []
    for spec in golden_specs(name):
        row, trace_sha, records = run_golden_point(spec)
        points.append(
            {
                "params": {k: spec.params[k] for k in sorted(spec.params)},
                "row": row,
                "trace_sha256": trace_sha,
                "trace_records": records,
            }
        )
    return {
        "grid": name,
        "seed": SWEEP_GRIDS[name]["seed"],
        "warmup": settings["warmup"],
        "duration": settings["duration"],
        "points": points,
    }
