"""The paper's claims hold, and can fail.

Every ``paper_*`` grid (plus ``fig8_torus`` / ``fig16_rtt``, and
``rt_loopback``, the implementation against its simulation) has its rows
in the claims table :data:`repro.exp.claims.CLAIMS`.

*They hold.*  The 13 grids of ``conftest.TIER1_GRIDS`` (37 points, each
under ~30 s serial) run at their registered seed and windows, as one
task list through one two-worker :class:`~repro.exp.runner.Runner` with
no cache (the session fixture ``registered_rows``, which
``test_integration_paper.py`` reads too) — what ``python -m repro sweep paper`` does, restricted to
the cheap grids — and each grid's claims must hold on its rows.  The
rest (``fig8_torus``, ``fig16_rtt``, ``paper_fig10``, ``paper_poisson``,
the four FatTree / BCube grids and ``rt_loopback``) run in ``make paper``
and CI's ``paper`` job; in this suite ``tests/golden/equivalence`` pins
their rows at reduced scale, and the ``realnet`` test below runs the
``rt_loopback`` claim's lan pair on real sockets.

*They can fail.*  Each grid's claims are also fed a hand-built row set
shaped like the registered-scale rows (it must satisfy them all), and
then every copy of it with one number changed: a cell, or an element of
a list cell, set to 0 or to 10·|v|+1.  Each claim must fail on at least
one of those copies — a claim that cannot fail is not a claim.
"""

import copy

import pytest

from repro import cli
from repro.exp import CLAIMS, Runner, specs_for_grid
from repro.exp.claims import failed_claim, tolerance_scale, verdicts
from repro.topology import SWEEP_GRIDS

from conftest import TIER1_GRIDS

MBPS = 1e6 / 12000.0  # pkt/s per Mb/s


def fabric_rows(util):
    return [
        {"algo": algo, "pattern": pattern, "util_pct": value}
        for (algo, pattern), value in util.items()
    ]


def loopback_rows():
    # lossy_lan's rt and packet rows are single draws from overlapping
    # spreads (seeds 1-8: medians 286 and 287 pkt/s) and cwnd_mean
    # differs on both profiles; neither is gated.
    cells = {("rt", "lan"): (310.0, 620, 113.0),
             ("rt", "lossy_lan"): (200.0, 400, 12.0),
             ("packet", "lan"): (312.0, 624, 50.0),
             ("packet", "lossy_lan"): (331.0, 662, 49.0)}
    return [
        {"tier": tier, "netem": netem, "goodput_mean": goodput,
         "delivered_bytes": delivered * 1500, "cwnd_mean": cwnd,
         "delivery_gap": 0}
        for (tier, netem), (goodput, delivered, cwnd) in cells.items()
    ]


def torus_rows():
    # algo -> pa_pc_ratio at capacity_c 1000 / 250 / 100, Jain's index.
    cells = {"ewtcp": ((1.0, 0.05, 0.1), 0.90),
             "mptcp": ((1.1, 0.3, 0.3), 0.97),
             "coupled": ((2.0, 0.6, 0.8), 0.99)}
    return [
        {"algo": algo, "capacity_c": cap, "pa_pc_ratio": ratio, "jain": jain}
        for algo, (ratios, jain) in cells.items()
        for cap, ratio in zip((1000.0, 250.0, 100.0), ratios)
    ]


#: grid -> rows that satisfy its claims.
CASES = {
    "paper_fig1": [
        {"algo": a, "ratio": r} for a, r in
        (("uncoupled", 2.1), ("ewtcp", 0.9), ("mptcp", 1.1), ("coupled", 1.1))
    ],
    "paper_ablation_ewtcp_weight": [
        {"controller_kwargs": {"a_literal_paper": False}, "ratio": 1.1},
        {"controller_kwargs": {"a_literal_paper": True}, "ratio": 1.9},
    ],
    "paper_ablation_sack": [
        {"enable_sack": True, "rates": [1000.0, 1000.0], "total_pps": 2000.0},
        {"enable_sack": False, "rates": [1000.0, 1000.0], "total_pps": 1300.0},
    ],
    "paper_ablation_recompute": [
        {"rates": [1000.0, 500.0], "total_pps": p1 + p2,
         "path1_pps": p1, "path2_pps": p2}
        for p1, p2 in ((997.0, 499.0), (998.0, 499.0), (992.0, 498.0))
    ],
    "paper_dynamic_cbr": [
        {"algo": a, "path1_pps": top * MBPS, "path2_pps": 99.0 * MBPS}
        for a, top in (("ewtcp", 40.0), ("mptcp", 45.0), ("coupled", 10.0))
    ],
    "paper_rtt_sim": [{"total_pps": 313.0, "s1_pps": 126.0, "s2_pps": 309.0}],
    "paper_fig2": [
        {"algo": a, "f0_pps": v * MBPS, "f1_pps": v * MBPS, "f2_pps": v * MBPS}
        for a, v in (("ewtcp", 8.0), ("coupled", 11.0), ("mptcp", 9.5))
    ],
    "paper_fig3": [
        {"algo": "ewtcp", "f0_pps": 11 * MBPS, "f1_pps": 11 * MBPS,
         "f2_pps": 8 * MBPS},
        {"algo": "coupled", "f0_pps": 9 * MBPS, "f1_pps": 9 * MBPS,
         "f2_pps": 9 * MBPS},
        {"algo": "mptcp", "f0_pps": 10 * MBPS, "f1_pps": 10 * MBPS,
         "f2_pps": 8 * MBPS},
    ],
    "paper_fig4": [
        {"flow": k, "total_pps": v} for k, v in
        (("tcp0", 3000.0), ("tcp1", 600.0), ("ewtcp", 1800.0),
         ("coupled", 600.0), ("mptcp", 2500.0))
    ],
    "paper_semicoupled": [
        {"flow": "semicoupled", "path_pps": [45.0, 45.0, 10.0]},
        {"flow": "ewtcp", "path_pps": [40.0, 40.0, 20.0]},
        {"flow": "coupled", "path_pps": [50.0, 47.0, 3.0]},
    ],
    "paper_fig10": [
        {"g1_before_pps": 1600.0, "g2_before_pps": 550.0,
         "g1_after_pps": 800.0, "g2_after_pps": 500.0,
         "multi_link1_pps": 3000.0, "multi_link2_pps": 500.0},
    ],
    "paper_poisson": [
        {"mptcp_pps": 60 * MBPS, "coupled_pps": 55 * MBPS,
         "ewtcp_pps": 47 * MBPS, "completions": 2000},
    ],
    "paper_wireless_static": [
        {"flow": k, "total_pps": v * MBPS} for k, v in
        (("tcp_wifi", 13.6), ("tcp_3g", 2.1), ("mptcp", 15.2))
    ],
    "paper_fig15": [
        {"flow": a, "total_pps": m * MBPS, "wifi_pps": on_wifi * MBPS,
         "tcp_wifi_pps": w * MBPS, "tcp_3g_pps": g * MBPS}
        for a, m, on_wifi, w, g in (("ewtcp", 1.6, 1.2, 3.4, 1.9),
                                    ("coupled", 1.0, 0.6, 4.0, 1.7),
                                    ("mptcp", 2.5, 2.1, 2.8, 1.7))
    ],
    "paper_fig17": [
        {"good_pps": 666.0, "stairwell_pps": 233.0, "recovered_pps": 355.0,
         "wifi_good_pps": 494.0, "wifi_stairwell_pps": 0.0,
         "wifi_recovered_pps": 185.0},
    ],
    "paper_fattree": fabric_rows({
        ("single", "TP1"): 50.0, ("ewtcp", "TP1"): 85.0,
        ("mptcp", "TP1"): 90.0, ("single", "TP2"): 90.0,
        ("ewtcp", "TP2"): 90.0, ("mptcp", "TP2"): 95.0,
        ("single", "TP3"): 60.0, ("ewtcp", "TP3"): 95.0,
        ("mptcp", "TP3"): 97.0,
    }),
    "paper_fig12_paths": [
        {"paths": n, "util_pct": v}
        for n, v in ((1, 50.0), (2, 70.0), (4, 85.0), (8, 92.0))
    ],
    "paper_fig13": [
        {"algo": a, "jain": j, "rate_quartiles": [worst, 0, 0, 0, 0]}
        for a, j, worst in (("single", 0.8, 100.0), ("ewtcp", 0.95, 500.0),
                            ("mptcp", 0.97, 600.0))
    ],
    "paper_bcube": fabric_rows({
        ("single", "TP1"): 65.0, ("ewtcp", "TP1"): 84.0,
        ("mptcp", "TP1"): 86.0, ("single", "TP2"): 297.0,
        ("ewtcp", "TP2"): 229.0, ("mptcp", "TP2"): 272.0,
        ("single", "TP3"): 78.0, ("ewtcp", "TP3"): 139.0,
        ("mptcp", "TP3"): 135.0,
    }),
    "fig8_torus": torus_rows(),
    "fig16_rtt": [
        {"c2": 400.0, "rtt2": 0.012, "ratio": 0.3},
        {"c2": 800.0, "rtt2": 0.2, "ratio": 1.0},
        {"c2": 3200.0, "rtt2": 0.8, "ratio": 1.1},
    ],
    "rt_loopback": loopback_rows(),
}


def single_cell_edits(rows):
    """Every copy of ``rows`` with one number changed, to 0 and to
    10·|v|+1: a numeric cell, or a numeric element of a list cell."""
    for i, row in enumerate(rows):
        for key, value in row.items():
            slots = (enumerate(value) if isinstance(value, list)
                     else [(None, value)])
            for j, v in slots:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    continue
                for new in (0, 10 * abs(v) + 1):
                    broken = copy.deepcopy(rows)
                    if j is None:
                        broken[i][key] = new
                    else:
                        broken[i][key][j] = new
                    yield broken


def test_every_paper_grid_carries_claims():
    assert set(CLAIMS) <= set(SWEEP_GRIDS)
    unclaimed = [g for g in SWEEP_GRIDS if g.startswith("paper_")
                 and g not in CLAIMS]
    assert not unclaimed
    assert set(CASES) == set(CLAIMS), "a claimed grid without rows here"


@pytest.mark.parametrize("grid", sorted(CASES))
def test_claims_hold_and_can_fail(grid):
    """Each claim has a witness: a single-cell edit that breaks it."""
    rows = CASES[grid]
    assert failed_claim(grid, rows) is None
    _, claims = CLAIMS[grid]
    unbroken = set(range(len(claims)))
    for broken in single_cell_edits(rows):
        unbroken -= {i for i, line in enumerate(verdicts(grid, broken))
                     if line}
    assert not unbroken, [str(claims[i]) for i in sorted(unbroken)]


def _with(grid, index, **cells):
    rows = copy.deepcopy(CASES[grid])
    rows[index].update(cells)
    return rows


@pytest.mark.parametrize("grid, rows, line", [
    ("paper_fig10", _with("paper_fig10", 0, g2_before_pps=0.0),
     "§3 Fig 10: g1_after_pps / g2_after_pps < 0.7 * (g1_before_pps / "
     "g2_before_pps): ZeroDivisionError: float division by zero"),
    ("paper_semicoupled",
     _with("paper_semicoupled", 0, path_pps=[0.0, 0.0, 0.0]),
     "§2.4: share(semicoupled_path_pps)[2] < 0.2: ZeroDivisionError: "
     "float division by zero"),
    ("paper_fig1",
     [row for row in CASES["paper_fig1"] if row["algo"] != "coupled"],
     "§2.1 Fig 1: 0.6 < coupled_ratio < 1.5: NameError: "
     "name 'coupled_ratio' is not defined"),
], ids=["fig10_no_link2_rate", "semicoupled_no_traffic",
        "fig1_without_coupled"])
def test_a_claim_that_cannot_be_evaluated_fails_by_name(grid, rows, line):
    assert failed_claim(grid, rows) == line


def test_sweep_names_the_failed_claim_and_exits_1(monkeypatch, capsys,
                                                  tmp_path):
    """``repro sweep`` on rows that break a claim, nothing simulated."""
    rows = _with("paper_fig1", 0, ratio=3.0)

    class CannedRunner:
        wall, executed, cache_hits, retried = 0.0, 0, 0, 0

        def __init__(self, **_):
            pass

        def run(self, specs):
            assert len(specs) == len(rows)
            return rows

    monkeypatch.setattr(cli, "Runner", CannedRunner)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "paper_fig1"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL: claims failed on paper_fig1" in err
    assert ("§2.1 Fig 1: 1.5 < uncoupled_ratio < 2.7: measured 3, "
            "bound (1.5, 2.7) (paper: 2)") in out


@pytest.mark.parametrize("grid", TIER1_GRIDS)
def test_claims_hold_at_registered_scale(grid, registered_rows):
    assert failed_claim(grid, registered_rows[grid]) is None


def test_tolerance_scale_relaxes_the_rt_loopback_claim(monkeypatch):
    rows = loopback_rows()
    rows[0]["goodput_mean"] = 1.5 * rows[2]["goodput_mean"]  # rel err 0.5
    monkeypatch.setenv("REPRO_RT_TOLERANCE_SCALE", "2.0")
    assert tolerance_scale() == 2.0
    assert failed_claim("rt_loopback", rows) is None        # 0.5 < 0.35 * 2
    monkeypatch.setenv("REPRO_RT_TOLERANCE_SCALE", "1.0")
    assert failed_claim("rt_loopback", rows) is not None


@pytest.mark.realnet
def test_rt_loopback_claim_holds_on_real_sockets():
    """The sim-vs-real gate: the grid's lan pair, one transfer on
    loopback UDP and one on the packet tier, must satisfy the claim
    (``REPRO_RT_TOLERANCE_SCALE`` relaxes it on noisy runners)."""
    specs = [spec for spec in specs_for_grid("rt_loopback")
             if spec.params["netem"] == "lan"]
    rows = Runner(parallel=1).run(specs)
    assert failed_claim("rt_loopback", rows) is None
