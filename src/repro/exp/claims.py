"""The paper's claims as one table.

Every statement the paper's evaluation rests on is one :class:`Claim`
of :data:`CLAIMS`, filed under the grid of
:data:`repro.topology.scenarios.SWEEP_GRIDS` whose result rows it reads.
A grid's *view* names the quantities of its rows; a claim is written as
the comparison it makes over them — ``measured <relation> bound``, or
``lo < measured < hi`` for a range — and a measured list makes it for
every element.  ``python -m repro sweep paper`` prints
:func:`failed_claim`'s line for the first claim that fails on a grid's
rows at its registered seed and windows.
"""

from __future__ import annotations

import ast
import operator
import os
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..net.network import pps_to_mbps

__all__ = ["CLAIMS", "Claim", "failed_claim", "tolerance_scale", "verdicts"]


class Claim(NamedTuple):
    """One comparison: expressions over the grid's view and
    :data:`FUNCTIONS`; ``bound`` is ``(lo, hi)`` when ``relation`` is
    ``"in"``.  ``paper`` is the paper's own number, where the source
    states it."""

    ref: str
    paper: Optional[str]
    measured: str
    relation: str
    bound: Union[str, Tuple[str, str]]

    def __str__(self) -> str:
        if self.relation == "in":
            lo, hi = self.bound
            return f"{self.ref}: {lo} < {self.measured} < {hi}"
        return f"{self.ref}: {self.measured} {self.relation} {self.bound}"


def tolerance_scale() -> float:
    """Multiplier on the sim-vs-real tolerance, read from
    ``REPRO_RT_TOLERANCE_SCALE`` (default 1; CI raises it on shared
    runners, whose clocks and schedulers are noisy)."""
    return float(os.environ.get("REPRO_RT_TOLERANCE_SCALE", "1.0"))


_RELATIONS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
              ast.Eq: "=="}
_HOLDS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "==": operator.eq,
          "in": lambda value, bound: bound[0] < value < bound[1]}

#: What a claim's expressions may call besides the grid's quantities.
FUNCTIONS = {
    "abs": abs, "len": len, "max": max, "min": min, "sum": sum,
    "mbps": pps_to_mbps, "tolerance_scale": tolerance_scale,
    "share": lambda rates: [r / sum(rates) for r in rates],
}

#: A claim whose expressions raise one of these cannot be evaluated on
#: the rows given, and fails (``NameError``: the rows lack a quantity).
UNEVALUABLE = (ArithmeticError, LookupError, NameError)


def _claim(ref: str, row) -> Claim:
    """A table row — the comparison, or ``(paper, comparison)`` — as a
    :class:`Claim`."""
    paper, text = row if isinstance(row, tuple) else (None, row)
    tree = ast.parse(text, mode="eval").body
    lo, *rest = (ast.get_source_segment(text, node)
                 for node in (tree.left, *tree.comparators))
    relations = [_RELATIONS[type(op)] for op in tree.ops]
    if relations == ["<", "<"]:
        return Claim(ref, paper, rest[0], "in", (lo, rest[1]))
    (relation,), (bound,) = relations, rest
    return Claim(ref, paper, lo, relation, bound)


def _verdict(claim: Claim, names: dict) -> Optional[str]:
    try:
        value = eval(claim.measured, names)
        bound = (tuple(eval(b, names) for b in claim.bound)
                 if claim.relation == "in" else eval(claim.bound, names))
    except UNEVALUABLE as exc:
        return f"{claim}: {type(exc).__name__}: {exc}"
    values = value if isinstance(value, list) else [value]
    bounds = bound if isinstance(bound, list) else [bound] * len(values)
    for i, (v, b) in enumerate(zip(values, bounds)):
        if not _HOLDS[claim.relation](v, b):
            at = f" at [{i}]" if isinstance(value, list) else ""
            b = b if isinstance(b, tuple) else f"{b:.6g}"
            paper = f" (paper: {claim.paper})" if claim.paper else ""
            return f"{claim}: measured {v:.6g}{at}, bound {b}{paper}"
    return None


def verdicts(grid: str, rows: List[dict]) -> List[Optional[str]]:
    """Each of ``grid``'s claims on ``rows``, in table order: ``None``
    where it holds, else the line :func:`failed_claim` would return."""
    view, claims = CLAIMS[grid]
    try:
        names = {**view(rows), **FUNCTIONS, "__builtins__": {}}
    except UNEVALUABLE as exc:
        return [f"{claim}: {type(exc).__name__}: {exc}" for claim in claims]
    return [_verdict(claim, names) for claim in claims]


def failed_claim(grid: str, rows: List[dict]) -> Optional[str]:
    """Evaluate ``grid``'s claims on ``rows``: ``None`` when they all
    hold, else one line naming the first failing claim, its measured
    value and its bound (or why it could not be evaluated)."""
    return next(filter(None, verdicts(grid, rows)), None)


View = Callable[[List[dict]], dict]


def _points(name: str) -> View:
    """The view naming every cell ``name.format(cell=<key>, **row)``."""
    return lambda rows: {name.format(cell=cell, **row): value
                         for row in rows for cell, value in row.items()}


def _flows(rows: List[dict]) -> dict:
    """algo -> its three flows' goodput in Mb/s."""
    return {row["algo"]: [pps_to_mbps(row[f"f{i}_pps"]) for i in range(3)]
            for row in rows}


def _recompute(rows: List[dict]) -> dict:
    pairs = [pair for row in rows for pair in zip(
        (row["path1_pps"], row["path2_pps"]), row["rates"])]
    return {"totals": [row["total_pps"] for row in rows],
            "path_pps": [pps for pps, _ in pairs],
            "link_rates": [rate for _, rate in pairs]}


def _grid(ref: str, view: View, *rows) -> Tuple[View, List[Claim]]:
    return view, [_claim(ref, row) for row in rows]


#: Grid name -> (its view, its claims in evaluation order).
CLAIMS: Dict[str, Tuple[View, List[Claim]]] = {
    # A two-path flow at one bottleneck against single-path TCPs: a ratio
    # of 2 is as greedy as two TCPs, 1 is fair.
    "paper_fig1": _grid(
        "§2.1 Fig 1", _points("{algo}_{cell}"),
        ("2", "1.5 < uncoupled_ratio < 2.7"),
        ("1", "0.7 < mptcp_ratio < 1.6"),
        ("1", "0.7 < ewtcp_ratio < 1.6"),
        ("1", "0.6 < coupled_ratio < 1.5"),
        "uncoupled_ratio > mptcp_ratio"),
    # The erratum in action: the literal 1/sqrt(n) weight is
    # substantially more aggressive than fair; 1/n^2 lands near 1.
    "paper_ablation_ewtcp_weight": _grid(
        "Ablation: EWTCP weight",
        _points("literal_{controller_kwargs[a_literal_paper]}_{cell}"),
        "literal_True_ratio > literal_False_ratio",
        "0.6 < literal_False_ratio < 1.6"),
    # With SACK the flow fills both idle links.
    "paper_ablation_sack": _grid(
        "Ablation: SACK", _points("sack_{enable_sack}_{cell}"),
        "sack_True_total_pps >= sack_False_total_pps",
        "sack_True_total_pps > 0.93 * sum(sack_True_rates)"),
    # Per-ACK, per-window and RFC 6356's cached alpha implement the same
    # design (within ~20%); each fills both links, so the split follows
    # the capacities.
    "paper_ablation_recompute": _grid(
        "Ablation: eq. (1)", _recompute,
        "min(totals) > 0.75 * max(totals)",
        "path_pps >= [0.9 * rate for rate in link_rates]"),
    # Bursty CBR on link 1 (the top link); link 2 is full for everyone.
    # COUPLED is trapped off the top link, MPTCP and EWTCP recover and
    # are comparable.
    "paper_dynamic_cbr": _grid(
        "§3 dynamic table", _points("{algo}_{cell}"),
        "[mbps(ewtcp_path2_pps), mbps(mptcp_path2_pps),"
        " mbps(coupled_path2_pps)] > 90.0",
        "mbps(mptcp_path1_pps) > 2.0 * mbps(coupled_path1_pps)",
        "mbps(ewtcp_path1_pps) > 2.0 * mbps(coupled_path1_pps)",
        ("MPTCP 83 vs EWTCP 85",
         "0.5 < mbps(mptcp_path1_pps) / mbps(ewtcp_path1_pps) < 2.0")),
    # The counterintuitive outcome: M is close to S2 (the fast-path TCP),
    # far above the naive 250 pkt/s split, while S1, sharing its slow
    # link with M, lands well below 250; M beats what it would get on
    # the best single path alone (link 2 is full).
    "paper_rtt_sim": _grid(
        "§5 wired sim", _points("{cell}"),
        "total_pps > 0.75 * s2_pps",
        "s1_pps < 0.75 * 250.0",
        "total_pps + s2_pps > 450.0"),
    # COUPLED concentrates on one-hop paths and clearly beats EWTCP;
    # MPTCP lands in between.  (The fluid fixed points, 8.5 and 12 Mb/s,
    # are tests/test_fluid.py's.)
    "paper_fig2": _grid(
        "§2.2 Fig 2", _flows,
        "sum(coupled) / 3 > sum(mptcp) / 3",
        "sum(mptcp) / 3 > sum(ewtcp) / 3 * 0.99"),
    # EWTCP's static split reproduces the paper's numbers almost exactly
    # (its equilibrium is unique and stable).  COUPLED's packet-level
    # split is *not* held to (10,10,10): with equal losses its per-flow
    # split is indeterminate (§2.2) and at finite windows it wanders /
    # traps (§2.4); the fluid fixed point (tests/test_fluid.py) carries
    # the paper's claim, and here the links must stay busy.
    "paper_fig3": _grid(
        "§2.2 Fig 3", _flows,
        ("11", "abs(ewtcp[0] - 11.0) <= 0.15 * abs(11.0)"),
        ("11", "abs(ewtcp[1] - 11.0) <= 0.15 * abs(11.0)"),
        ("8", "abs(ewtcp[2] - 8.0) <= 0.15 * abs(8.0)"),
        "sum(coupled) > 20.0"),
    # Path 0 is WiFi, path 1 is 3G: the orderings that make EWTCP and
    # COUPLED undesirable (closed forms: tests/test_fluid.py), and
    # MPTCP's RTT compensation beating both.
    "paper_fig4": _grid(
        "§2.3 Fig 4", _points("{flow}_{cell}"),
        "coupled_total_pps < 0.5 * ewtcp_total_pps",
        "ewtcp_total_pps < 0.8 * tcp0_total_pps",
        "mptcp_total_pps > 1.2 * ewtcp_total_pps"),
    # SEMICOUPLED is clearly biased away from the lossy path 2 but keeps
    # non-trivial probe traffic on it (unlike COUPLED); EWTCP splits by
    # per-path TCP fairness, so the lossy path keeps a larger share.
    "paper_semicoupled": _grid(
        "§2.4", _points("{flow}_{cell}"),
        "share(semicoupled_path_pps)[2] < 0.2",
        "share(semicoupled_path_pps)[2] > share(coupled_path_pps)[2]",
        "abs(share(semicoupled_path_pps)[0]"
        " - share(semicoupled_path_pps)[1]) < 0.15",
        "share(ewtcp_path_pps)[2] > share(semicoupled_path_pps)[2]"),
    # Link 1's flows start far ahead of link 2's; the multipath flows
    # put most of their traffic on the emptier link 1, and the gap
    # between the groups narrows substantially.
    "paper_fig10": _grid(
        "§3 Fig 10", _points("{cell}"),
        ("~3x", "g1_before_pps > 2.0 * g2_before_pps"),
        "multi_link1_pps > 2.0 * multi_link2_pps",
        "g1_after_pps / g2_after_pps"
        " < 0.7 * (g1_before_pps / g2_before_pps)"),
    # The paper's ordering, MPTCP best and EWTCP worst, with all three
    # sharing two 100 Mb/s links with churning traffic.
    "paper_poisson": _grid(
        "§3 Poisson table", _points("{cell}"),
        "completions > 1000",
        "mbps(mptcp_pps) > mbps(ewtcp_pps)",
        "mbps(mptcp_pps) > 0.9 * mbps(coupled_pps)",
        "10.0 < [mbps(mptcp_pps), mbps(coupled_pps), mbps(ewtcp_pps)]"
        " < 100.0"),
    # The headline: MPTCP gets about the sum of the access links, and of
    # their nominal rates.
    "paper_wireless_static": _grid(
        "§5 static", _points("{flow}_{cell}"),
        "mbps(tcp_wifi_total_pps) > 10.0",
        "1.5 < mbps(tcp_3g_total_pps) < 2.2",
        "mbps(mptcp_total_pps)"
        " > 0.85 * (mbps(tcp_wifi_total_pps) + mbps(tcp_3g_total_pps))",
        ("14.4 + 2.1", "mbps(mptcp_total_pps) > 0.8 * (14.4 + 2.1)"),
        "mbps(mptcp_total_pps) > mbps(tcp_wifi_total_pps)"),
    # MPTCP gets the best multipath throughput of the three algorithms.
    # COUPLED starves the multipath flow's WiFi side and squats on 3G,
    # so the WiFi competitor does best under COUPLED.  MPTCP's total is
    # comparable to the best single-path flow's (fair).
    "paper_fig15": _grid(
        "§5 Fig 15", _points("{flow}_{cell}"),
        "mbps(mptcp_total_pps) > mbps(ewtcp_total_pps)",
        "mbps(mptcp_total_pps) > 1.3 * mbps(coupled_total_pps)",
        ("3.49", "mbps(coupled_tcp_wifi_pps) > mbps(mptcp_tcp_wifi_pps)"),
        "coupled_wifi_pps < 0.5 * mptcp_wifi_pps",
        "mbps(mptcp_total_pps) > 0.6 * mbps(mptcp_tcp_wifi_pps)"),
    # The connection survives the WiFi outage on 3G alone (> 1 Mb/s of
    # the 2.8 Mb/s 3G), takes the new, weaker basestation back within
    # its phase (total clearly above 3G-only, the WiFi subflow carrying
    # real traffic again), and while WiFi is good uses both media,
    # sharing WiFi with the competing TCP.  175 pkt/s is 2.1 Mb/s.
    "paper_fig17": _grid(
        "§5 Fig 17", _points("{cell}"),
        "stairwell_pps > 0.5 * 175.0",
        "wifi_stairwell_pps < 0.1 * wifi_good_pps",
        "recovered_pps > 1.3 * stairwell_pps",
        "wifi_recovered_pps > 10.0 * max(wifi_stairwell_pps, 1e-9)",
        "wifi_recovered_pps > 0.3 * 175.0",
        "good_pps > 2.0 * 175.0",
        "wifi_good_pps > 175.0"),
    # TP1: multipath finds the capacity a single random shortest path
    # misses; TP3 (sparse): multipath saturates the NIC; TP2 (local
    # replication): single shortest-hop paths are already good.
    "paper_fattree": _grid(
        "§4 FatTree table", _points("{algo}_{pattern}_{cell}"),
        ("51 -> 92/95", "mptcp_TP1_util_pct > single_TP1_util_pct + 15"),
        ("51 -> 92/95", "ewtcp_TP1_util_pct > single_TP1_util_pct + 15"),
        ("95", "mptcp_TP1_util_pct > 75"),
        ("99", "mptcp_TP3_util_pct > single_TP3_util_pct"),
        ("all within ~10%", "single_TP2_util_pct > 70")),
    # A large step from 1 to 2+ paths, ~90% by 8 paths.
    "paper_fig12_paths": _grid(
        "§4 Fig 12", _points("paths{paths}_{cell}"),
        "paths2_util_pct > paths1_util_pct + 10",
        ("~90%", "paths8_util_pct > 80"),
        "paths8_util_pct >= paths2_util_pct - 5"),
    # MPTCP allocates throughput more fairly than EWTCP, which beats
    # single-path's lottery of congested shortest paths, and lifts the
    # worst flows (the paper's fairness argument).
    "paper_fig13": _grid(
        "§4 Fig 13", _points("{algo}_{cell}"),
        "mptcp_jain > ewtcp_jain - 0.02",
        "mptcp_jain > single_jain",
        "mptcp_rate_quartiles[0] > single_rate_quartiles[0]"),
    # TP3 sparse: multipath exploits all 3 interfaces, single uses one;
    # TP1: multipath beats single-path; TP2 locality: shortest-hop
    # single paths win, and MPTCP loses less than EWTCP.
    "paper_bcube": _grid(
        "§4 BCube table", _points("{algo}_{pattern}_{cell}"),
        ("78 -> 135/139", "mptcp_TP3_util_pct > 1.3 * single_TP3_util_pct"),
        ("64.5 -> 84/86.5", "mptcp_TP1_util_pct > single_TP1_util_pct"),
        ("297 vs 229/272", "single_TP2_util_pct > mptcp_TP2_util_pct"),
        ("297 vs 229/272",
         "mptcp_TP2_util_pct > 0.95 * ewtcp_TP2_util_pct")),
    # At equal capacities EWTCP and MPTCP balance (ratio ~1); COUPLED's
    # winner-take-all wandering makes its loss ratio noisy even there
    # (losses are near zero at equal capacities), so it gets a wide
    # band.  Squeezing link C: COUPLED balances best, EWTCP worst, and
    # the fairness of flow totals mirrors the paper's ordering.
    "fig8_torus": _grid(
        "§3 Fig 8", _points("{algo}_{capacity_c:.0f}_{cell}"),
        "0.5 < ewtcp_1000_pa_pc_ratio < 2.0",
        "0.5 < mptcp_1000_pa_pc_ratio < 2.0",
        "0.1 < coupled_1000_pa_pc_ratio < 10.0",
        "coupled_100_pa_pc_ratio > mptcp_100_pa_pc_ratio",
        "mptcp_100_pa_pc_ratio > ewtcp_100_pa_pc_ratio",
        "coupled_250_pa_pc_ratio > mptcp_250_pa_pc_ratio",
        "mptcp_250_pa_pc_ratio > ewtcp_250_pa_pc_ratio",
        "mptcp_100_jain > ewtcp_100_jain",
        "mptcp_250_jain > ewtcp_250_jain"),
    # Away from the tiny-BDP corner, M is within a reasonable band of the
    # best single-path flow.
    "fig16_rtt": _grid(
        "§5 Fig 16", lambda rows: {"comfortable": [
            row["ratio"] for row in rows if row["c2"] * row["rtt2"] > 30.0]},
        "comfortable > 0.6",
        ("within a few percent of 1",
         "sum(comfortable) / len(comfortable) > 0.8")),
    # The implementation against its simulation, on the lan profile
    # (docs/REALNET.md); lossy_lan is measured, not gated, and cwnd_mean
    # is too noisy over a 2 s window to gate.
    "rt_loopback": _grid(
        "Implementation", _points("{tier}_{netem}_{cell}"),
        "packet_lan_delivery_gap == 0",
        "rt_lan_delivery_gap == 0",
        "abs(rt_lan_goodput_mean - packet_lan_goodput_mean)"
        " <= 0.35 * tolerance_scale() * abs(packet_lan_goodput_mean)",
        "abs(rt_lan_delivered_bytes - packet_lan_delivered_bytes)"
        " <= 0.35 * tolerance_scale() * abs(packet_lan_delivered_bytes)"),
}
