"""Integration tests of the paper's headline claims (scaled-down runs).

Each test reads a row off a registered point function
(``repro.exp.paper`` / ``repro.exp.grids`` — the full-scale grids are
``python -m repro sweep paper``); these are fast versions with loose
tolerances that pin down the *direction and rough factor* of each §2
design argument, so a regression in the congestion-control machinery
fails the suite.
"""

import functools

from repro.exp import SCENARIOS, ScenarioSpec
from repro.net.network import mbps_to_pps


@functools.lru_cache(maxsize=None)
def point(scenario, seed, warmup, duration, **params):
    """One row of a registered point function; a point several tests read
    is simulated once."""
    return SCENARIOS[scenario](ScenarioSpec(
        scenario, params, seed=seed, warmup=warmup, duration=duration
    ))


def shared_bottleneck_ratio(algo):
    return point("shared_bottleneck", 11, 30.0, 120.0, algo=algo)["ratio"]


class TestSection21Fairness:
    """§2.1 / Fig 1: behaviour of a two-path flow at a shared bottleneck."""

    def test_uncoupled_takes_double(self):
        ratio = shared_bottleneck_ratio("uncoupled")
        assert 1.5 < ratio < 2.7

    def test_mptcp_is_roughly_fair(self):
        ratio = shared_bottleneck_ratio("mptcp")
        assert 0.7 < ratio < 1.6

    def test_ewtcp_is_roughly_fair(self):
        ratio = shared_bottleneck_ratio("ewtcp")
        assert 0.7 < ratio < 1.6

    def test_coupled_is_roughly_fair(self):
        ratio = shared_bottleneck_ratio("coupled")
        assert 0.6 < ratio < 1.5

    def test_uncoupled_beats_mptcp_in_aggression(self):
        assert shared_bottleneck_ratio("uncoupled") > shared_bottleneck_ratio(
            "mptcp"
        )


class TestTwoPathEfficiency:
    def test_mptcp_fills_two_independent_links(self):
        """A two-path MPTCP flow over two idle 500 pkt/s links should get
        ~1000 pkt/s (the §5 'sum of access links' claim, wired version)."""
        row = point("two_links", 3, 20.0, 60.0, algo="mptcp")
        assert row["total_pps"] > 930.0

    def test_split_follows_capacity(self):
        row = point(
            "two_links", 4, 20.0, 60.0, algo="mptcp",
            rates=(300.0, 900.0), buffers=(30, 90),
        )
        assert row["path2_pps"] > 2 * row["path1_pps"]


class TestSection24Trapping:
    """§2.4 / Fig 9: COUPLED gets trapped off a bursty link; MPTCP and
    EWTCP keep probing and recover."""

    @staticmethod
    def bursty(algo, seed, duration):
        rate = mbps_to_pps(100)
        return point(
            "two_links", seed, 10.0, duration, algo=algo, cross="cbr",
            rates=(rate, rate), delays=(0.005, 0.005),
        )

    def test_mptcp_recovers_much_better_than_coupled(self):
        def top_link_rate(algo):
            return self.bursty(algo, 5, 40.0)["path1_pps"]

        assert top_link_rate("mptcp") > 2.0 * top_link_rate("coupled")

    def test_bottom_link_stays_full(self):
        row = self.bursty("mptcp", 6, 30.0)
        assert row["path2_pps"] > 0.9 * mbps_to_pps(100)


def torus(algo):
    """Link C squeezed to a quarter; both torus tests read these rows."""
    return point("torus_balance", 9, 30.0, 90.0, algo=algo, capacity_c=250.0)


class TestSection3Torus:
    def test_balance_ordering_coupled_best_ewtcp_worst(self):
        """Fig 8: when link C shrinks, COUPLED balances congestion best,
        EWTCP worst, MPTCP in between (ratio pA/pC closest to 1 wins)."""
        ratios = {
            algo: torus(algo)["pa_pc_ratio"]
            for algo in ("ewtcp", "mptcp", "coupled")
        }
        assert ratios["coupled"] > ratios["mptcp"] > ratios["ewtcp"]


class TestSection5RttCompensation:
    def test_mptcp_total_at_least_sum_of_wireless_links_when_idle(self):
        """§5 static single-flow test: MPTCP over idle WiFi+3G gets about
        the sum of the two access rates (paper: 14.4 + 2.1 -> 17.3)."""
        row = point(
            "wireless_client", 10, 30.0, 60.0, flow="mptcp", wifi_loss=0.003
        )
        total_capacity = mbps_to_pps(14.4) + mbps_to_pps(2.1)
        assert row["total_pps"] > 0.8 * total_capacity

    def test_coupled_underuses_wifi_when_competing(self):
        """§2.3/§5: with competing TCPs, COUPLED retreats to the
        less-congested overbuffered 3G path and wastes WiFi capacity;
        MPTCP's RTT compensation gets clearly more total throughput."""
        def run(algo):
            return point(
                "wireless_client", 11, 40.0, 120.0, flow=algo, competing=1
            )

        mptcp = run("mptcp")
        coupled = run("coupled")
        assert mptcp["total_pps"] > 1.3 * coupled["total_pps"]
        # COUPLED leaves the WiFi path nearly idle (its wifi subflow rate
        # is a trickle compared to MPTCP's).
        assert coupled["wifi_pps"] < 0.5 * mptcp["wifi_pps"]


class TestEquilibriumAgainstFluidModel:
    # The per-algorithm split-vs-fluid comparison lives in
    # tests/test_differential_fluid.py, parametrized over the whole
    # controller registry.

    def test_jain_index_improves_with_coupling_on_torus(self):
        """§3: COUPLED/MPTCP yield better flow-rate fairness than EWTCP
        when capacities are unequal."""
        results = {algo: torus(algo)["jain"] for algo in ("ewtcp", "mptcp")}
        assert results["mptcp"] > results["ewtcp"]
