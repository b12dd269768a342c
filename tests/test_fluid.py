"""Tests for the fluid/equilibrium models against the paper's arithmetic."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import (
    FluidFlow,
    FluidNetwork,
    coupled_windows,
    ewtcp_windows,
    mptcp_equilibrium_windows,
    satisfies_goal_3,
    satisfies_goal_4,
    semicoupled_weights,
    semicoupled_windows,
    solve_equilibrium,
    tcp_rate,
    tcp_reference_windows,
    tcp_window,
)
from repro.net.network import mbps_to_pps, pps_to_mbps


class TestClosedForms:
    def test_tcp_window_formula(self):
        assert tcp_window(0.02) == pytest.approx(10.0)

    def test_section_2_3_wifi_3g_rates(self):
        """§2.3: 'A single-path wifi flow would get 707 pkt/s, and a
        single-path 3G flow would get 141 pkt/s.'"""
        assert tcp_rate(0.04, 0.010) == pytest.approx(707.1, rel=1e-3)
        assert tcp_rate(0.01, 0.100) == pytest.approx(141.4, rel=1e-3)

    def test_ewtcp_default_gives_tcp_over_n(self):
        windows = ewtcp_windows([0.01, 0.01])
        assert windows[0] == pytest.approx(tcp_window(0.01) / 2)

    def test_ewtcp_section_2_3_example(self):
        """EWTCP total = (707+141)/2 = 424 pkt/s on the WiFi/3G pair."""
        windows = ewtcp_windows([0.04, 0.01])
        total = windows[0] / 0.010 + windows[1] / 0.100
        assert total == pytest.approx(424.3, rel=1e-2)

    def test_coupled_concentrates_on_least_congested(self):
        windows = coupled_windows([0.02, 0.01, 0.03])
        assert windows[0] == 0.0 and windows[2] == 0.0
        assert windows[1] == pytest.approx(tcp_window(0.01))

    def test_coupled_splits_ties(self):
        windows = coupled_windows([0.01, 0.01])
        assert windows[0] == windows[1] == pytest.approx(tcp_window(0.01) / 2)

    def test_coupled_section_2_3_example(self):
        """§2.3: COUPLED sends everything on 3G -> 141 pkt/s total."""
        windows = coupled_windows([0.04, 0.01])
        total = windows[0] / 0.010 + windows[1] / 0.100
        assert total == pytest.approx(141.4, rel=1e-2)

    def test_semicoupled_paper_weight_example(self):
        """§2.4: '1% , 1%, 5% -> 45% / 45% / 10%' (45.5/45.5/9.1 exactly)."""
        weights = semicoupled_weights([0.01, 0.01, 0.05])
        assert weights[0] == pytest.approx(0.4545, abs=1e-3)
        assert weights[1] == pytest.approx(0.4545, abs=1e-3)
        assert weights[2] == pytest.approx(0.0909, abs=1e-3)

    def test_semicoupled_single_path_is_tcp(self):
        assert semicoupled_windows([0.02])[0] == pytest.approx(tcp_window(0.02))

    def test_validation(self):
        with pytest.raises(ValueError):
            tcp_window(0.0)
        with pytest.raises(ValueError):
            ewtcp_windows([])
        with pytest.raises(ValueError):
            semicoupled_windows([0.01], a=0.0)


class TestMptcpEquilibrium:
    def test_single_path_is_tcp(self):
        w = mptcp_equilibrium_windows([0.01], [0.1])
        assert w[0] == pytest.approx(tcp_window(0.01), rel=1e-3)

    def test_equal_paths_split_tcp_window(self):
        w = mptcp_equilibrium_windows([0.01, 0.01], [0.1, 0.1])
        assert w[0] == pytest.approx(w[1], rel=1e-3)
        assert sum(w) == pytest.approx(tcp_window(0.01), rel=1e-2)

    def test_prefers_less_congested_path(self):
        w = mptcp_equilibrium_windows([0.04, 0.01], [0.1, 0.1])
        assert w[1] > 2 * w[0]

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.floats(min_value=0.001, max_value=0.05),
                    min_size=n, max_size=n,
                ),
                st.lists(
                    st.floats(min_value=0.01, max_value=0.5),
                    min_size=n, max_size=n,
                ),
            )
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_equilibrium_satisfies_fairness_goals(self, case):
        """The appendix's theorem: MPTCP equilibria satisfy (3) and (4)."""
        losses, rtts = case
        windows = mptcp_equilibrium_windows(losses, rtts)
        assert satisfies_goal_3(windows, rtts, losses, slack=0.05)
        assert satisfies_goal_4(windows, rtts, losses, slack=0.05)


class TestFairnessChecks:
    def test_reference_windows(self):
        assert tcp_reference_windows([0.02]) == (pytest.approx(10.0),)

    def test_goal3_detects_shortfall(self):
        # windows far below the best TCP path
        assert not satisfies_goal_3([1.0, 1.0], [0.1, 0.1], [0.01, 0.01])

    def test_goal4_detects_overshoot(self):
        big = tcp_window(0.01) * 2
        assert not satisfies_goal_4([big, big], [0.1, 0.1], [0.01, 0.01])

    def test_tcp_itself_satisfies_both_on_one_path(self):
        w = [tcp_window(0.01)]
        assert satisfies_goal_3(w, [0.1], [0.01])
        assert satisfies_goal_4(w, [0.1], [0.01])


#: One registry name per multipath law (``mptcp`` and ``wvegas`` share
#: the ``lia`` and ``uncoupled`` laws).
MULTIPATH_LAWS = ["uncoupled", "ewtcp", "coupled", "semicoupled", "lia",
                  "olia", "balia"]


@functools.lru_cache(maxsize=None)
def chain_equilibrium(algorithm):
    """Fig 3: three two-path flows over a chain of 5/12/10/3 Mb/s links."""
    caps = {
        "L0": mbps_to_pps(5), "L1": mbps_to_pps(12),
        "L2": mbps_to_pps(10), "L3": mbps_to_pps(3),
    }
    net = FluidNetwork(dict(caps))
    net.add_flow(FluidFlow("A", [["L0"], ["L1"]], algorithm))
    net.add_flow(FluidFlow("B", [["L1"], ["L2"]], algorithm))
    net.add_flow(FluidFlow("C", [["L2"], ["L3"]], algorithm))
    return net, solve_equilibrium(net)


@functools.lru_cache(maxsize=None)
def triangle_equilibrium(algorithm):
    """Fig 2: three flows, each with a one-hop and a two-hop path over a
    triangle of 12 Mb/s links."""
    net = FluidNetwork({f"L{i}": mbps_to_pps(12) for i in range(3)})
    for i in range(3):
        net.add_flow(
            FluidFlow(
                f"f{i}",
                [[f"L{i}"], [f"L{(i + 1) % 3}", f"L{(i + 2) % 3}"]],
                algorithm,
            )
        )
    return net, solve_equilibrium(net)


class TestNetworkEquilibrium:
    def chain_network(self, algorithm):
        return chain_equilibrium(algorithm)[1]

    def triangle_network(self, algorithm):
        return triangle_equilibrium(algorithm)[1]

    def test_fig3_ewtcp_totals(self):
        """Fig 3 left: EWTCP totals are 11 / 11 / 8 Mb/s."""
        result = self.chain_network("ewtcp")
        totals = {k: pps_to_mbps(v) for k, v in result["flow_totals"].items()}
        assert totals["A"] == pytest.approx(11.0, rel=0.05)
        assert totals["B"] == pytest.approx(11.0, rel=0.05)
        assert totals["C"] == pytest.approx(8.0, rel=0.05)

    def test_fig3_coupled_equalises(self):
        """Fig 3 right: COUPLED gives every flow ~10 Mb/s and balances
        loss rates."""
        result = self.chain_network("coupled")
        totals = {k: pps_to_mbps(v) for k, v in result["flow_totals"].items()}
        for total in totals.values():
            assert total == pytest.approx(10.0, rel=0.08)
        losses = list(result["losses"].values())
        assert max(losses) / min(losses) < 2.0

    def test_fig3_mptcp_between_the_two(self):
        result = self.chain_network("mptcp")
        totals = {k: pps_to_mbps(v) for k, v in result["flow_totals"].items()}
        assert 8.0 <= totals["C"] <= 10.0
        assert 10.0 <= totals["A"] <= 11.5

    @pytest.mark.parametrize("algorithm", ["lia", "balia", "olia"])
    def test_fig3_zoo_between_ewtcp_and_coupled(self, algorithm):
        """Flow C's total sits strictly between EWTCP's 8 Mb/s and
        COUPLED's ~10 Mb/s for every design that trades the two off."""
        def total_c(algo):
            return self.chain_network(algo)["flow_totals"]["C"]
        assert total_c("ewtcp") < total_c(algorithm) < total_c("coupled")

    @pytest.mark.parametrize("topology", [chain_equilibrium,
                                          triangle_equilibrium])
    @pytest.mark.parametrize("algorithm", MULTIPATH_LAWS)
    def test_every_link_within_capacity(self, topology, algorithm):
        net, result = topology(algorithm)
        for link, capacity in net.capacities.items():
            assert result["link_arrivals"][link] <= 1.05 * capacity, link

    def test_fig2_coupled_finds_efficient_allocation(self):
        """Fig 2: COUPLED uses only one-hop paths -> 12 Mb/s per flow."""
        result = self.triangle_network("coupled")
        for name, rates in result["flow_path_rates"].items():
            assert pps_to_mbps(rates[0]) == pytest.approx(12.0, rel=0.05)
            assert pps_to_mbps(rates[1]) < 0.5

    def test_fig2_ewtcp_inefficient(self):
        """Fig 2 footnote: EWTCP gets ~5 Mb/s one-hop + ~3.5 Mb/s two-hop
        = ~8.5 Mb/s."""
        result = self.triangle_network("ewtcp")
        rates = result["flow_path_rates"]["f0"]
        assert pps_to_mbps(rates[0]) == pytest.approx(5.0, rel=0.1)
        assert pps_to_mbps(rates[1]) == pytest.approx(3.5, rel=0.15)

    def test_fig2_one_hop_rate_orders_the_zoo(self):
        """The more a design couples, the more of Fig 2's traffic it moves
        onto the one-hop path: EWTCP < LIA < BALIA < OLIA < COUPLED."""
        one_hop = [
            self.triangle_network(algo)["flow_path_rates"]["f0"][0]
            for algo in ("ewtcp", "lia", "balia", "olia", "coupled")
        ]
        assert one_hop == sorted(set(one_hop))

    def test_unknown_link_rejected(self):
        net = FluidNetwork({"L0": 100.0})
        with pytest.raises(KeyError):
            net.add_flow(FluidFlow("A", [["L1"]], "reno"))

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
    def test_non_positive_rtt_rejected_when_the_flow_is_built(self, bad):
        # Each flow binds its stepper once, and the step re-checks nothing.
        with pytest.raises(ValueError, match="rtts must be positive"):
            FluidFlow("A", [["L0"], ["L1"]], "lia", rtts=[0.1, bad])

    def test_unknown_algorithm_rejected(self):
        for algorithm, message in [
            ("quantum", "unknown fluid algorithm"),
            ("cubic", "cubic has no fluid model"),
        ]:
            net = FluidNetwork({"L0": 1000.0})
            net.add_flow(FluidFlow("A", [["L0"]], algorithm))
            with pytest.raises(ValueError, match=message):
                solve_equilibrium(net, iterations=1)

    def test_single_tcp_fills_link(self):
        net = FluidNetwork({"L0": 1000.0})
        net.add_flow(FluidFlow("A", [["L0"]], "reno"))
        result = solve_equilibrium(net)
        assert result["flow_totals"]["A"] == pytest.approx(1000.0, rel=0.05)
