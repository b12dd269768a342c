"""Unit tests for the round-2 zoo controllers: OLIA, BALIA, wVegas.

The registry-parametrized suites (differential-fluid, invariant monitor,
ssthresh ordering, fault harness) already exercise these controllers
end-to-end; here we pin the arithmetic the fluid model cannot see —
OLIA's path-set α assignment and its known single-best-path oscillation
(Kimura & Loureiro), BALIA's α-modulated bounds, wVegas' base-RTT
estimator under Karn suppression, and each controller's
``on_subflow_set_change`` invalidation.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BaliaController,
    OliaController,
    WVegasController,
    make_controller,
)
from repro.tcp.rtt import RttEstimator


class FakeSubflow:
    """Minimal WindowedSubflow (plus base_rtt) for controller tests."""

    def __init__(self, cwnd=10.0, srtt=0.1, min_cwnd=1.0, base_rtt=None):
        self.cwnd = cwnd
        self.srtt = srtt
        self.min_cwnd = min_cwnd
        self.base_rtt = base_rtt


def _attach(controller, *subflows):
    for s in subflows:
        controller.add_subflow(s)
    return controller


windows_st = st.lists(
    st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=4
)
rtts_st = st.lists(
    st.floats(min_value=0.001, max_value=2.0), min_size=1, max_size=4
)


# ----------------------------------------------------------------------
# OLIA
# ----------------------------------------------------------------------
class TestOlia:
    def test_registry_name(self):
        assert make_controller("olia").name == "olia"

    def test_alpha_routes_growth_to_best_small_window_path(self):
        """A best-quality path without the biggest window is 'collected':
        it gets +1/(n·|collected|), the max-window path −1/(n·|maxw|)."""
        c = OliaController(recompute="per_ack")
        big = FakeSubflow(cwnd=40.0)
        small = FakeSubflow(cwnd=5.0)
        _attach(c, big, small)
        # Make `small` the best path: long inter-loss epochs.
        c._epochs(small)[0] = 400.0
        c._epochs(big)[0] = 50.0
        alphas = c._compute_alphas()
        assert alphas[id(small)] == pytest.approx(1.0 / 2.0)
        assert alphas[id(big)] == pytest.approx(-1.0 / 2.0)
        # The α terms are a zero-sum transfer of growth.
        assert sum(alphas.values()) == pytest.approx(0.0)

    def test_single_best_path_zeroes_all_alphas(self):
        """When the best path already holds the largest window the
        collected set is empty and every α vanishes — the regime behind
        the Kimura & Loureiro oscillation discussion."""
        c = OliaController(recompute="per_ack")
        best_and_biggest = FakeSubflow(cwnd=40.0)
        other = FakeSubflow(cwnd=5.0)
        _attach(c, best_and_biggest, other)
        c._epochs(best_and_biggest)[0] = 400.0
        c._epochs(other)[0] = 50.0
        alphas = c._compute_alphas()
        assert alphas == {id(best_and_biggest): 0.0, id(other): 0.0}

    def test_single_best_path_oscillation_stays_bounded(self):
        """Regression for the known OLIA oscillation case: two paths with
        identical quality leapfrog each other for the max-window slot, so
        the sign of α flips every recompute.  The windows must oscillate
        around equality, not diverge or collapse."""
        c = OliaController(recompute="per_ack")
        a = FakeSubflow(cwnd=10.0)
        b = FakeSubflow(cwnd=10.1)
        _attach(c, a, b)
        # Identical path quality: best = {a, b}, maxw flips with the lead.
        c._epochs(a)[0] = 100.0
        c._epochs(b)[0] = 100.0
        gap = []
        for _ in range(4000):
            c.on_ack(a)
            c.on_ack(b)
            # Quality is pinned equal; only the windows move.
            c._epochs(a)[0] = 100.0
            c._epochs(b)[0] = 100.0
            gap.append(a.cwnd - b.cwnd)
        assert a.cwnd < 1000.0 and b.cwnd < 1000.0
        # The lead changes hands (oscillation), and stays small relative
        # to the windows themselves (bounded, no runaway divergence).
        assert min(gap) < 0.0 < max(gap)
        assert max(abs(g) for g in gap) < 2.0

    @settings(max_examples=200, deadline=None)
    @given(windows=windows_st, rtts=rtts_st, index=st.integers(0, 3))
    def test_increase_never_exceeds_one_over_w(self, windows, rtts, index):
        """The §2.5 fairness clamp: no state — including the pathological
        RTT-skew that breaks the raw OLIA rule — may push the per-ACK
        increase above 1/w_r (the ``coupled_increase_bound`` invariant)."""
        n = min(len(windows), len(rtts))
        windows, rtts = windows[:n], rtts[:n]
        index %= n
        c = OliaController(recompute="per_ack")
        subflows = [
            FakeSubflow(cwnd=w, srtt=r) for w, r in zip(windows, rtts)
        ]
        _attach(c, *subflows)
        target = subflows[index]
        assert c.increase_for(target) <= 1.0 / target.cwnd + 1e-9

    def test_loss_rolls_interloss_epoch_and_halves(self):
        c = OliaController()
        s = FakeSubflow(cwnd=20.0)
        _attach(c, s)
        c._epochs(s)[0] = 123.0
        c.on_loss(s)
        assert s.cwnd == pytest.approx(10.0)
        assert c._epochs(s) == [0.0, 123.0]

    def test_set_change_drops_stale_subflow_state(self):
        c = OliaController()
        a, b = FakeSubflow(), FakeSubflow(cwnd=50.0)
        _attach(c, a, b)
        c.on_ack(a)
        c.on_ack(b)
        assert id(b) in c._interloss
        c.remove_subflow(b)
        assert id(b) not in c._interloss
        assert not c._alphas_valid


# ----------------------------------------------------------------------
# BALIA
# ----------------------------------------------------------------------
class TestBalia:
    def test_registry_name(self):
        assert make_controller("balia").name == "balia"

    def test_single_path_reduces_to_reno(self):
        """With one path α = 1 and both rules are exactly Reno's."""
        c = BaliaController(recompute="per_ack")
        s = FakeSubflow(cwnd=10.0)
        _attach(c, s)
        assert c.increase_for(s) == pytest.approx(1.0 / 10.0)
        c.on_loss(s)
        assert s.cwnd == pytest.approx(5.0)

    @settings(max_examples=200, deadline=None)
    @given(windows=windows_st, rtts=rtts_st, index=st.integers(0, 3))
    def test_increase_never_exceeds_one_over_w(self, windows, rtts, index):
        """g(α)/α² = (1+α)(4+α)/(10α²) ≤ 1 for α ≥ 1: BALIA satisfies the
        fairness bound by construction, with no clamp in the code."""
        n = min(len(windows), len(rtts))
        windows, rtts = windows[:n], rtts[:n]
        index %= n
        c = BaliaController(recompute="per_ack")
        subflows = [
            FakeSubflow(cwnd=w, srtt=r) for w, r in zip(windows, rtts)
        ]
        _attach(c, *subflows)
        target = subflows[index]
        assert c.increase_for(target) <= 1.0 / target.cwnd + 1e-9

    def test_lagging_path_decrease_is_harsher_but_capped(self):
        """A path far behind the best rate decreases by the capped factor
        min(α, 1.5)·w/2, never more than 3/4 of the window."""
        c = BaliaController(recompute="per_ack")
        best = FakeSubflow(cwnd=100.0)
        laggard = FakeSubflow(cwnd=10.0)   # α = 10, capped at 1.5
        _attach(c, best, laggard)
        c.on_loss(laggard)
        assert laggard.cwnd == pytest.approx(10.0 - 1.5 * 10.0 / 2.0)

    def test_decrease_floors_at_min_cwnd(self):
        c = BaliaController(recompute="per_ack")
        best = FakeSubflow(cwnd=100.0)
        tiny = FakeSubflow(cwnd=1.2, min_cwnd=1.0)
        _attach(c, best, tiny)
        c.on_loss(tiny)
        assert tiny.cwnd == pytest.approx(1.0)

    def test_set_change_refreshes_alpha(self):
        """Removing the best path must immediately stop inflating the
        survivors' α (the AlphaCache invalidation pattern)."""
        c = BaliaController()
        best = FakeSubflow(cwnd=100.0)
        slow = FakeSubflow(cwnd=10.0)
        _attach(c, best, slow)
        c.on_ack(slow)            # prime the cache with best present
        c.remove_subflow(best)
        # α must now be 1 (slow is the best remaining path): pure Reno.
        assert c.increase_for(slow) == pytest.approx(1.0 / slow.cwnd)


# ----------------------------------------------------------------------
# wVegas and the base-RTT estimator hook
# ----------------------------------------------------------------------
class TestBaseRtt:
    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=1e-4, max_value=10.0),
                st.booleans(),          # True = Karn-suppressed
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_base_rtt_monotone_min_under_karn_suppression(self, samples):
        """base_rtt is a running minimum of exactly the admitted samples:
        monotonically non-increasing, equal to min(delivered so far), and
        indifferent to any Karn-suppressed subsequence (suppressed
        samples never reach ``sample()``, as in TcpSender._on_new_ack)."""
        est = RttEstimator()
        assert est.base_rtt is None
        delivered = []
        previous = math.inf
        for rtt, suppressed in samples:
            if suppressed:
                # Karn: ambiguous ACK, the sender never samples it.
                assert est.base_rtt == (min(delivered) if delivered else None)
                continue
            est.sample(rtt)
            delivered.append(rtt)
            assert est.base_rtt == pytest.approx(min(delivered))
            assert est.base_rtt <= previous
            previous = est.base_rtt

    def test_sender_exposes_base_rtt(self):
        from repro.tcp.sender import TcpSender  # noqa: F401  (API check)

        assert isinstance(getattr(TcpSender, "base_rtt"), property)


class TestWVegas:
    def test_registry_name(self):
        assert make_controller("wvegas").name == "wvegas"

    def test_no_queueing_means_increase_phase(self):
        """srtt == base_rtt → diff = 0 < α → Vegas increase (+1/w)."""
        c = WVegasController()
        s = FakeSubflow(cwnd=10.0, srtt=0.1, base_rtt=0.1)
        _attach(c, s)
        c.on_ack(s)
        assert s.cwnd == pytest.approx(10.0 + 1.0 / 10.0)

    def test_queue_backlog_above_target_means_decrease(self):
        """An inflated RTT puts diff above the α target: drift down."""
        c = WVegasController(total_alpha=10.0, alpha_floor=2.0)
        s = FakeSubflow(cwnd=30.0, srtt=0.2, base_rtt=0.1)  # diff = 15 > 10
        _attach(c, s)
        before = s.cwnd
        c.on_ack(s)
        assert s.cwnd == pytest.approx(before - 1.0 / before)

    def test_backlog_at_target_holds_window(self):
        """diff == α is the Vegas sweet spot: no adjustment."""
        c = WVegasController(total_alpha=10.0, alpha_floor=2.0)
        s = FakeSubflow(cwnd=20.0, srtt=0.2, base_rtt=0.1)  # diff = 10 = α
        _attach(c, s)
        c.on_ack(s)
        assert s.cwnd == pytest.approx(20.0)

    def test_pre_sample_acks_fall_back_to_reno(self):
        c = WVegasController()
        s = FakeSubflow(cwnd=10.0, srtt=None, base_rtt=None)
        _attach(c, s)
        c.on_ack(s)
        assert s.cwnd == pytest.approx(10.1)

    def test_weights_split_total_alpha_by_rate_share(self):
        c = WVegasController(total_alpha=10.0, alpha_floor=2.0)
        fast = FakeSubflow(cwnd=30.0, srtt=0.1, base_rtt=0.1)
        slow = FakeSubflow(cwnd=10.0, srtt=0.1, base_rtt=0.1)
        _attach(c, fast, slow)
        entry = c._entry(fast)
        c._refresh_alpha(fast, entry)
        assert c.alpha_for(fast) == pytest.approx(7.5)   # 30/40 of 10
        entry = c._entry(slow)
        c._refresh_alpha(slow, entry)
        assert c.alpha_for(slow) == pytest.approx(2.5)   # 10/40 of 10

    def test_alpha_floor_keeps_starved_subflow_probing(self):
        c = WVegasController(total_alpha=10.0, alpha_floor=2.0)
        fast = FakeSubflow(cwnd=100.0, srtt=0.1, base_rtt=0.1)
        starved = FakeSubflow(cwnd=1.0, srtt=0.1, base_rtt=0.1)
        _attach(c, fast, starved)
        entry = c._entry(starved)
        c._refresh_alpha(starved, entry)
        assert c.alpha_for(starved) == pytest.approx(2.0)

    def test_loss_halves_window(self):
        c = WVegasController()
        s = FakeSubflow(cwnd=16.0, srtt=0.1, base_rtt=0.1)
        _attach(c, s)
        c.on_loss(s)
        assert s.cwnd == pytest.approx(8.0)

    def test_set_change_recomputes_weights_over_survivors(self):
        c = WVegasController(total_alpha=10.0, alpha_floor=2.0)
        a = FakeSubflow(cwnd=10.0, srtt=0.1, base_rtt=0.1)
        b = FakeSubflow(cwnd=30.0, srtt=0.1, base_rtt=0.1)
        _attach(c, a, b)
        assert c.alpha_for(a) == pytest.approx(2.5)
        c.remove_subflow(b)
        assert id(b) not in c._state
        # a is now the whole connection: it owns all of total_alpha.
        assert c.alpha_for(a) == pytest.approx(10.0)


def test_zoo_controllers_registered():
    from repro.core.registry import ALGORITHMS

    assert {"olia", "balia", "wvegas"} <= set(ALGORITHMS)
