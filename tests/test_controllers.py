"""Unit tests for the §2 congestion controllers (pure window arithmetic)."""

import pytest

from repro.core import (
    CoupledController,
    EwtcpController,
    LinkedIncreasesController,
    MptcpController,
    RenoController,
    SemicoupledController,
    UncoupledController,
    make_controller,
)


class FakeSubflow:
    """Minimal WindowedSubflow for controller arithmetic tests."""

    def __init__(self, cwnd=10.0, srtt=0.1, min_cwnd=1.0):
        self.cwnd = cwnd
        self._srtt = srtt
        self.min_cwnd = min_cwnd

    @property
    def srtt(self):
        return self._srtt


def attach(controller, *subflows):
    for s in subflows:
        controller.add_subflow(s)
    return controller


class TestReno:
    def test_increase_is_one_over_w(self):
        s = FakeSubflow(cwnd=10.0)
        attach(RenoController(), s).on_ack(s)
        assert s.cwnd == pytest.approx(10.1)

    def test_decrease_halves(self):
        s = FakeSubflow(cwnd=10.0)
        attach(RenoController(), s).on_loss(s)
        assert s.cwnd == pytest.approx(5.0)

    def test_decrease_floors_at_min_cwnd(self):
        s = FakeSubflow(cwnd=1.5)
        attach(RenoController(), s).on_loss(s)
        assert s.cwnd == 1.0

    def test_uncoupled_is_independent_per_subflow(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(40.0)
        c = attach(UncoupledController(), s1, s2)
        c.on_ack(s1)
        assert s1.cwnd == pytest.approx(10.1)   # 1/10, ignoring s2
        assert s2.cwnd == 40.0


class TestEwtcp:
    def test_default_weight_is_inverse_n_squared(self):
        c = attach(EwtcpController(), FakeSubflow(), FakeSubflow())
        assert c.a == pytest.approx(1.0 / 4.0)

    def test_literal_paper_weight(self):
        c = attach(
            EwtcpController(a_literal_paper=True), FakeSubflow(), FakeSubflow()
        )
        assert c.a == pytest.approx(2 ** -0.5)

    def test_explicit_weight_wins(self):
        c = attach(EwtcpController(a=0.3), FakeSubflow(), FakeSubflow())
        assert c.a == 0.3

    def test_increase_scaled_by_a(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(10.0)
        c = attach(EwtcpController(), s1, s2)
        c.on_ack(s1)
        assert s1.cwnd == pytest.approx(10.0 + 0.25 / 10.0)

    def test_decrease_is_per_subflow_halving(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(20.0)
        c = attach(EwtcpController(), s1, s2)
        c.on_loss(s2)
        assert s2.cwnd == 10.0
        assert s1.cwnd == 10.0

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            EwtcpController(a=0.0)


class TestCoupled:
    def test_increase_uses_total_window(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(30.0)
        c = attach(CoupledController(), s1, s2)
        c.on_ack(s1)
        assert s1.cwnd == pytest.approx(10.0 + 1.0 / 40.0)

    def test_decrease_subtracts_half_total(self):
        s1, s2 = FakeSubflow(30.0), FakeSubflow(10.0)
        c = attach(CoupledController(), s1, s2)
        c.on_loss(s1)
        assert s1.cwnd == pytest.approx(10.0)  # 30 - 40/2

    def test_decrease_floors_at_min(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(30.0)
        c = attach(CoupledController(), s1, s2)
        c.on_loss(s1)  # 10 - 20 < min
        assert s1.cwnd == 1.0

    def test_single_path_reduces_to_reno(self):
        s = FakeSubflow(10.0)
        c = attach(CoupledController(), s)
        c.on_ack(s)
        assert s.cwnd == pytest.approx(10.1)
        c.on_loss(s)
        assert s.cwnd == pytest.approx(10.1 / 2, rel=1e-6)


class TestSemicoupled:
    def test_increase_is_a_over_total(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(30.0)
        c = attach(SemicoupledController(a=2.0), s1, s2)
        c.on_ack(s2)
        assert s2.cwnd == pytest.approx(30.0 + 2.0 / 40.0)

    def test_decrease_is_per_subflow(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(30.0)
        c = attach(SemicoupledController(), s1, s2)
        c.on_loss(s2)
        assert s2.cwnd == 15.0
        assert s1.cwnd == 10.0

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            SemicoupledController(a=-1.0)


class TestMptcp:
    def test_equal_paths_increase(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(10.0)
        c = attach(MptcpController(), s1, s2)
        c.on_ack(s1)
        assert s1.cwnd == pytest.approx(10.0 + 1.0 / 40.0)  # 1/(n^2 w)

    def test_decrease_is_per_subflow_halving(self):
        s1, s2 = FakeSubflow(12.0), FakeSubflow(20.0)
        c = attach(MptcpController(), s1, s2)
        c.on_loss(s1)
        assert s1.cwnd == 6.0
        assert s2.cwnd == 20.0

    def test_per_window_caching_converges_to_same_increase(self):
        s1 = FakeSubflow(10.0)
        c1 = attach(MptcpController(recompute="per_window"), s1)
        c1.on_ack(s1)
        s2 = FakeSubflow(10.0)
        c2 = attach(MptcpController(recompute="per_ack"), s2)
        c2.on_ack(s2)
        assert s1.cwnd == pytest.approx(s2.cwnd)

    def test_per_window_cache_never_exceeds_uncoupled_increase(self):
        """A cached increase outlives the window it was computed at (slow
        start grows cwnd without consulting the controller); constraint
        (4)'s 1/w cap must hold at the window the ACK arrives at."""
        s1 = FakeSubflow(10.0)
        c = attach(MptcpController(recompute="per_window"), s1)
        c.on_ack(s1)          # caches 1/10, s1's increase at cwnd 10
        s1.cwnd = 40.0        # grown since, cache not yet refreshed
        c.on_ack(s1)
        assert s1.cwnd - 40.0 <= 1.0 / 40.0 + 1e-12

    def test_subflow_without_rtt_sample_uses_default(self):
        s1 = FakeSubflow(10.0, srtt=None)
        s2 = FakeSubflow(10.0, srtt=0.1)
        c = attach(MptcpController(), s1, s2)
        c.on_ack(s1)  # must not crash
        assert s1.cwnd > 10.0

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            MptcpController(recompute="sometimes")


class TestLinkedIncreases:
    def test_alpha_equal_paths(self):
        s1, s2 = FakeSubflow(10.0), FakeSubflow(10.0)
        c = attach(LinkedIncreasesController(recompute="per_ack"), s1, s2)
        c.on_ack(s1)
        assert c.alpha == pytest.approx(0.5)
        assert s1.cwnd == pytest.approx(10.0 + 0.5 / 20.0)

    def test_increase_capped_by_one_over_w(self):
        s1, s2 = FakeSubflow(1.0), FakeSubflow(100.0)
        c = attach(LinkedIncreasesController(recompute="per_ack"), s1, s2)
        before = s1.cwnd
        c.on_ack(s1)
        assert s1.cwnd - before <= 1.0 / before + 1e-9

    def test_alpha_cached_within_window(self):
        s1, s2 = FakeSubflow(50.0), FakeSubflow(50.0)
        c = attach(LinkedIncreasesController(recompute="per_window"), s1, s2)
        c.on_ack(s1)
        alpha_first = c.alpha
        s2.cwnd = 500.0  # alpha would change if recomputed
        c.on_ack(s1)
        assert c.alpha == alpha_first

    def test_loss_invalidates_alpha(self):
        s1, s2 = FakeSubflow(50.0), FakeSubflow(50.0)
        c = attach(LinkedIncreasesController(), s1, s2)
        c.on_ack(s1)
        c.on_loss(s1)
        s1.cwnd = 5.0
        c.on_ack(s1)  # must refresh without error
        assert c.alpha > 0


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("reno", RenoController),
            ("uncoupled", UncoupledController),
            ("ewtcp", EwtcpController),
            ("coupled", CoupledController),
            ("semicoupled", SemicoupledController),
            ("mptcp", MptcpController),
            ("lia", LinkedIncreasesController),
        ],
    )
    def test_registry_builds_right_type(self, name, cls):
        assert isinstance(make_controller(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_controller("MPTCP"), MptcpController)

    def test_fresh_instances(self):
        assert make_controller("mptcp") is not make_controller("mptcp")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_controller("turbo")

    def test_kwargs_forwarded(self):
        c = make_controller("ewtcp", a=0.125)
        assert c.a == 0.125

    def test_double_registration_rejected(self):
        c = RenoController()
        s = FakeSubflow()
        c.add_subflow(s)
        with pytest.raises(ValueError):
            c.add_subflow(s)


class TestCubic:
    """The §8 extension: CUBIC growth dynamics."""

    def _subflow_with_sim(self, cwnd=10.0):
        from repro.sim.simulation import Simulation

        sim = Simulation(seed=1)
        s = FakeSubflow(cwnd=cwnd)
        s.sim = sim
        return s, sim

    def test_loss_decreases_by_beta(self):
        from repro.core.cubic import CubicController

        s, _sim = self._subflow_with_sim(cwnd=100.0)
        c = attach(CubicController(), s)
        c.on_loss(s)
        assert s.cwnd == pytest.approx(70.0)

    def test_growth_accelerates_past_plateau(self):
        """Window growth is slow near w_max (plateau) and faster well
        after it (convex probing)."""
        from repro.core.cubic import CubicController

        s, sim = self._subflow_with_sim(cwnd=100.0)
        c = attach(CubicController(), s)
        c.on_loss(s)  # w_max=100, cwnd=70
        growth = []
        for step in range(1, 40):
            sim.scheduler.now = step * 0.5
            before = s.cwnd
            c.on_ack(s)
            growth.append(s.cwnd - before)
        # growth right before reaching w_max is smaller than growth at the
        # end of the probe phase
        assert s.cwnd > 100.0  # it did pass the old maximum
        assert max(growth[-5:]) > min(growth[:5])

    def test_faster_than_reno_on_long_fat_path(self):
        """CUBIC's raison d'etre: recover a large window quickly."""
        from repro.core.cubic import CubicController
        from repro.core.uncoupled import RenoController

        def climb(controller_cls):
            s, sim = self._subflow_with_sim(cwnd=700.0)
            c = attach(controller_cls(), s)
            c.on_loss(s)
            # ack clock at ~cwnd/rtt with rtt=0.1 for 20 seconds
            for step in range(2000):
                sim.scheduler.now = step * 0.01
                c.on_ack(s)
            return s.cwnd

        assert climb(CubicController) > climb(RenoController)

    def test_registry_has_cubic(self):
        from repro.core.cubic import CubicController

        assert isinstance(make_controller("cubic"), CubicController)

    def test_timeout_resets_epoch(self):
        from repro.core.cubic import CubicController

        s, sim = self._subflow_with_sim(cwnd=50.0)
        c = attach(CubicController(), s)
        c.on_ack(s)
        c.on_timeout(s)
        state = c._state[id(s)]
        assert state["epoch_start"] is None
