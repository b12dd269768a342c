"""Tests for the time-domain fluid models (window vs rate control)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import alpha
from repro.fluid import (
    coupled_windows,
    dynamics,
    ewtcp_windows,
    mptcp_equilibrium_windows,
    semicoupled_windows,
    tcp_window,
)
from repro.fluid.dynamics import (
    FLUID_ALGORITHMS,
    FluidInstabilityError,
    equilibrium_windows,
    integrate_rates_coupled,
    fluid_law,
    integrate_windows,
    step_windows,
    window_derivative,
)


class TestWindowOde:
    def test_reno_converges_to_balance_window(self):
        traj = integrate_windows("reno", [0.01], [0.1])
        assert traj.final[0] == pytest.approx(tcp_window(0.01), rel=0.02)

    def test_equilibrium_is_fixed_point(self):
        w = tcp_window(0.02)
        dw = window_derivative("reno", [w], [0.02], [0.1])
        # tiny residual from the (1-p) factor the closed form drops
        assert abs(dw[0]) < 0.05 * w

    def test_semicoupled_converges_to_closed_form(self):
        losses = [0.004, 0.0008]
        traj = integrate_windows("semicoupled", losses, [0.1, 0.1])
        expected = semicoupled_windows(losses)
        for got, want in zip(traj.final, expected):
            assert got == pytest.approx(want, rel=0.05)

    def test_coupled_concentrates_on_clean_path(self):
        losses = [0.02, 0.002]
        traj = integrate_windows("coupled", losses, [0.1, 0.1], floor=0.01)
        expected = coupled_windows(losses)
        assert traj.final[0] < 1.0          # driven to the floor
        assert traj.final[1] == pytest.approx(expected[1], rel=0.1)

    def test_mptcp_converges_to_equilibrium_solver(self):
        losses, rtts = [0.004, 0.001], [0.05, 0.2]
        traj = integrate_windows("mptcp", losses, rtts, duration=400.0)
        # The independent fixed point, not equilibrium_windows: that is
        # this same integration, and would check it against itself.
        expected = mptcp_equilibrium_windows(losses, rtts)
        for got, want in zip(traj.final, expected):
            assert got == pytest.approx(want, rel=0.08)

    def test_trajectory_positive_and_sampled(self):
        traj = integrate_windows("ewtcp", [0.01, 0.02], [0.1, 0.1])
        assert len(traj.times) == len(traj.states) > 10
        assert all(w >= 1.0 for s in traj.states for w in s)
        series = traj.series(0)
        assert series[0][0] == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            integrate_windows("psychic", [0.01], [0.1])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            integrate_windows("reno", [0.01, 0.02], [0.1])

    @pytest.mark.parametrize("duration, dt, steps", [
        (0.3, 0.1, 3),        # 0.3/0.1 = 2.9999999999999996: int() gave 2
        (0.7, 0.1, 7),        # 6.999999999999999: int() gave 6
        (1.0, 0.25, 4),
        (200.0, 0.01, 20000),  # the defaults: unchanged, goldens rest on it
    ])
    def test_step_count_rounds_instead_of_truncating(self, duration, dt, steps):
        every = 1 if steps < 100 else 100
        traj = integrate_windows("reno", [0.01], [0.1], duration=duration,
                                 dt=dt, sample_every=every)
        assert len(traj.times) == steps // every + 1
        assert traj.times[-1] == pytest.approx(duration)
        rates = integrate_rates_coupled([0.01], duration=duration, dt=dt,
                                        sample_every=every)
        assert rates.times == traj.times


class TestEquilibriumWindows:
    """The tail-averaged integration against the §2 closed forms, the
    analytic oracles it replaced in the product code."""

    LOSSES, RTTS = [0.005, 0.02], [0.1, 0.1]

    @pytest.mark.parametrize("algorithm, oracle", [
        ("uncoupled", lambda losses, rtts: [tcp_window(p) for p in losses]),
        ("ewtcp", lambda losses, rtts: ewtcp_windows(losses)),
        ("semicoupled", lambda losses, rtts: semicoupled_windows(losses)),
        ("mptcp", mptcp_equilibrium_windows),
    ])
    def test_matches_the_closed_form(self, algorithm, oracle):
        got = equilibrium_windows(algorithm, self.LOSSES, self.RTTS)
        for w, want in zip(got, oracle(self.LOSSES, self.RTTS)):
            assert w == pytest.approx(want, rel=0.03)

    def test_coupled_keeps_only_the_probe_floor_on_the_lossy_path(self):
        got = equilibrium_windows("coupled", self.LOSSES, self.RTTS)
        assert got[1] == 1.0
        assert sum(got) == pytest.approx(sum(coupled_windows(self.LOSSES)),
                                         rel=0.02)


#: Fixed states for the frozen derivative table: two paths, three paths
#: with a loss-free one (OLIA's +inf path quality), and tied windows with
#: an explicit ``a`` (OLIA's tie sets, EWTCP/SEMICOUPLED's parameter).
STATES = {
    "two_paths": dict(
        windows=[12.0, 30.0], losses=[0.01, 0.002], rtts=[0.05, 0.2], a=None),
    "three_paths_one_lossless": dict(
        windows=[8.0, 20.0, 5.5], losses=[0.004, 0.0, 0.02],
        rtts=[0.1, 0.03, 0.25], a=None),
    "tied_windows_with_a": dict(
        windows=[15.0, 15.0], losses=[0.003, 0.01], rtts=[0.08, 0.02], a=0.5),
}

#: ``window_derivative`` at those states for every fluid name, as the
#: per-path ``if algorithm == …`` chains computed them (commit cd09797).
#: Compared with ``==``: a law that drifts by one ulp fails here in
#: milliseconds instead of in a golden sweep.
DERIVATIVES = {
    "two_paths": {
        "balia": [-6.901775147928993, -5.675230769230769],
        "coupled": [-44.74285714285714, -2.735714285714286],
        "ewtcp": [-9.45, -3.2525],
        "lia": [-6.901775147928995, 0.22426035502958533],
        "mptcp": [-6.901775147928995, 0.22426035502958533],
        "olia": [-6.901775147928995, -3.7618343195266273],
        "reno": [5.399999999999999, 0.49000000000000016],
        "semicoupled": [-8.742857142857142, -0.9357142857142855],
        "single": [5.399999999999999, 0.49000000000000016],
        "uncoupled": [5.399999999999999, 0.49000000000000016],
        "wvegas": [5.399999999999999, 0.49000000000000016],
    },
    "three_paths_one_lossless": {
        "balia": [-0.6781176297136549, 25.073798457309476, -1.470194487174376],
        "coupled": [-2.981492537313433, 19.900497512437813, -6.726417910447762],
        "ewtcp": [-0.1733333333333334, 3.7037037037037037, -0.7744444444444445],
        "lia": [1.716820391617628, 25.073798457309476, -0.39911335789061175],
        "mptcp": [1.716820391617628, 25.073798457309476, -0.39911335789061175],
        "olia": [-1.1721144659017655, 25.073798457309476, -1.206788888897247],
        "reno": [8.68, 33.333333333333336, 2.7100000000000004],
        "semicoupled": [1.098507462686567, 19.900497512437813, -0.5664179104477612],
        "single": [8.68, 33.333333333333336, 2.7100000000000004],
        "uncoupled": [8.68, 33.333333333333336, 2.7100000000000004],
        "wvegas": [8.68, 33.333333333333336, 2.7100000000000004],
    },
    "tied_windows_with_a": {
        "balia": [-4.334125, -24.569999999999997],
        "coupled": [-2.2062500000000003, -87.75],
        "ewtcp": [2.0124999999999997, -31.499999999999996],
        "lia": [3.757249999999999, -24.569999999999997],
        "mptcp": [3.757249999999999, -24.569999999999997],
        "olia": [-3.7202499999999996, -24.569999999999997],
        "reno": [8.243749999999999, -6.749999999999996],
        "semicoupled": [-1.1031250000000001, -43.875],
        "single": [8.243749999999999, -6.749999999999996],
        "uncoupled": [8.243749999999999, -6.749999999999996],
        "wvegas": [8.243749999999999, -6.749999999999996],
    },
}


class TestKernel:
    @pytest.mark.parametrize("state", sorted(STATES))
    def test_derivatives_frozen_for_every_fluid_algorithm(self, state):
        assert set(DERIVATIVES[state]) == FLUID_ALGORITHMS
        s = STATES[state]
        for algorithm, expected in DERIVATIVES[state].items():
            got = window_derivative(
                algorithm, s["windows"], s["losses"], s["rtts"], a=s["a"])
            assert got == expected, algorithm

    def test_one_derivative_is_one_law_call(self, monkeypatch):
        """An n-path LIA derivative sorts and validates once, not n
        times: the law returns every path's terms from one call."""
        calls = {"validate": 0, "sorted": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            alpha, "_validate", counting("validate", alpha._validate))
        monkeypatch.setattr(
            alpha, "sorted", counting("sorted", sorted), raising=False)
        s = STATES["three_paths_one_lossless"]
        window_derivative("lia", s["windows"], s["losses"], s["rtts"])
        assert calls == {"validate": 1, "sorted": 1}

    def test_cubic_is_registered_but_has_no_law(self):
        with pytest.raises(ValueError, match="cubic has no fluid model"):
            window_derivative("cubic", [2.0], [0.01], [0.1])
        with pytest.raises(ValueError, match="cubic has no fluid model"):
            equilibrium_windows("cubic", [0.01], [0.1])


class TestStiffnessGuard:
    """Extreme RTT ratios make the window ODE stiff; the guarded stepper
    must retry with halved steps (or raise FluidInstabilityError) rather
    than silently emitting NaN/overflow windows."""

    # rtt_ratio = 32 with far-from-equilibrium initial windows: unguarded
    # RK4 overshoots the fast path's window negative inside a stage
    # (LIA's alpha validation used to surface this as a bare ValueError;
    # other algorithms produced NaN).
    STIFF = dict(losses=[0.01, 0.01], rtts=[0.1, 0.1 / 32],
                 initial=[200.0, 200.0], dt=0.01)

    @pytest.mark.parametrize("algorithm", ["lia", "olia", "balia", "ewtcp"])
    def test_rtt_ratio_32_stays_finite(self, algorithm):
        traj = integrate_windows(
            algorithm, self.STIFF["losses"], self.STIFF["rtts"],
            initial=self.STIFF["initial"], duration=50.0,
            dt=self.STIFF["dt"],
        )
        assert all(
            math.isfinite(w) and 1.0 <= w <= 1e9
            for s in traj.states for w in s
        )

    def test_single_guarded_step_from_stiff_state(self):
        nxt = step_windows("lia", self.STIFF["initial"],
                           self.STIFF["losses"], self.STIFF["rtts"],
                           dt=self.STIFF["dt"])
        assert all(math.isfinite(w) and w >= 1.0 for w in nxt)

    def test_negative_lia_window_raises_and_the_step_halves_through_it(
            self, monkeypatch):
        # The guard's contract with the LIA law: a stage that overshoots
        # a window negative surfaces as ValueError (eq. (1)'s positivity
        # check, once per law call), and step_windows retries at half
        # size instead of propagating it.
        with pytest.raises(ValueError, match="windows must be positive"):
            window_derivative("lia", [-3.0, 200.0], self.STIFF["losses"],
                              self.STIFF["rtts"])
        steps = []
        real = dynamics._guarded_step
        monkeypatch.setattr(
            dynamics, "_guarded_step",
            lambda *args: steps.append(args[2]) or real(*args))
        nxt = step_windows("lia", self.STIFF["initial"],
                           self.STIFF["losses"], self.STIFF["rtts"],
                           dt=self.STIFF["dt"])
        assert min(steps) < self.STIFF["dt"]          # it did halve
        assert all(math.isfinite(w) and w >= 1.0 for w in nxt)

    def test_instability_raises_not_nan(self):
        # A step so large that 20 halvings cannot rescue it must raise
        # the explicit error, never return non-finite state.
        with pytest.raises(FluidInstabilityError) as exc:
            step_windows("lia", [1e6, 1e6], [0.5, 0.5],
                         [10.0, 10.0 / 1024], dt=1e9)
        # dt on the error is the deepest (still-failing) halved step
        assert 0 < exc.value.dt <= 1e9
        assert exc.value.state == [1e6, 1e6]

    def test_step_windows_unknown_algorithm_not_masked(self):
        # The guard swallows stage-level ValueErrors; an unknown name
        # must still surface as a plain ValueError, not instability.
        with pytest.raises(ValueError, match="unknown fluid algorithm"):
            step_windows("psychic", [2.0], [0.01], [0.1], dt=0.01)

    @pytest.mark.parametrize("algorithm", ["reno", "lia"])
    def test_path_count_mismatch_is_an_input_error(self, algorithm):
        # zip() used to truncate to one window (Reno), and LIA's
        # per-stage length check read as a blow-up after 20 halvings.
        with pytest.raises(ValueError, match="windows has 1 entries"):
            step_windows(algorithm, [5.0], [0.01, 0.02], [0.1, 0.1], 0.02)
        with pytest.raises(ValueError, match="windows has 1 entries"):
            integrate_windows(algorithm, [0.01, 0.02], [0.1, 0.1],
                              initial=[5.0], duration=0.1)
        with pytest.raises(ValueError, match="losses has 1 entries"):
            step_windows(algorithm, [5.0, 5.0], [0.01], [0.1, 0.1], 0.02)

    @pytest.mark.parametrize("algorithm", ["reno", "lia"])
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
    def test_non_positive_rtt_is_an_input_error(self, algorithm, bad):
        with pytest.raises(ValueError, match="rtts must be positive"):
            step_windows(algorithm, [5.0, 5.0], [0.01, 0.02], [0.1, bad],
                         0.02)
        with pytest.raises(ValueError, match="rtts must be positive"):
            integrate_windows(algorithm, [0.01, 0.02], [bad, 0.1],
                              duration=0.1)


def vector_step(algorithm, windows, losses, rtts, dt, floor=1.0, a=None):
    """One guarded step through the vector law, whatever the path count:
    the reference the two-path form must reproduce."""
    deriv = dynamics._vector_derivative(fluid_law(algorithm), losses, rtts, a)
    return dynamics._guarded_step(deriv, list(windows), dt, floor,
                                  dynamics._MAX_HALVINGS, dynamics._rk4)


def outcome(step, *args):
    """A step's result, or how it failed (the deepest dt and the state)."""
    try:
        return step(*args)
    except FluidInstabilityError as exc:
        return "unstable", exc.dt, exc.state


class TestTwoPathForm:
    """Two-path states step through each law's two-path form on scalars;
    it must equal the vector law bit for bit, blow-ups included."""

    def test_every_law_has_a_two_path_form(self):
        assert set(dynamics._PAIR_FORMS) == set(dynamics._LAWS.values())

    @pytest.mark.parametrize("state", ["two_paths", "tied_windows_with_a"])
    def test_frozen_derivatives(self, state):
        s = STATES[state]
        for algorithm, expected in DERIVATIVES[state].items():
            deriv = dynamics._PAIR_FORMS[fluid_law(algorithm)](
                s["rtts"], s["losses"], s["a"])
            assert deriv(*s["windows"]) == tuple(expected), algorithm

    @settings(max_examples=300)
    @given(
        windows=st.lists(st.floats(min_value=1.0, max_value=1e4),
                         min_size=2, max_size=2),
        losses=st.lists(st.one_of(st.just(0.0),
                                  st.floats(min_value=1e-6, max_value=0.3)),
                        min_size=2, max_size=2),
        rtts=st.lists(st.floats(min_value=1e-3, max_value=1.0),
                      min_size=2, max_size=2),
        dt=st.sampled_from([0.001, 0.01, 0.02, 0.1]),
        floor=st.sampled_from([1.0, 0.01]),
        a=st.one_of(st.none(), st.floats(min_value=0.1, max_value=2.0)),
    )
    # Tied w/RTT² (4/0.05² == 16/0.1²): the stable sort keeps path 0 first.
    @example(windows=[4.0, 16.0], losses=[0.01, 0.002], rtts=[0.05, 0.1],
             dt=0.02, floor=1.0, a=None)
    # A loss-free path: OLIA's quality is +inf.
    @example(windows=[12.0, 30.0], losses=[0.0, 0.01], rtts=[0.05, 0.2],
             dt=0.02, floor=1.0, a=None)
    # Tied windows with ``a`` given (OLIA's tie sets, EWTCP/SEMICOUPLED).
    @example(windows=[15.0, 15.0], losses=[0.003, 0.01], rtts=[0.08, 0.02],
             dt=0.02, floor=1.0, a=0.5)
    # Both windows at the floor.
    @example(windows=[1.0, 1.0], losses=[0.2, 0.3], rtts=[0.01, 0.5],
             dt=0.1, floor=1.0, a=None)
    # TestStiffnessGuard.STIFF: LIA halves.
    @example(windows=[200.0, 200.0], losses=[0.01, 0.01],
             rtts=[0.1, 0.1 / 32], dt=0.01, floor=1.0, a=None)
    def test_one_step_equals_the_vector_law(self, windows, losses, rtts,
                                            dt, floor, a):
        for algorithm in sorted(FLUID_ALGORITHMS):
            args = (algorithm, windows, losses, rtts, dt, floor, a)
            assert outcome(step_windows, *args) == \
                outcome(vector_step, *args), algorithm

    def test_stiff_state_still_halves_on_the_two_path_form(
            self, monkeypatch):
        stiff = TestStiffnessGuard.STIFF
        steps = []
        real = dynamics._guarded_step
        monkeypatch.setattr(
            dynamics, "_guarded_step",
            lambda *args: steps.append(args[5]) or real(*args))
        nxt = step_windows("lia", stiff["initial"], stiff["losses"],
                           stiff["rtts"], dt=stiff["dt"])
        assert len(steps) > 1
        assert set(steps) == {dynamics._rk4_pair}
        monkeypatch.undo()
        assert nxt == vector_step("lia", stiff["initial"], stiff["losses"],
                                  stiff["rtts"], stiff["dt"])


class TestWindowRttBias:
    def test_windowed_tcp_rate_depends_on_rtt(self):
        """§2.3: windowed control gives rate w/RTT ∝ 1/RTT at equal loss."""
        fast = integrate_windows("reno", [0.01], [0.02]).final[0] / 0.02
        slow = integrate_windows("reno", [0.01], [0.2]).final[0] / 0.2
        assert fast > 5.0 * slow


class TestRateBasedCoupled:
    def test_equilibrium_total_is_rtt_free_closed_form(self):
        losses = [0.01, 0.01]
        traj = integrate_rates_coupled(losses, aggressiveness=1.0, beta=0.005)
        # equilibrium total = a / (beta * p) = 1 / (0.005*0.01) = 20000
        assert sum(traj.final) == pytest.approx(20000.0, rel=0.05)

    def test_concentrates_on_less_congested_path(self):
        traj = integrate_rates_coupled([0.02, 0.005], duration=500.0)
        assert traj.final[0] < 0.01 * traj.final[1]

    def test_no_rtt_mismatch_by_construction(self):
        """§2.3's contrast: the rate-based equations contain no RTT, so
        the same losses give the same allocation regardless of path RTTs
        (which simply do not enter) — unlike the windowed fluid above."""
        a = integrate_rates_coupled([0.01, 0.002])
        b = integrate_rates_coupled([0.01, 0.002])
        assert a.final == pytest.approx(b.final)

    def test_total_matches_min_loss_path(self):
        traj = integrate_rates_coupled([0.05, 0.01], duration=500.0)
        assert sum(traj.final) == pytest.approx(
            1.0 / (0.005 * 0.01), rel=0.05
        )
