"""Tests for the MPTCP increase computation (eq. (1)) and RFC 6356 alpha."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alpha import (
    mptcp_increase,
    mptcp_increase_bruteforce,
    mptcp_increases,
    rfc6356_alpha,
    rfc6356_increase,
)


class TestKnownValues:
    def test_single_path_reduces_to_regular_tcp(self):
        # With one path, eq. (1) is 1/w: regular TCP's increase.
        assert mptcp_increase([10.0], [0.1], 0) == pytest.approx(0.1)

    def test_equal_paths(self):
        # n equal paths: min over S is the full set: (w/rtt^2)/(n w/rtt)^2
        # = 1/(n^2 w).
        w, n = 20.0, 4
        inc = mptcp_increase([w] * n, [0.1] * n, 2)
        assert inc == pytest.approx(1.0 / (n * n * w))

    def test_never_exceeds_regular_tcp(self):
        # S = {r} is always a candidate, capping the increase at 1/w_r.
        inc = mptcp_increase([5.0, 50.0], [0.1, 0.1], 0)
        assert inc <= 1.0 / 5.0 + 1e-12

    def test_two_paths_matches_rfc_formula(self):
        # For two paths, eq. (1) equals min(alpha/w_total, 1/w_r).
        windows, rtts = [8.0, 24.0], [0.05, 0.2]
        for r in range(2):
            assert mptcp_increase(windows, rtts, r) == pytest.approx(
                rfc6356_increase(windows, rtts, r)
            )

    def test_rfc_alpha_equal_paths(self):
        # Equal windows and RTTs, n paths: alpha = 1/n.
        for n in (1, 2, 3, 5):
            alpha = rfc6356_alpha([10.0] * n, [0.1] * n)
            assert alpha == pytest.approx(1.0 / n)

    def test_rtt_mismatch_known_value(self):
        # Equal windows, RTTs 10 ms vs 100 ms.  The minimising subset for
        # BOTH subflows is the full set: max(w/rtt^2) = 10/0.01^2 = 1e5,
        # (sum w/rtt)^2 = (1000 + 100)^2, so the increase is 1e5/1100^2 —
        # the coupling throttles the short-RTT subflow's natural advantage.
        windows, rtts = [10.0, 10.0], [0.01, 0.1]
        expected = 1e5 / 1100.0 ** 2
        assert mptcp_increase(windows, rtts, 0) == pytest.approx(expected)
        assert mptcp_increase(windows, rtts, 1) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            mptcp_increase([], [], 0)
        with pytest.raises(ValueError):
            mptcp_increase([1.0], [0.1], 1)
        with pytest.raises(ValueError):
            mptcp_increase([0.0], [0.1], 0)
        with pytest.raises(ValueError):
            mptcp_increase([1.0], [0.0], 0)
        with pytest.raises(ValueError):
            mptcp_increase([1.0, 2.0], [0.1], 0)


positive = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
rtt_values = st.floats(min_value=0.001, max_value=2.0, allow_nan=False)


class TestLinearSearchCorrectness:
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.lists(positive, min_size=n, max_size=n),
                st.lists(rtt_values, min_size=n, max_size=n),
                st.integers(0, n - 1),
            )
        )
    )
    @settings(max_examples=300)
    def test_linear_equals_bruteforce(self, case):
        """The appendix's linear search must agree with subset enumeration."""
        windows, rtts, index = case
        fast = mptcp_increase(windows, rtts, index)
        slow = mptcp_increase_bruteforce(windows, rtts, index)
        assert fast == pytest.approx(slow, rel=1e-9)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(positive, min_size=n, max_size=n),
                st.lists(rtt_values, min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=300)
    def test_all_paths_form_equals_bruteforce_at_every_index(self, case):
        """One sort + prefix sums + suffix minimum gives every subflow's
        eq. (1) increase; the subset enumeration is the oracle."""
        windows, rtts = case
        fast = mptcp_increases(windows, rtts)
        assert len(fast) == len(windows)
        for index, value in enumerate(fast):
            slow = mptcp_increase_bruteforce(windows, rtts, index)
            assert value == pytest.approx(slow, rel=1e-12)

    #: (windows, rtts, eq. (1) increase per index) as computed by the
    #: per-index linear search this module had before the all-paths form
    #: (commit cd09797).  ``mptcp_increase`` is now one entry of
    #: ``mptcp_increases``, so comparing those two would prove nothing;
    #: these are compared with ``==`` — the float operations and their
    #: order are part of the contract the golden traces rest on.
    FROZEN = [
        ([12.0, 30.0], [0.05, 0.2],
         [0.031558185404339245, 0.031558185404339245]),
        ([30.0, 2.0], [0.2, 0.01],
         [0.033333333333333326, 0.16326530612244897]),
        ([8.0, 20.0, 1.5], [0.1, 0.3, 0.005],
         [0.037190082644628086, 0.037190082644628086, 0.3007351303185565]),
        # tied w/RTT² (4/0.25² == 16/0.5²): the sort must stay stable
        ([4.0, 16.0, 7.0, 22.5], [0.25, 0.5, 0.015, 0.3],
         [0.016524555489457332, 0.016524555489457332,
          0.08947513565868558, 0.016524555489457332]),
    ]

    @pytest.mark.parametrize("windows, rtts, expected", FROZEN)
    def test_values_frozen_at_the_per_index_search(self, windows, rtts, expected):
        assert mptcp_increases(windows, rtts) == expected
        assert [
            mptcp_increase(windows, rtts, i) for i in range(len(windows))
        ] == expected

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(positive, min_size=n, max_size=n),
                st.lists(rtt_values, min_size=n, max_size=n),
                st.integers(0, n - 1),
            )
        )
    )
    @settings(max_examples=200)
    def test_capped_by_regular_tcp(self, case):
        windows, rtts, index = case
        assert mptcp_increase(windows, rtts, index) <= 1.0 / windows[index] + 1e-9

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(positive, min_size=n, max_size=n),
                st.lists(rtt_values, min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200)
    def test_increase_positive(self, case):
        windows, rtts = case
        for r in range(len(windows)):
            assert mptcp_increase(windows, rtts, r) > 0
