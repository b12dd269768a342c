"""The §2.1 and §2.4 design arguments, by name, on the registered rows.

These read the rows of ``paper_fig1`` and ``paper_dynamic_cbr`` that
``tests/test_paper_claims.py`` checks the claims of: the session's
``registered_rows`` fixture (``conftest.py``) simulates every tier-1
claims grid once, so nothing here runs a simulation of its own.  Each
bound is also an assertion of the grid's claims function in
:data:`repro.exp.paper.CLAIMS`; a regression names the argument it
breaks here and the claim's source line there.
"""

import pytest

from repro.net.network import mbps_to_pps


def by_algo(rows):
    return {row["algo"]: row for row in rows}


class TestSection21Fairness:
    """§2.1 / Fig 1: behaviour of a two-path flow at a shared bottleneck."""

    @pytest.fixture
    def ratio(self, registered_rows):
        rows = by_algo(registered_rows["paper_fig1"])
        return lambda algo: rows[algo]["ratio"]

    def test_uncoupled_takes_double(self, ratio):
        assert 1.5 < ratio("uncoupled") < 2.7

    def test_mptcp_is_roughly_fair(self, ratio):
        assert 0.7 < ratio("mptcp") < 1.6

    def test_ewtcp_is_roughly_fair(self, ratio):
        assert 0.7 < ratio("ewtcp") < 1.6

    def test_coupled_is_roughly_fair(self, ratio):
        assert 0.6 < ratio("coupled") < 1.5

    def test_uncoupled_beats_mptcp_in_aggression(self, ratio):
        assert ratio("uncoupled") > ratio("mptcp")


class TestSection24Trapping:
    """§2.4 / Fig 9: COUPLED gets trapped off a bursty link; MPTCP and
    EWTCP keep probing and recover."""

    @pytest.fixture
    def bursty(self, registered_rows):
        return by_algo(registered_rows["paper_dynamic_cbr"])

    def test_mptcp_recovers_much_better_than_coupled(self, bursty):
        assert bursty["mptcp"]["path1_pps"] > 2.0 * bursty["coupled"]["path1_pps"]

    def test_bottom_link_stays_full(self, bursty):
        assert bursty["mptcp"]["path2_pps"] > 0.9 * mbps_to_pps(100)
