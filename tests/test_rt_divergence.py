"""Sim-vs-real divergence: the ``rt_loopback`` claim's tolerance.

The claim compares the lan pair of the ``rt_loopback`` grid, one
transfer on loopback UDP (``tier=rt``) and one on the packet tier.  Here it is fed
hand-built pairs whose real row is off by a given relative error per
metric, without sockets; the end-to-end run is the ``realnet`` test in
``test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.exp.claims import failed_claim

SIM = {"goodput_mean": 100.0, "delivered_bytes": 150000.0, "cwnd_mean": 50.0}


def _rows(**rel_errs):
    """The lan pair, the rt row off its twin by ``rel_errs``."""
    sim = {"tier": "packet", "netem": "lan", "delivery_gap": 0, **SIM}
    real = dict(sim, tier="rt")
    for key, err in rel_errs.items():
        real[key] = SIM[key] * (1 + err)
    return [real, sim]


@pytest.fixture(autouse=True)
def unit_scale(monkeypatch):
    monkeypatch.delenv("REPRO_RT_TOLERANCE_SCALE", raising=False)


def test_violations_empty_within_tolerance():
    rows = _rows(goodput_mean=0.10, delivered_bytes=0.05, cwnd_mean=2.0)
    assert failed_claim("rt_loopback", rows) is None   # cwnd_mean is not gated
    assert failed_claim("rt_loopback", _rows(goodput_mean=-0.34)) is None


def test_violations_flag_out_of_tolerance_metrics():
    assert failed_claim("rt_loopback", _rows(goodput_mean=0.50,
                                             delivered_bytes=0.05)) is not None
    for key in ("goodput_mean", "delivered_bytes"):
        assert failed_claim("rt_loopback", _rows(**{key: 0.36})) is not None
        assert failed_claim("rt_loopback", _rows(**{key: -0.36})) is not None
    gap = _rows()
    gap[0]["delivery_gap"] = 1
    assert failed_claim("rt_loopback", gap) is not None
