"""Controller ↔ law conformance: every registry controller with a fluid
model moves a window by exactly what its row of the law table says.

``repro.fluid.dynamics._LAWS`` writes each design once as a vector law:
the per-ACK increase ``incs[r]`` and the per-loss decrease ``decs[r]`` of
every path.  The packet controllers in ``repro.core`` write the same
rules a second time, per event.  This table pins the two together: one
``on_ack`` on path r must grow w_r by ``incs[r]``, and one ``on_loss``
must shrink it by ``decs[r]`` (down to the one-packet floor both share),
at Hypothesis-drawn windows, RTTs and losses.

Where a controller carries state the model abstracts, its row puts the
model's value into that state and says why; no row is skipped.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.registry import make_controller
from repro.fluid.dynamics import FLUID_ALGORITHMS, fluid_law


class StubSubflow:
    """The ``WindowedSubflow`` protocol, plus the base RTT wVegas reads."""

    min_cwnd = 1.0

    def __init__(self, cwnd, rtt):
        self.cwnd = cwnd
        self.srtt = rtt
        self.base_rtt = rtt


def prime_olia(controller, losses):
    """OLIA estimates 1/p_r from the packets acked between losses; the
    law substitutes 1/p_r itself.  Record it as the previous inter-loss
    epoch, so the ACK under test (which opens the current epoch at one
    packet) leaves the estimate at 1/p_r."""
    for subflow, p in zip(controller.subflows, losses):
        controller._epochs(subflow)[1] = 1.0 / p


@dataclass(frozen=True)
class Row:
    name: str
    kwargs: dict = field(default_factory=dict)
    prime: Optional[Callable] = None
    reason: str = ""
    #: Paths above which the controller's increase only bounds the law's
    #: from above (it must still lie between incs[r] and 1/w_r).
    exact_up_to: int = 3


TABLE = [
    Row("reno"),
    Row("single"),
    Row("uncoupled"),
    Row("ewtcp"),
    Row("coupled"),
    Row("semicoupled"),
    Row("balia"),
    Row("mptcp"),
    Row("mptcp", {"recompute": "per_window"}, None,
        "eq. (1)'s increases are cached per window; a fresh controller "
        "fills the cache on the ACK under test, so it is checked right "
        "after a refresh"),
    Row("lia", {}, None,
        "RFC 6356's alpha is cached per window and checked right after a "
        "refresh, as for mptcp per_window.  Its increase "
        "min(alpha/w_total, 1/w_r) takes eq. (1)'s minimum over two of the "
        "subsets containing r (all paths, and r alone), so it equals the "
        "law on one or two paths and bounds it from above on three",
        exact_up_to=2),
    Row("olia", {}, prime_olia,
        "the inter-loss estimate l_r is primed to the law's 1/p_r"),
    Row("wvegas", {}, None,
        "held in its Vegas increase phase: srtt = base_rtt, no queueing "
        "delay, which is the fixed-loss setting the law models"),
]


def row_id(row):
    return "-".join([row.name, *map(str, row.kwargs.values())])


@st.composite
def states(draw):
    """Windows, RTTs and losses for one to three paths, and the path r
    that receives the event."""
    n = draw(st.integers(1, 3))

    def vector(low, high):
        return draw(st.lists(st.floats(low, high), min_size=n, max_size=n))

    return (vector(2.0, 200.0), vector(0.01, 0.5), vector(1e-4, 0.1),
            draw(st.integers(0, n - 1)))


#: Fixed cases that tier-1 replays before any drawn one.
EXAMPLES = [
    # Two paths, RTT mismatch: LIA's two-path unrolled increase.
    ([12.0, 30.0], [0.05, 0.2], [0.01, 0.002], 1),
    # Tied w/RTT² (4/0.05² == 16/0.1²): eq. (1)'s sort tie.
    ([4.0, 16.0], [0.05, 0.1], [0.01, 0.002], 0),
    # Tied windows: both paths are OLIA's max-window set.
    ([15.0, 15.0], [0.08, 0.02], [0.003, 0.01], 0),
    # The best OLIA path lags in window, so α_r > 0 on it.
    ([40.0, 10.0], [0.1, 0.1], [0.02, 0.002], 1),
    # Three paths, where RFC 6356 and eq. (1) part.
    ([10.0, 20.0, 40.0], [0.2, 0.05, 0.1], [0.01, 0.02, 0.005], 2),
    # One path: every coupled rule collapses to Reno.
    ([25.0], [0.1], [0.01], 0),
]


def with_examples(test):
    for case in reversed(EXAMPLES):
        test = example(case=case)(test)
    return test


def build(row, windows, rtts, losses):
    controller = make_controller(row.name, **row.kwargs)
    subflows = [StubSubflow(w, rtt) for w, rtt in zip(windows, rtts)]
    for subflow in subflows:
        controller.add_subflow(subflow)
    if row.prime is not None:
        row.prime(controller, losses)
    return controller, subflows


def law_terms(row, windows, rtts, losses):
    return fluid_law(row.name)(list(windows), list(rtts), list(losses), None)


def test_table_covers_every_fluid_algorithm():
    assert {row.name for row in TABLE} == FLUID_ALGORITHMS


@pytest.mark.parametrize("row", TABLE, ids=row_id)
@settings(max_examples=40)
@given(case=states())
@with_examples
def test_one_ack_adds_the_law_increase(row, case):
    windows, rtts, losses, r = case
    incs, _ = law_terms(row, windows, rtts, losses)
    controller, subflows = build(row, windows, rtts, losses)
    controller.on_ack(subflows[r])
    grown = subflows[r].cwnd - windows[r]
    if len(windows) <= row.exact_up_to:
        assert grown == pytest.approx(incs[r], rel=1e-9, abs=1e-13), row
    else:
        assert incs[r] * (1 - 1e-9) <= grown <= (1 + 1e-9) / windows[r], row
    assert [s.cwnd for i, s in enumerate(subflows) if i != r] == \
        [w for i, w in enumerate(windows) if i != r]


@pytest.mark.parametrize("row", TABLE, ids=row_id)
@settings(max_examples=40)
@given(case=states())
@with_examples
def test_one_loss_subtracts_the_law_decrease(row, case):
    windows, rtts, losses, r = case
    _, decs = law_terms(row, windows, rtts, losses)
    controller, subflows = build(row, windows, rtts, losses)
    controller.on_loss(subflows[r])
    floor = StubSubflow.min_cwnd
    assert subflows[r].cwnd == pytest.approx(
        max(floor, windows[r] - decs[r]), rel=1e-12), row
    assert [s.cwnd for i, s in enumerate(subflows) if i != r] == \
        [w for i, w in enumerate(windows) if i != r]
