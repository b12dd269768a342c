"""Unit + property tests for the IntervalSet (SACK bookkeeping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.intervals import IntervalSet


class TestBasics:
    def test_empty(self):
        s = IntervalSet()
        assert len(s) == 0
        assert not s
        assert 5 not in s
        assert s.num_intervals == 0

    def test_single_point(self):
        s = IntervalSet()
        s.add(5)
        assert 5 in s
        assert 4 not in s
        assert 6 not in s
        assert len(s) == 1

    def test_range(self):
        s = IntervalSet()
        s.add(3, 7)
        assert all(x in s for x in range(3, 7))
        assert 2 not in s and 7 not in s
        assert len(s) == 4

    def test_empty_interval_raises(self):
        s = IntervalSet()
        with pytest.raises(ValueError):
            s.add(5, 5)

    def test_merge_adjacent(self):
        s = IntervalSet()
        s.add(1, 3)
        s.add(3, 5)
        assert s.num_intervals == 1
        assert list(s.intervals()) == [(1, 5)]

    def test_merge_overlapping(self):
        s = IntervalSet()
        s.add(1, 4)
        s.add(2, 6)
        assert list(s.intervals()) == [(1, 6)]
        assert len(s) == 5

    def test_disjoint_stay_separate(self):
        s = IntervalSet()
        s.add(1, 2)
        s.add(5, 6)
        assert s.num_intervals == 2

    def test_bridge_merge(self):
        s = IntervalSet()
        s.add(1, 3)
        s.add(5, 7)
        s.add(3, 5)
        assert list(s.intervals()) == [(1, 7)]

    def test_discard_below(self):
        s = IntervalSet()
        s.add(1, 5)
        s.add(8, 10)
        s.discard_below(3)
        assert list(s.intervals()) == [(3, 5), (8, 10)]
        assert len(s) == 4

    def test_discard_below_removes_whole_intervals(self):
        s = IntervalSet()
        s.add(1, 3)
        s.add(5, 7)
        s.discard_below(7)
        assert len(s) == 0

    def test_first_gap_after(self):
        s = IntervalSet()
        s.add(2, 5)
        assert s.first_gap_after(0) == 0
        assert s.first_gap_after(2) == 5
        assert s.first_gap_after(4) == 5
        assert s.first_gap_after(7) == 7

    def test_interval_containing(self):
        s = IntervalSet()
        s.add(2, 5)
        assert s.interval_containing(3) == (2, 5)
        with pytest.raises(KeyError):
            s.interval_containing(5)

    def test_max_covered(self):
        s = IntervalSet()
        assert s.max_covered() == 0
        s.add(3, 9)
        assert s.max_covered() == 9

    def test_clear(self):
        s = IntervalSet()
        s.add(1, 10)
        s.clear()
        assert len(s) == 0
        assert not s


@st.composite
def operations(draw):
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 80), st.integers(1, 10)),
            min_size=1,
            max_size=40,
        )
    )
    return [(start, start + width) for start, width in ops]


class TestProperties:
    @given(operations())
    @settings(max_examples=200)
    def test_matches_reference_set(self, intervals):
        """IntervalSet must behave exactly like a python set of ints."""
        s = IntervalSet()
        reference = set()
        for start, end in intervals:
            s.add(start, end)
            reference.update(range(start, end))
        assert len(s) == len(reference)
        for x in range(0, 100):
            assert (x in s) == (x in reference)

    @given(operations(), st.integers(0, 100))
    @settings(max_examples=200)
    def test_discard_below_matches_reference(self, intervals, cutoff):
        s = IntervalSet()
        reference = set()
        for start, end in intervals:
            s.add(start, end)
            reference.update(range(start, end))
        s.discard_below(cutoff)
        reference = {x for x in reference if x >= cutoff}
        assert len(s) == len(reference)
        for x in range(0, 100):
            assert (x in s) == (x in reference)

    @given(operations())
    @settings(max_examples=100)
    def test_intervals_sorted_and_disjoint(self, intervals):
        s = IntervalSet()
        for start, end in intervals:
            s.add(start, end)
        spans = list(s.intervals())
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2  # disjoint AND non-adjacent (merged)

    @given(operations(), st.integers(0, 100))
    @settings(max_examples=100)
    def test_first_gap_after_is_uncovered(self, intervals, probe):
        s = IntervalSet()
        for start, end in intervals:
            s.add(start, end)
        gap = s.first_gap_after(probe)
        assert gap >= probe
        assert gap not in s
        # everything in [probe, gap) is covered
        for x in range(probe, gap):
            assert x in s
