"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from typing import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import (
    coupled_windows,
    ewtcp_windows,
    semicoupled_weights,
    semicoupled_windows,
    tcp_window,
)
from repro.harness import jain_index
from repro.mptcp.reassembly import DataReassembler, SharedReceiveBuffer
from repro.mptcp.scheduler import DsnScheduler
from repro.sim.engine import EventScheduler
from repro.tcp.scoreboard import SackScoreboard
from repro.utils.intervals import IntervalSet

losses = st.lists(
    st.floats(min_value=1e-4, max_value=0.2), min_size=1, max_size=6
)


class TestFluidInvariants:
    @given(losses)
    def test_ewtcp_total_never_exceeds_one_tcp_on_best_path(self, ps):
        """With the fairness weight a = 1/n², total EWTCP window is at
        most the single-path TCP window on the least lossy path."""
        windows = ewtcp_windows(ps)
        best = tcp_window(min(ps))
        assert sum(windows) <= best + 1e-9

    @given(losses)
    def test_coupled_total_equals_tcp_on_best_path(self, ps):
        windows = coupled_windows(ps)
        assert sum(windows) == pytest.approx(tcp_window(min(ps)))

    @given(losses)
    def test_semicoupled_weights_sum_to_one(self, ps):
        weights = semicoupled_weights(ps)
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)

    @given(losses)
    def test_semicoupled_orders_paths_by_loss(self, ps):
        windows = semicoupled_windows(ps)
        order = sorted(range(len(ps)), key=lambda i: ps[i])
        sorted_windows = [windows[i] for i in order]
        assert sorted_windows == sorted(sorted_windows, reverse=True)

    @given(st.floats(min_value=1e-5, max_value=0.3))
    def test_tcp_window_monotone_in_loss(self, p):
        assert tcp_window(p) >= tcp_window(min(0.3, p * 2)) - 1e-9


class TestJainProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=20))
    def test_bounds(self, rates):
        index = jain_index(rates)
        # floating-point roundoff can push the index epsilon past the
        # mathematical bounds for near-degenerate inputs
        assert 1.0 / len(rates) - 1e-6 <= index <= 1.0 + 1e-6

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2,
                    max_size=10), st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, rates, factor):
        assert jain_index(rates) == pytest.approx(
            jain_index([r * factor for r in rates]), rel=1e-6
        )


class TestReassemblerProperties:
    @given(st.permutations(list(range(30))))
    @settings(max_examples=100)
    def test_any_arrival_order_reassembles_in_order(self, order):
        r = DataReassembler()
        seen = []
        r.on_data = lambda dsn, payload: seen.append(dsn)
        for dsn in order:
            r.receive(dsn)
        assert seen == list(range(30))
        assert r.buffered == 0

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_duplicates_never_delivered_twice(self, arrivals):
        r = DataReassembler()
        seen = []
        r.on_data = lambda dsn, payload: seen.append(dsn)
        for dsn in arrivals:
            r.receive(dsn)
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen)

    @given(
        st.permutations(list(range(25))),
        st.lists(st.integers(0, 24), max_size=25),
    )
    @settings(max_examples=100)
    def test_exactly_once_under_permutation_with_duplicates(
        self, order, dup_picks
    ):
        """Exactly-once delivery: a full permutation with extra copies of
        arbitrary DSNs injected at arbitrary points still yields each DSN
        once, in order, and every extra copy is counted as a duplicate."""
        arrivals = list(order)
        for k, pick in enumerate(dup_picks):
            arrivals.insert((pick * 7 + k) % (len(arrivals) + 1), pick)
        r = DataReassembler()
        seen = []
        r.on_data = lambda dsn, payload: seen.append(dsn)
        for dsn in arrivals:
            r.receive(dsn)
        assert seen == list(range(25))
        assert r.data_cum_ack == 25
        assert r.delivered == 25
        assert r.duplicates == len(dup_picks)
        assert r.buffered == 0

    @given(st.permutations(list(range(20))), st.integers(0, 19))
    @settings(max_examples=100)
    def test_gap_blocks_delivery_above_it(self, order, missing):
        """A missing DSN holds back everything after it; filling the gap
        releases the whole run at once."""
        r = DataReassembler()
        seen = []
        r.on_data = lambda dsn, payload: seen.append(dsn)
        for dsn in order:
            if dsn != missing:
                r.receive(dsn)
        assert seen == list(range(missing))
        assert r.data_cum_ack == missing
        assert r.buffered == 19 - missing
        r.receive(missing)
        assert seen == list(range(20))
        assert r.buffered == 0


class TestSharedBufferProperties:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 9)),
            min_size=1, max_size=200,
        ),
        st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=100)
    def test_accounted_data_never_exceeds_capacity(self, ops, capacity):
        """§6's shared-pool guarantee: a sender that respects the
        advertised rwnd (relative to the data cum-ACK) can never overflow
        the pool, for any interleaving of out-of-order arrivals and
        application reads."""
        r = DataReassembler()
        buf = SharedReceiveBuffer(capacity)
        buf.bind(r)
        r.on_data = lambda dsn, payload: buf.on_in_order()
        for is_read, k in ops:
            if is_read:
                buf.app_read(k)
            else:
                # sender side: pick any not-yet-sent DSN the advertised
                # window currently permits
                window = [
                    d for d in range(r.data_cum_ack, r.data_cum_ack + buf.rwnd)
                    if d not in r._held
                ]
                if window:
                    r.receive(window[k % len(window)])
            assert buf.unread >= 0
            assert 0 <= buf.rwnd <= capacity
            assert 0 <= buf.occupancy <= capacity


class TestSchedulerProperties:
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_dsns_unique_and_dense(self, window_openings):
        """However the flow-control limit moves, fresh DSNs come out
        exactly once, in order, with no gaps."""
        scheduler = DsnScheduler()
        issued = []
        limit = 0
        for opening in window_openings:
            limit += opening
            while True:
                dsn = scheduler.next_dsn(limit)
                if dsn is None:
                    break
                issued.append(dsn)
        assert issued == list(range(len(issued)))


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=200))
    @settings(max_examples=100)
    def test_events_always_fire_in_time_order(self, times):
        sched = EventScheduler()
        fired = []
        for t in times:
            sched.schedule_at(t, fired.append, t)
        sched.run()
        assert fired == sorted(times)
        assert len(fired) == len(times)


class ReferenceScoreboard:
    """The original container-based scoreboard, kept as the semantic
    reference for :class:`TestScoreboardEquivalence`.

    Implements the same API as :class:`SackScoreboard` with the exact
    pre-rewrite data structures and update rules from
    ``repro.tcp.sender`` (an IntervalSet plus three sets).
    """

    __slots__ = ("base", "_sacked", "_lost", "_rtx", "_retx_pending")

    def __init__(self) -> None:
        self.base = 0
        self._sacked = IntervalSet()
        self._lost: Set[int] = set()
        self._rtx: Set[int] = set()
        self._retx_pending: Set[int] = set()

    # -- counts -------------------------------------------------------
    @property
    def n_sacked(self) -> int:
        return len(self._sacked)

    @property
    def n_lost(self) -> int:
        return len(self._lost)

    @property
    def n_rtx(self) -> int:
        return len(self._rtx)

    @property
    def n_retx(self) -> int:
        return len(self._retx_pending)

    # -- membership ---------------------------------------------------
    def is_sacked(self, seq: int) -> bool:
        return seq in self._sacked

    def is_rtx(self, seq: int) -> bool:
        return seq in self._rtx

    def is_retx(self, seq: int) -> bool:
        return seq in self._retx_pending

    # -- SACK ---------------------------------------------------------
    def mark_sacked(self, start: int, end: int) -> None:
        if end <= self.base:
            return
        self._sacked.add(max(start, self.base), end)
        sacked = self._sacked
        lost = self._lost
        if lost:
            dead = [s for s in lost if s in sacked]
            if dead:
                lost.difference_update(dead)
        rtx = self._rtx
        if rtx:
            dead = [s for s in rtx if s in sacked]
            if dead:
                rtx.difference_update(dead)

    # -- episode ------------------------------------------------------
    def mark_lost(self, seq: int) -> None:
        self._lost.add(seq)

    def mark_rtx(self, seq: int) -> None:
        self._rtx.add(seq)

    def pop_min_lost(self) -> int:
        seq = min(self._lost)
        self._lost.discard(seq)
        self._rtx.add(seq)
        return seq

    def clear_episode(self) -> None:
        self._lost.clear()
        self._rtx.clear()

    # -- Karn ---------------------------------------------------------
    def mark_retx(self, seq: int) -> None:
        self._retx_pending.add(seq)

    def retx_below(self, ackno: int) -> bool:
        return any(s < ackno for s in self._retx_pending)

    # -- advance ------------------------------------------------------
    def advance(self, ackno: int) -> None:
        if ackno <= self.base:
            return
        self.base = ackno
        self._sacked.discard_below(ackno)
        for member in (self._lost, self._rtx, self._retx_pending):
            dead = [s for s in member if s < ackno]
            if dead:
                member.difference_update(dead)

    # -- IsLost -------------------------------------------------------
    def detect_losses(self, dup_thresh: int) -> None:
        """Verbatim pre-rewrite ``TcpSender._detect_losses``."""
        if not self._sacked:
            return
        need = dup_thresh
        cutoff = self.base
        for start, end in reversed(list(self._sacked.intervals())):
            size = end - start
            if size >= need:
                cutoff = end - need
                break
            need -= size
        if cutoff <= self.base:
            return
        pos = self.base
        for start, end in self._sacked.intervals():
            if end <= pos:
                continue
            if start >= cutoff:
                break
            for seq in range(pos, min(start, cutoff)):
                if seq not in self._rtx:
                    self._lost.add(seq)
            pos = max(pos, end)
            if pos >= cutoff:
                break
        for seq in range(pos, cutoff):
            if seq not in self._rtx:
                self._lost.add(seq)

    # -- views --------------------------------------------------------
    def sacked_set(self) -> Set[int]:
        return {s for a, b in self._sacked.intervals() for s in range(a, b)}

    def lost_set(self) -> Set[int]:
        return set(self._lost)

    def rtx_set(self) -> Set[int]:
        return set(self._rtx)

    def retx_set(self) -> Set[int]:
        return set(self._retx_pending)


class TestScoreboardEquivalence:
    """The flat-array SACK scoreboard (the hot-path rewrite) must be
    observably identical to the retained set-based reference
    (:class:`ReferenceScoreboard` above, the pre-rewrite implementation
    verbatim) under any operation sequence the sender can
    produce.

    Two constraints below mirror the sender's call discipline, which both
    implementations assume: a sequence is never marked lost while it is
    SACKed (``_on_new_ack``'s partial-ACK guard / ``detect_losses``'s hole
    rule) nor while it is already retransmitted this episode.
    """

    # Offsets are relative to the current scoreboard base, so advances
    # keep the exercised window small while base itself grows unboundedly.
    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("sack"), st.integers(0, 40), st.integers(1, 8)),
            st.tuples(st.just("lost"), st.integers(0, 40)),
            st.tuples(st.just("retx"), st.integers(0, 40)),
            st.tuples(st.just("pop"), st.just(0)),
            st.tuples(st.just("clear"), st.just(0)),
            st.tuples(st.just("advance"), st.integers(1, 12)),
            st.tuples(st.just("detect"), st.just(0)),
        ),
        min_size=1,
        max_size=60,
    )

    @staticmethod
    def _snapshot(sb):
        return (
            sb.base,
            sb.n_sacked, sb.n_lost, sb.n_rtx, sb.n_retx,
            sb.sacked_set(), sb.lost_set(), sb.rtx_set(), sb.retx_set(),
        )

    @given(ops=OPS)
    @settings(max_examples=300, deadline=None)
    def test_array_scoreboard_matches_set_reference(self, ops):
        arr = SackScoreboard()
        ref = ReferenceScoreboard()
        for op in ops:
            kind = op[0]
            base = ref.base
            if kind == "sack":
                # Blocks may start below the base (a stale report): both
                # implementations clamp.
                lo = base + op[1] - 4
                hi = lo + op[2]
                arr.mark_sacked(lo, hi)
                ref.mark_sacked(lo, hi)
            elif kind == "lost":
                seq = base + op[1]
                if ref.is_sacked(seq) or ref.is_rtx(seq):
                    continue  # sender discipline (see class docstring)
                arr.mark_lost(seq)
                ref.mark_lost(seq)
            elif kind == "retx":
                seq = base + op[1]
                arr.mark_retx(seq)
                ref.mark_retx(seq)
            elif kind == "pop":
                if not ref.n_lost:
                    continue
                assert arr.pop_min_lost() == ref.pop_min_lost()
            elif kind == "clear":
                arr.clear_episode()
                ref.clear_episode()
            elif kind == "advance":
                arr.advance(base + op[1])
                ref.advance(base + op[1])
            else:  # detect
                arr.detect_losses(3)
                ref.detect_losses(3)
            assert self._snapshot(arr) == self._snapshot(ref), op

        # Point queries agree across the whole live window (and just
        # outside it, where both must answer False).
        for seq in range(max(0, ref.base - 2), ref.base + 64):
            assert arr.is_sacked(seq) == ref.is_sacked(seq)
            assert arr.is_rtx(seq) == ref.is_rtx(seq)
            assert arr.is_retx(seq) == ref.is_retx(seq)
            assert arr.retx_below(seq) == ref.retx_below(seq)
