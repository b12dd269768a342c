"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.rt.loop import MonotonicTimers, RtSimulation
from repro.sim.engine import EventScheduler, SimulationError
from repro.sim.simulation import Simulation


class TestScheduling:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(2.0, fired.append, "b")
        sched.schedule_at(1.0, fired.append, "a")
        sched.schedule_at(3.0, fired.append, "c")
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        sched = EventScheduler()
        fired = []
        for label in ("first", "second", "third"):
            sched.schedule_at(1.0, fired.append, label)
        sched.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sched = EventScheduler()
        seen = []
        sched.schedule_at(5.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [5.5]

    def test_schedule_in_is_relative(self):
        sched = EventScheduler()
        times = []
        sched.schedule_at(1.0, lambda: sched.schedule_in(2.0, lambda: times.append(sched.now)))
        sched.run()
        assert times == [3.0]

    def test_scheduling_in_the_past_raises(self):
        sched = EventScheduler()
        sched.schedule_at(1.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.schedule_in(-0.1, lambda: None)

    def test_callback_without_arg(self):
        sched = EventScheduler()
        hits = []
        sched.schedule_at(1.0, lambda: hits.append(1))
        sched.run()
        assert hits == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule_at(1.0, fired.append, "x")
        handle.cancel()
        sched.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule_at(1.0, fired.append, "x")
        sched.run()
        handle.cancel()
        assert fired == ["x"]

    def test_cancelled_flag(self):
        sched = EventScheduler()
        handle = sched.schedule_at(1.0, lambda: None)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(1.0, fired.append, "a")
        sched.schedule_at(2.0, fired.append, "b")
        sched.run_until(1.5)
        assert fired == ["a"]
        assert sched.now == 1.5

    def test_run_until_includes_events_at_boundary(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(1.5, fired.append, "a")
        sched.run_until(1.5)
        assert fired == ["a"]

    def test_run_until_composes(self):
        sched = EventScheduler()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sched.schedule_at(t, fired.append, t)
        sched.run_until(1.0)
        sched.run_until(2.5)
        sched.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sched.now == 10.0

    def test_events_scheduled_during_run_execute(self):
        sched = EventScheduler()
        fired = []

        def chain():
            fired.append(sched.now)
            if sched.now < 3.0:
                sched.schedule_in(1.0, chain)

        sched.schedule_at(1.0, chain)
        sched.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        sched = EventScheduler()

        def reschedule():
            sched.schedule_in(1.0, reschedule)

        sched.schedule_in(1.0, reschedule)
        count = sched.run(max_events=25)
        assert count == 25

    def test_events_run_counter(self):
        sched = EventScheduler()
        for t in range(5):
            sched.schedule_at(float(t + 1), lambda: None)
        sched.run()
        assert sched.events_run == 5


class TestPosting:
    def test_post_at_fires_without_handle(self):
        sched = EventScheduler()
        fired = []
        assert sched.post_at(1.0, fired.append, "x") is None
        sched.run()
        assert fired == ["x"]

    def test_post_in_is_relative(self):
        sched = EventScheduler()
        times = []
        sched.schedule_at(1.0, lambda: sched.post_in(2.0, lambda: times.append(sched.now)))
        sched.run()
        assert times == [3.0]

    def test_posted_and_scheduled_interleave_fifo(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(1.0, fired.append, "a")
        sched.post_at(1.0, fired.append, "b")
        sched.schedule_at(1.0, fired.append, "c")
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_post_in_the_past_raises(self):
        sched = EventScheduler()
        sched.schedule_at(1.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.post_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sched.post_in(-0.1, lambda: None)


class TestNanTimes:
    """NaN compares false with everything, so a plain ``<`` check let it
    through: a NaN event fired between ordinary ones and left ``now`` at
    NaN, and ``run_until(nan)`` drained the whole heap."""

    @pytest.mark.parametrize(
        "method", ["schedule_at", "schedule_in", "post_at", "post_in"])
    def test_nan_time_is_rejected(self, method):
        sched = EventScheduler()
        fired = []
        for t in (0.5, 1.0, 2.0, 3.0):
            sched.schedule_at(t, fired.append, t)
        with pytest.raises(SimulationError, match="nan"):
            getattr(sched, method)(math.nan, fired.append, "nan")
        sched.run()
        assert fired == [0.5, 1.0, 2.0, 3.0]
        assert sched.now == 3.0

    def test_run_until_nan_is_rejected_and_runs_nothing(self):
        sched = EventScheduler()
        fired = []

        def tick():
            fired.append(sched.now)
            if len(fired) < 1000:
                sched.post_in(1.0, tick)

        sched.post_at(1.0, tick)
        with pytest.raises(SimulationError, match="nan"):
            sched.run_until(math.nan)
        assert fired == [] and sched.now == 0.0
        with pytest.raises(SimulationError, match="nan"):
            Simulation().run_until(math.nan)

    def test_monotonic_timers_reject_nan(self):
        timers = MonotonicTimers()
        with pytest.raises(SimulationError, match="nan"):
            timers.schedule_at(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            timers.schedule_in(math.nan, lambda: None)
        assert timers.pending == 0
        # A past time is still fine on a real clock: it fires next pass.
        timers.schedule_at(timers.now - 1.0, lambda: None)
        assert timers.fire_due() is None

    def test_rt_run_until_nan_is_rejected(self):
        with RtSimulation(seed=1) as rt:
            with pytest.raises(SimulationError, match="nan"):
                rt.run_until(math.nan)


class TestTombstones:
    def test_pending_excludes_cancelled_events(self):
        sched = EventScheduler()
        handles = [sched.schedule_at(float(t + 1), lambda: None) for t in range(10)]
        assert sched.pending == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sched.pending == 6
        assert sched.tombstones == 4

    def test_cancel_after_fire_leaves_counts_exact(self):
        sched = EventScheduler()
        handle = sched.schedule_at(1.0, lambda: None)
        sched.run()
        handle.cancel()
        handle.cancel()
        assert sched.pending == 0
        assert sched.tombstones == 0

    def test_cancelling_many_timers_keeps_heap_bounded(self):
        """The RTO-rearm pattern: schedule a far-future timer, cancel it,
        repeat.  Tombstones must be compacted away, not accumulate."""
        sched = EventScheduler()
        live = sched.schedule_at(1e9, lambda: None)
        n = 10_000
        for _ in range(n):
            handle = sched.schedule_at(1e9, lambda: None)
            handle.cancel()
        assert sched.pending == 1
        assert not live.cancelled
        # Far smaller than the n cancelled entries: compaction ran.
        assert len(sched._heap) < 200

    def test_compaction_preserves_live_events_and_order(self):
        sched = EventScheduler()
        fired = []
        keep = []
        for i in range(500):
            handle = sched.schedule_at(float(i + 1), fired.append, i)
            if i % 3 == 0:
                keep.append(i)
            else:
                handle.cancel()
        sched.run()
        assert fired == keep

    def test_compaction_during_run_does_not_lose_new_events(self):
        """Events scheduled after a mid-run compaction must still fire
        (compaction must keep the heap list identity the dispatch loop
        aliases)."""
        sched = EventScheduler()
        fired = []

        def churn_then_schedule():
            for _ in range(500):
                sched.schedule_at(1e9, lambda: None).cancel()
            sched.schedule_in(1.0, fired.append, "late")

        sched.schedule_at(1.0, churn_then_schedule)
        sched.run_until(10.0)
        assert fired == ["late"]
        assert sched.pending == 0


class TestSimulation:
    def test_seeded_rng_is_deterministic(self):
        a = Simulation(seed=7).rng.random()
        b = Simulation(seed=7).rng.random()
        assert a == b

    def test_different_seeds_differ(self):
        assert Simulation(seed=1).rng.random() != Simulation(seed=2).rng.random()

    def test_now_property(self):
        sim = Simulation()
        sim.run_until(4.0)
        assert sim.now == 4.0

    def test_at_end_callbacks(self):
        sim = Simulation()
        hits = []
        sim.at_end(lambda: hits.append("done"))
        sim.finish()
        assert hits == ["done"]

    def test_register_components(self):
        sim = Simulation()
        token = object()
        assert sim.register(token) is token
        assert token in sim.components
