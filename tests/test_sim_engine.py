"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Event, SimulationError, Simulator, Timer
from tests import reference_engine


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda lab=label: order.append(lab))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_zero_delay_runs_after_current_instant_events(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_nan_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_at(float("nan"), lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("-nan")])
    def test_nan_push_rejected(self, sim, time):
        """A run refuses a NaN time, as ``schedule`` and ``call_at`` do,
        whether it is empty, already holds an item, or is extended."""
        run = sim.timed_run(lambda payload: None)
        with pytest.raises(SimulationError, match="NaN"):
            run.push(time, "x")
        with pytest.raises(SimulationError, match="NaN"):
            run.extend(time, ["x"])
        run.push(1.0, "a")
        with pytest.raises(SimulationError, match="NaN"):
            run.push(time, "x")
        with pytest.raises(SimulationError, match="NaN"):
            run.extend(time, ["x"])
        assert run.pending() == 1 and sim.pending() == 1
        sim.run()
        assert sim.now == 1.0

    def test_out_of_order_push_still_names_the_times(self, sim):
        run = sim.timed_run(lambda payload: None)
        run.push(2.0, "a")
        with pytest.raises(SimulationError, match="out of order: 1.0 < 2.0"):
            run.push(1.0, "b")
        sim.schedule(3.0, lambda: run.push(2.5, "c"))
        with pytest.raises(SimulationError, match="in the past: 2.5 < 3.0"):
            sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0

    def test_run_until_advances_clock_with_no_events(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_remaining_events_run_on_second_call(self, sim):
        seen = []
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(until=2.0)
        sim.run(until=4.0)
        assert seen == [3]

    def test_event_exactly_at_until_runs(self, sim):
        seen = []
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(until=2.0)
        assert seen == [2]

    def test_max_events_cap(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(i * 0.1 + 0.1, lambda i=i: seen.append(i))
        sim.run(max_events=4)
        assert seen == [0, 1, 2, 3]

    def test_max_events_stop_keeps_clock_at_last_event(self, sim):
        # Regression: stopping early on max_events with events still
        # pending must NOT fast-forward the clock to ``until`` — the
        # remaining events would then sit in the simulator's past.
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(until=10.0, max_events=1)
        assert seen == [1]
        assert sim.now == 1.0
        sim.run(until=10.0)
        assert seen == [1, 2]
        assert sim.now == 10.0

    def test_until_fast_forward_when_drained(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0, max_events=1)
        # The cap was hit exactly as the queue drained: nothing is
        # pending, so advancing to ``until`` is still correct.
        assert sim.now == 5.0

    def test_nan_until_rejected(self, sim):
        """``run(until=nan)`` compared false against every time, so it
        fired both one-shots and returned (and never returned once a
        ``Timer`` was armed); it is refused like a NaN schedule time."""
        seen = []
        sim.call_at(1.0, lambda: seen.append(1.0))
        sim.call_at(2.0, lambda: seen.append(2.0))
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert seen == [] and sim.now == 0.0
        sim.run(until=1.5)
        assert seen == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(1))
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_twice_is_safe(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_peek_skips_cancelled(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek() == 2.0

    def test_pending_excludes_cancelled(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending() == 1

    def test_trailing_tombstone_leaves_clock_at_last_dispatch(self, sim):
        """The clock moves only to an instant where something fired: an
        unbounded ``run`` that pops a cancelled event at 5.0 after the
        last live one at 1.0 leaves ``now`` at 1.0."""
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None).cancel()
        sim.run()
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_cancel_after_fired_is_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert event.fired
        event.cancel()
        assert not event.cancelled  # a fired event can't become cancelled

    def test_repr_shows_lifecycle_state(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)
        fired = sim.schedule(2.0, lambda: None)
        sim.run()
        assert "fired" in repr(fired)
        assert "1.0" in repr(event) or "1" in repr(event)


class TestTimer:
    def test_timer_fires_repeatedly(self, sim):
        ticks = []
        Timer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_timer_first_delay(self, sim):
        ticks = []
        Timer(sim, 1.0, lambda: ticks.append(sim.now), first_delay=0.0)
        sim.run(until=2.5)
        assert ticks == [0.0, 1.0, 2.0]

    def test_timer_stop(self, sim):
        ticks = []
        timer = Timer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(until=5.0)
        assert ticks == [1.0, 2.0]
        assert timer.stopped

    def test_timer_stop_from_callback(self, sim):
        ticks = []
        timer = Timer(sim, 1.0, lambda: (ticks.append(sim.now),
                                         timer.stop() if len(ticks) >= 2 else None))
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_timer_interval_change(self, sim):
        ticks = []
        timer = Timer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(1.5, lambda: setattr(timer, "interval", 2.0))
        sim.run(until=6.0)
        assert ticks == [1.0, 2.0, 4.0, 6.0]

    def test_timer_invalid_interval(self, sim):
        with pytest.raises(SimulationError):
            Timer(sim, 0.0, lambda: None)

    def test_timer_interval_setter_validates(self, sim):
        timer = Timer(sim, 1.0, lambda: None)
        with pytest.raises(SimulationError):
            timer.interval = -1.0

    def test_nan_interval_rejected_at_the_call(self, sim):
        """A NaN interval used to construct, fire once and raise at its
        first re-plant, mid-run; the setter took one silently."""
        with pytest.raises(SimulationError, match="positive"):
            Timer(sim, float("nan"), lambda: None, first_delay=0.0)
        timer = Timer(sim, 1.0, lambda: None)
        with pytest.raises(SimulationError, match="positive"):
            timer.interval = float("nan")
        assert timer.interval == 1.0
        sim.run(until=2.5)
        assert sim.now == 2.5 and sim.peek() == 3.0

    def test_legacy_timer_accumulates_float_drift(self, sim):
        # Pins the default (accumulating) behaviour: the golden scenario
        # digests depend on it, so it must not silently change.
        ticks = []
        Timer(sim, 0.1, lambda: ticks.append(sim.now))
        sim.run(until=1.05)
        assert len(ticks) == 10
        anchor = ticks[0]
        assert any(t != anchor + k * 0.1 for k, t in enumerate(ticks))


class TestTickGroups:
    """Timers that re-plant at one instant share one dispatch."""

    @pytest.mark.parametrize("timer_cls", (Timer, reference_engine.Timer))
    def test_stopping_every_member_leaves_peek_and_pending(self, timer_cls):
        sim = Simulator()
        ticks = []
        timers = [timer_cls(sim, 1.0, lambda i=i: ticks.append((i, sim.now)))
                  for i in range(3)]
        sim.call_at(2.5, lambda: None)
        sim.run(until=1.5)
        assert ticks == [(0, 1.0), (1, 1.0), (2, 1.0)]
        assert (sim.peek(), sim.pending()) == (2.0, 4)
        timers[1].stop()
        assert (sim.peek(), sim.pending()) == (2.0, 3)
        timers[0].stop()
        timers[2].stop()
        assert (sim.peek(), sim.pending()) == (2.5, 1)
        sim.run()
        assert len(ticks) == 3 and sim.now == 2.5

    def test_in_phase_timers_are_one_dispatch(self, sim):
        """``run(max_events=1)`` fires the whole group: it is one
        dispatch, as a burst is."""
        ticks = []
        for name in "ab":
            Timer(sim, 1.0, lambda name=name: ticks.append((name, sim.now)))
        sim.run(max_events=1)
        assert ticks == [("a", 1.0), ("b", 1.0)]
        assert sim.events_processed == 1 and sim.now == 1.0
        assert (sim.peek(), sim.pending()) == (2.0, 2)

    def test_a_foreign_entry_between_two_members_splits_the_group(self, sim):
        """``b`` joins ``a``'s group at 1.0, but the foreign event took
        its seq in between: it fires between them, as it did when each
        tick was an event.  Their next ticks share one dispatch again."""
        log = []
        Timer(sim, 1.0, lambda: log.append(("a", sim.now)))
        sim.call_at(1.0, lambda: log.append(("foreign", sim.now)))
        Timer(sim, 1.0, lambda: log.append(("b", sim.now)))
        sim.run(until=2.5)
        assert log == [("a", 1.0), ("foreign", 1.0), ("b", 1.0),
                       ("a", 2.0), ("b", 2.0)]
        assert sim.events_processed == 4

    def test_a_tick_planted_at_an_instant_already_dispatched_fires(self, sim):
        """``a``'s group fired and ``a`` stopped; a timer planted at that
        same instant afterwards must get an entry of its own."""
        log = []
        timer = Timer(sim, 1.0, lambda: (log.append(("a", sim.now)),
                                         timer.stop()))
        sim.call_at(1.0, lambda: Timer(
            sim, 1.0, lambda: log.append(("b", sim.now)), first_delay=0.0))
        sim.run(until=2.5)
        assert log == [("a", 1.0), ("b", 1.0), ("b", 2.0)]


class TestEventOrdering:
    def test_event_lt_compares_time_then_seq(self):
        early = Event(1.0, 0, lambda: None)
        late = Event(2.0, 1, lambda: None)
        assert early < late
        first = Event(1.0, 0, lambda: None)
        second = Event(1.0, 1, lambda: None)
        assert first < second


class TestEngineEdgeCases:
    def test_run_while_running_rejected(self):
        sim = Simulator()

        def reentrant():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.1, reentrant)
        sim.run()

    def test_callback_scheduling_during_run(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                sim.schedule(0.1, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_peek_empty(self):
        assert Simulator().peek() is None
