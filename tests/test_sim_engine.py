"""Unit and property tests for the discrete-event simulation engine."""

from __future__ import annotations

import math
import pickle
import pickletools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_clock_advances_to_last_event(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.schedule(7.25, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(7.25)

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_priority_breaks_ties_before_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=5)
        sim.schedule(1.0, fired.append, "high", priority=-5)
        sim.run()
        assert fired == ["high", "low"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        fired = []
        sim.schedule_at(150.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == pytest.approx(150.0)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_non_finite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_non_callable_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not callable")  # type: ignore[arg-type]

    def test_events_scheduled_during_run_are_executed(self):
        sim = Simulator()
        fired = []

        def chain(n: int):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == pytest.approx(5.0)


class TestCallbackChains:
    """A wait is a callback that schedules its own continuation, the way
    every entity waits: there is no coroutine layer on top of the queue."""

    def test_rescheduling_callback_advances_the_clock_between_steps(self):
        sim = Simulator()
        times = []

        def step(remaining):
            times.append(sim.now)
            if remaining > 1:
                sim.schedule(10.0, step, remaining - 1)

        sim.schedule(0.0, step, 3)
        sim.run()
        assert times == [0.0, 10.0, 20.0]
        assert sim.now == pytest.approx(20.0)

    def test_two_chains_interleave_in_time_order(self):
        sim = Simulator()
        order = []

        def chain(name, period, remaining):
            order.append((name, sim.now))
            if remaining > 1:
                sim.schedule(period, chain, name, period, remaining - 1)

        sim.schedule(0.0, chain, "fast", 1.0, 2)
        sim.schedule(0.0, chain, "slow", 3.0, 2)
        sim.run()
        assert order == [("fast", 0.0), ("slow", 0.0), ("fast", 1.0), ("slow", 3.0)]

    def test_chain_end_runs_its_completion_callback_once(self):
        sim = Simulator()
        done = []

        def step(remaining, on_finish):
            if remaining:
                sim.schedule(1.0, step, remaining - 1, on_finish)
            else:
                on_finish(sim.now)

        sim.schedule(0.0, step, 2, done.append)
        sim.run()
        assert done == [2.0]
        assert sim.events_processed == 3


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        seq = sim.schedule(1.0, fired.append, "x")
        sim.cancel(seq)
        sim.run()
        assert fired == []

    def test_double_cancel_raises(self):
        sim = Simulator()
        seq = sim.schedule(1.0, lambda: None)
        sim.cancel(seq)
        with pytest.raises(SimulationError):
            sim.cancel(seq)

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending == 1
        assert len(sim) == 1
        del keep

    def test_pending_counter_tracks_schedule_fire_cancel(self):
        """pending is a live counter: exact through schedules, fires, cancels
        and drains (it used to be an O(n) scan of the heap)."""
        sim = Simulator()
        seqs = [sim.schedule(float(i), lambda: None) for i in range(10)]
        assert sim.pending == 10
        sim.cancel(seqs[3])
        sim.cancel(seqs[7])
        assert sim.pending == 8
        sim.step()
        assert sim.pending == 7
        sim.run()
        assert sim.pending == 0

    def test_pending_counter_with_drain(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        drop = sim.schedule(9.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending == 5
        assert len(list(sim.drain())) == 5
        assert sim.pending == 0

    def test_cancelling_a_seq_that_is_not_pending_raises_and_changes_nothing(self):
        """Only a pending scheduled event can be cancelled: the seq of a
        fired, drained or cancelled event, of a feed event, or one never
        issued, raises and leaves pending, queue_size and events_processed
        as they were."""
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.run(until=1.0)
        drained = sim.schedule(5.0, lambda: None)
        assert [entry[2] for entry in sim.drain()] == [drained]
        cancelled = sim.schedule(2.0, lambda: None)
        sim.cancel(cancelled)
        sim.feed([3.0], print, ["fed"])
        fed = cancelled + 1
        sim.schedule(3.0, lambda: None)
        state = (sim.pending, sim.queue_size, sim.events_processed)
        assert state == (2, 2, 1)
        for seq in (fired, drained, cancelled, fed, fed + 10, -1):
            with pytest.raises(SimulationError, match="not pending"):
                sim.cancel(seq)
            assert (sim.pending, sim.queue_size, sim.events_processed) == state
        sim.run()
        assert (sim.pending, sim.queue_size, sim.events_processed) == (0, 0, 3)

    def test_pending_visible_from_callbacks(self):
        """Entities poll pending mid-run (dynamic pricing does) — the counter
        must not count the currently-firing event."""
        sim = Simulator()
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.pending))
        sim.schedule(2.0, lambda: observed.append(sim.pending))
        sim.run()
        assert observed == [1, 0]


#: Each way to put an event on the heap, as ``form(sim, time, callback)``.
_SCHEDULE_FORMS = {
    "schedule_at": lambda sim, time, callback: sim.schedule_at(time, callback),
    "feed": lambda sim, time, callback: sim.feed([12.0, time], callback, [None, None]),
    "schedule_at_many": lambda sim, time, callback: sim.schedule_at_many(
        [(20.0, print, ()), (time, callback, ())]
    ),
}


class TestScheduleValidation:
    @pytest.mark.parametrize("form", sorted(_SCHEDULE_FORMS))
    def test_every_form_refuses_a_bad_event_and_schedules_nothing(self, form):
        """A non-finite time, a time in the past and a callback that cannot
        be called are refused by every form, before anything is queued."""
        sim = Simulator(start_time=10.0)
        sim.schedule(1.0, print)
        bad = [
            (math.nan, print, "finite"),
            (math.inf, print, "finite"),
            (5.0, print, "in the past"),
            (12.0, "not callable", "callable"),
        ]
        for time, callback, message in bad:
            with pytest.raises(SimulationError, match=message):
                _SCHEDULE_FORMS[form](sim, time, callback)
            assert (sim.pending, sim.queue_size) == (1, 1)
        # A good event still goes through, so the refusals were the checks.
        _SCHEDULE_FORMS[form](sim, 12.0, print)
        assert sim.pending == 2 + (form in ("schedule_at_many", "feed"))


class TestRunControl:
    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(5.0)
        # The remaining event still fires on a subsequent run().
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_must_be_positive(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=0)

    def test_run_window_excludes_its_end(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "inside")
        sim.schedule(5.0, fired.append, "at end")
        assert sim.run_window(5.0) == 1
        assert fired == ["inside"]
        assert sim.now == 5.0
        sim.run(until=5.0)  # run()'s bound is inclusive
        assert fired == ["inside", "at end"]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_step_returns_false_on_empty_queue(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == pytest.approx(42.0)

    def test_drain_yields_remaining_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        remaining = list(sim.drain())
        assert [entry[0] for entry in remaining] == [1.0, 2.0]
        assert sim.pending == 0


class TestTrace:
    def test_trace_callback_invoked_per_event(self):
        records = []
        sim = Simulator(trace=lambda t, label: records.append((t, label)))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(records) == 2
        assert records[0][0] == pytest.approx(1.0)


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_firing_order_is_sorted_by_time(self, delays):
        """Events always fire in non-decreasing time order (DES invariant)."""
        sim = Simulator()
        observed = []
        for d in delays:
            sim.schedule(d, lambda d=d: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e5), st.integers(0, 1)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cancelled_events_never_fire(self, items):
        """No cancelled event is ever executed, and all others are."""
        sim = Simulator()
        fired = []
        seqs = []
        for idx, (delay, cancel) in enumerate(items):
            seqs.append((sim.schedule(delay, fired.append, idx), bool(cancel)))
        for seq, cancel in seqs:
            if cancel:
                sim.cancel(seq)
        sim.run()
        expected = {idx for idx, (_, cancel) in enumerate(items) if not cancel}
        assert set(fired) == expected

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_event_count_conservation(self, n):
        """Every scheduled, non-cancelled event fires exactly once."""
        sim = Simulator()
        counter = {"fired": 0}
        for i in range(n):
            sim.schedule(float(i % 7), lambda: counter.__setitem__("fired", counter["fired"] + 1))
        sim.run()
        assert counter["fired"] == n
        assert sim.events_processed == n


# --------------------------------------------------------------------------- #
# The one loop: step, run and run_window drive the same private loop, so the
# trace hook, the counters and cancellation skipping must behave identically
# whichever entry point fires the events.
# --------------------------------------------------------------------------- #
def _drive_by_steps(sim):
    while sim.step():
        pass


def _drive_by_run(sim):
    sim.run()


def _drive_by_windows(sim):
    while sim.pending:
        sim.run_window(sim.now + 1.0)


_DRIVERS = {
    "step": _drive_by_steps,
    "run": _drive_by_run,
    "run_window": _drive_by_windows,
}


@pytest.fixture(params=sorted(_DRIVERS))
def drive(request):
    return _DRIVERS[request.param]


class TestOneLoop:
    def test_fires_in_time_priority_seq_order(self, drive):
        sim = Simulator()
        fired = []
        keys = [(3.0, 0), (1.0, 1), (1.0, 0), (2.5, -1), (1.0, 0), (3.0, -2)]
        for index, (time, priority) in enumerate(keys):
            sim.schedule(time, fired.append, index, priority=priority)
        drive(sim)
        expected = sorted(range(len(keys)), key=lambda i: (keys[i][0], keys[i][1], i))
        assert fired == expected

    def test_trace_hook_sees_every_fired_event(self, drive):
        records = []
        sim = Simulator(trace=lambda time, label: records.append((time, label)))

        def tick():
            pass

        for time in (0.5, 2.0, 2.0, 4.25):
            sim.schedule(time, tick)
        drive(sim)
        label = tick.__qualname__
        assert records == [(0.5, label), (2.0, label), (2.0, label), (4.25, label)]

    def test_counters_track_every_fire(self, drive):
        sim = Simulator()
        observed = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule(time, lambda: observed.append((sim.pending, sim.events_processed)))
        drive(sim)
        # Inside a callback the firing event is already counted as fired.
        assert observed == [(2, 1), (1, 2), (0, 3)]
        assert (sim.pending, sim.events_processed, sim.queue_size) == (0, 3, 0)

    def test_cancelled_events_are_skipped_and_dropped(self, drive):
        sim = Simulator()
        fired = []
        kept = sim.schedule(1.0, fired.append, "kept")
        dropped = sim.schedule(0.5, fired.append, "dropped")
        sim.schedule(2.0, fired.append, "late")
        sim.cancel(dropped)
        drive(sim)
        assert fired == ["kept", "late"]
        assert (sim.events_processed, sim.pending, sim.queue_size) == (2, 0, 0)
        # A fired event is no longer pending: cancelling it raises.
        with pytest.raises(SimulationError, match="not pending"):
            sim.cancel(kept)
        assert (sim.events_processed, sim.pending, sim.queue_size) == (2, 0, 0)

    def test_compaction_from_a_callback_keeps_the_running_heap(self, drive):
        """A callback whose cancellations cross the compaction threshold
        compacts the heap in place, so the loop firing it keeps popping the
        one heap: an event scheduled after the purge fires in the same
        drive, once, in order."""
        sim = Simulator()
        fired = []
        far = [sim.schedule(10.0 + i, fired.append, i) for i in range(80)]

        def purge():
            for seq in far[:70]:
                sim.cancel(seq)
            sim.schedule(0.1, fired.append, "after purge")

        sim.schedule(0.5, purge)
        drive(sim)
        assert fired == ["after purge"] + list(range(70, 80))
        assert (sim.pending, sim.queue_size, sim.events_processed) == (0, 0, 12)

    def test_events_scheduled_from_callbacks_fire_in_the_same_drive(self, drive):
        sim = Simulator()
        fired = []

        def spawn():
            fired.append("parent")
            sim.schedule(0.5, fired.append, "later")
            sim.schedule(0.0, fired.append, "now")

        sim.schedule(1.0, spawn)
        sim.schedule(1.25, fired.append, "sibling")
        drive(sim)
        assert fired == ["parent", "now", "sibling", "later"]
        assert sim.pending == 0


class TestRunWindow:
    def test_returns_the_number_of_events_fired(self):
        sim = Simulator()
        for time in (1.0, 2.0, 2.0, 7.0):
            sim.schedule(time, lambda: None)
        assert sim.run_window(5.0) == 3
        assert sim.run_window(10.0) == 1
        assert sim.run_window(12.0) == 0

    def test_lands_on_its_end_when_the_heap_empties(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_window(8.0)
        assert sim.now == 8.0
        assert sim.run_window(9.5) == 0
        assert sim.now == 9.5

    def test_end_equal_to_now_fires_nothing(self):
        sim = Simulator(start_time=3.0)
        fired = []
        sim.schedule(0.0, fired.append, "at now")
        assert sim.run_window(3.0) == 0
        assert fired == []
        assert sim.now == 3.0
        sim.run_window(3.5)
        assert fired == ["at now"]

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_end(self, end):
        sim = Simulator()
        with pytest.raises(SimulationError, match="window end"):
            sim.run_window(end)

    def test_rejects_an_end_in_the_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError, match="window end"):
            sim.run_window(9.0)

    def test_fires_an_event_just_below_its_end(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(math.nextafter(5.0, 0.0), fired.append, "below")
        sim.schedule_at(5.0, fired.append, "at end")
        assert sim.run_window(5.0) == 1
        assert fired == ["below"]

    def test_event_scheduled_at_its_end_waits_for_the_next_window(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(4.0, fired.append, "boundary"))
        sim.run_window(4.0)
        assert fired == []
        assert sim.pending == 1
        sim.run_window(6.0)
        assert fired == ["boundary"]

    def test_reentrant_call_is_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run_window(sim.now + 1.0)
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: None)
        sim.run_window(5.0)
        assert len(errors) == 1 and "re-entrant" in errors[0]
        assert sim.events_processed == 2
        assert sim.now == 5.0

    def test_stop_leaves_the_clock_on_the_last_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, "b")
        assert sim.run_window(10.0) == 2
        assert fired == ["a"]
        assert sim.now == 2.0


class TestRunBounds:
    def test_run_fires_events_exactly_at_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "at until")
        sim.schedule(math.nextafter(5.0, math.inf), fired.append, "after")
        sim.run(until=5.0)
        assert fired == ["at until"]
        assert sim.now == 5.0

    def test_exhausted_budget_leaves_the_clock_on_the_last_event(self):
        sim = Simulator()
        for time in (1.0, 2.0, 3.0):
            sim.schedule(time, lambda: None)
        sim.run(until=10.0, max_events=2)
        assert sim.now == 2.0
        assert sim.pending == 1
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_stop_request_is_cleared_by_the_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(3.0, fired.append, "c")
        sim.run(until=10.0)
        assert (fired, sim.now) == ([], 1.0)
        sim.run(until=10.0)
        assert (fired, sim.now) == (["b", "c"], 10.0)

    def test_reentrant_run_is_rejected_and_the_outer_run_finishes(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(errors) == 1 and "re-entrant" in errors[0]
        assert sim.events_processed == 2
        # The guard is released: the simulator can run again.
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestIntrospection:
    def test_next_event_time_peeks_without_firing(self):
        sim = Simulator()
        fired = []
        sim.schedule(4.0, fired.append, "b")
        sim.schedule(2.0, fired.append, "a")
        assert sim.next_event_time() == 2.0
        assert sim.next_event_time() == 2.0
        assert (fired, sim.now, sim.pending, sim.events_processed) == ([], 0.0, 2, 0)

    def test_next_event_time_is_none_once_only_corpses_remain(self):
        sim = Simulator()
        seqs = [sim.schedule(float(t), lambda: None) for t in (1, 2, 3)]
        for seq in seqs:
            sim.cancel(seq)
        assert sim.queue_size == 3
        assert sim.next_event_time() is None
        assert sim.queue_size == 0
        assert sim.pending == 0

    def test_compaction_drops_every_cancelled_entry(self):
        sim = Simulator()
        live = [sim.schedule(50.0 + i, lambda: None) for i in range(10)]
        doomed = [sim.schedule(10.0 + i, lambda: None) for i in range(70)]
        for seq in doomed:
            sim.cancel(seq)
        # The 65th cancellation crossed the compaction threshold (more than
        # 64 dead, and more dead than live) and dropped all 65 corpses; the
        # last five cancelled entries wait to surface.
        assert sim.queue_size == len(live) + 5
        assert sim.pending == 10
        assert sim.next_event_time() == 50.0

    def test_drain_skips_cancelled_entries_and_yields_heap_entries(self):
        sim = Simulator()
        keep = sim.schedule(1.0, print, "kept")
        drop = sim.schedule(2.0, lambda: None)
        last = sim.schedule(3.0, print, priority=-1)
        sim.cancel(drop)
        drained = list(sim.drain())
        assert drained == [(1.0, 0, keep, print, ("kept",)), (3.0, -1, last, print, ())]
        assert (sim.pending, sim.queue_size) == (0, 0)
        with pytest.raises(SimulationError, match="not pending"):
            sim.cancel(drop)


class TestPickling:
    def test_sequence_counter_is_a_plain_int_that_survives_pickling(self):
        sim = Simulator()
        for time in (1.0, 2.0, 3.0):
            sim.schedule(time, print)
        sim.feed([4.0] * 4, print, range(4))
        clone = pickle.loads(pickle.dumps(sim))
        assert type(clone._seq) is int
        assert clone.schedule(1.0, print) == sim.schedule(1.0, print) == 7

    def test_simulator_pickle_names_no_itertools_global(self):
        sim = Simulator()
        sim.schedule(1.0, print)
        sim.run(max_events=1)
        sim.schedule(1.0, print)
        names = set()
        for opcode, arg, _pos in pickletools.genops(pickle.dumps(sim)):
            if opcode.name == "GLOBAL":
                names.add(arg.split(" ")[0])
            elif "UNICODE" in opcode.name:
                names.add(arg)
        assert "itertools" not in names
