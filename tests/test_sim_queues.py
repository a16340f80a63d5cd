"""Unit tests for the simulator's event heap.

The delivery contract — events fire in strictly increasing
``(time, priority, seq)`` order — is pinned three ways: the unit tests in
``test_delivery_order.py``, the hypothesis oracle here that replays random
schedule / cancel / run / run_window / step interleavings (cancellations
from inside callbacks included) through the simulator and through a naive
sorted-list reference model and requires identical fire transcripts, and a
parity oracle holding ``schedule_at_many`` to the looped ``schedule_at``
form.

The engine-level guarantees that ride on the heap are pinned too: bounded
heap length under cancellation churn (compaction), the cancel contract
(only a pending seq can be cancelled), the presorted feed (its keys, its
validation, and that it never enters the heap), and the out-of-order guard.
"""

from __future__ import annotations

import math
import pickle
from heapq import heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestMisorderGuard:
    """The engine must fail loudly — not silently rewind its clock — if an
    event older than the clock ever surfaces from the heap."""

    @staticmethod
    def _corrupted():
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        # Slip an entry older than the clock past schedule()'s validation.
        seq = sim._seq
        sim._seq += 1
        heappush(sim._heap, (1.0, 0, seq, lambda: None, ()))
        sim._live.add(seq)
        return sim

    def test_run_raises_on_out_of_order_delivery(self):
        with pytest.raises(SimulationError, match="out of order"):
            self._corrupted().run()

    def test_step_raises_on_out_of_order_delivery(self):
        with pytest.raises(SimulationError, match="out of order"):
            self._corrupted().step()

    def test_run_window_raises_on_out_of_order_delivery(self):
        with pytest.raises(SimulationError, match="out of order"):
            self._corrupted().run_window(20.0)


class TestFeed:
    def test_the_feed_takes_the_next_sequence_numbers(self):
        sim = Simulator()
        assert sim.schedule(1.0, lambda: None) == 0
        sim.feed([2.0, 3.0, 3.0], print, ["a", "b", "c"])  # seqs 1, 2, 3
        assert sim.schedule(1.0, lambda: None) == 4

    @pytest.mark.parametrize("priority", [-1, 0, 1])
    def test_a_feed_event_keeps_its_place_among_equal_times(self, priority):
        """A feed event has the key ``(time, 0, seq)``: at its instant it
        fires after lower priorities and before higher ones, and at priority
        0 after what was scheduled before the feed and before what was
        scheduled after it."""
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "before", priority=priority)
        sim.feed([5.0, 5.0], fired.append, ["fed 1", "fed 2"])
        sim.schedule_at(5.0, fired.append, "after", priority=priority)
        sim.run()
        expected = {
            -1: ["before", "after", "fed 1", "fed 2"],
            0: ["before", "fed 1", "fed 2", "after"],
            1: ["fed 1", "fed 2", "before", "after"],
        }
        assert fired == expected[priority]

    def test_a_feed_never_enters_the_heap(self):
        sim = Simulator()
        sim.schedule(4.0, lambda: None)
        sim.feed([1.0, 2.0, 6.0], print, [1, 2, 6])
        assert (sim.pending, len(sim), sim.queue_size) == (4, 4, 1)
        assert sim.next_event_time() == 1.0
        sim.run(until=3.0)
        assert (sim.pending, sim.queue_size, sim.events_processed) == (2, 1, 2)
        assert sim.next_event_time() == 4.0
        sim.run()
        assert (sim.pending, sim.queue_size, sim.events_processed) == (0, 0, 4)
        assert sim.next_event_time() is None

    def test_feed_events_cannot_be_cancelled(self):
        sim = Simulator()
        sim.feed([1.0], print, ["fed"])  # seq 0
        with pytest.raises(SimulationError, match="not pending"):
            sim.cancel(0)
        assert sim.pending == 1

    @pytest.mark.parametrize(
        "times, message",
        [
            ([12.0, math.nan], "finite"),
            ([12.0, math.inf], "finite"),
            ([5.0, 12.0], "in the past"),
            ([12.0, 14.0, 13.0], "non-decreasing"),
        ],
        ids=["nan", "inf", "past", "decreasing"],
    )
    def test_a_bad_time_refuses_the_whole_feed(self, times, message):
        sim = Simulator(start_time=10.0)
        sim.schedule(1.0, print)
        before = (sim.pending, sim.queue_size, sim._seq)
        with pytest.raises(SimulationError, match=message):
            sim.feed(times, print, list(range(len(times))))
        assert (sim.pending, sim.queue_size, sim._seq) == before
        sim.run()
        assert sim.events_processed == 1

    def test_a_bad_callback_or_item_count_refuses_the_feed(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="callable"):
            sim.feed([1.0], "not callable", [None])
        with pytest.raises(SimulationError, match="2 items"):
            sim.feed([1.0], print, [None, None])
        assert (sim.pending, sim._seq) == (0, 0)

    def test_a_second_feed_waits_for_the_first_to_be_spent(self):
        sim = Simulator()
        fired = []
        sim.feed([1.0, 2.0], fired.append, ["a1", "a2"])
        with pytest.raises(SimulationError, match="already pending"):
            sim.feed([3.0], fired.append, ["b"])
        assert (sim.pending, sim._seq) == (2, 2)
        sim.run(until=1.5)
        with pytest.raises(SimulationError, match="already pending"):
            sim.feed([3.0], fired.append, ["b"])
        sim.run()
        sim.feed([3.0], fired.append, ["b"])
        sim.run()
        assert fired == ["a1", "a2", "b"]

    def test_a_feed_installed_by_a_callback_fires_in_the_same_run(self):
        sim = Simulator()
        fired = []
        sim.feed([1.0], lambda _item: sim.feed([2.0, 3.0], fired.append, ["b", "c"]), [None])
        sim.run()
        assert fired == ["b", "c"]
        assert sim.now == 3.0

    def test_drain_merges_the_feed_in_delivery_order(self):
        sim = Simulator()
        first = sim.schedule_at(2.0, print, "heap")
        sim.feed([1.0, 2.0], print, ["fed 1", "fed 2"])  # seqs 1, 2
        last = sim.schedule_at(2.0, print, priority=-1)
        assert list(sim.drain()) == [
            (1.0, 0, 1, print, ("fed 1",)),
            (2.0, -1, last, print, ()),
            (2.0, 0, first, print, ("heap",)),
            (2.0, 0, 2, print, ("fed 2",)),
        ]
        assert (sim.pending, sim.queue_size) == (0, 0)
        assert sim._feed_callback is None

    def test_a_spent_feed_holds_no_callback_or_item(self):
        import weakref

        class Target:
            def __call__(self, item):
                pass

        class Item:
            pass

        sim = Simulator()
        callback, item = Target(), Item()
        sim.feed([1.0], callback, [item])
        refs = (weakref.ref(callback), weakref.ref(item))
        del callback, item
        sim.run()
        assert [ref() for ref in refs] == [None, None]

    def test_a_feed_resumes_from_a_pickle(self):
        sim = Simulator()
        log = []
        sim.feed([1.0, 2.0, 2.0, 4.0], log.append, ["a", "b", "c", "d"])
        sim.schedule_at(2.0, log.append, "heap")
        sim.run(until=1.0)
        clone, clone_log = pickle.loads(pickle.dumps((sim, log)))
        assert clone.pending == sim.pending == 4
        sim.run()
        clone.run()
        assert clone_log == log == ["a", "b", "c", "heap", "d"]


class TestEngineCompaction:
    """Satellite regression: cancelled events must not pile up in the heap."""

    def test_heap_queue_length_bounded_under_mass_cancellation(self):
        sim = Simulator()
        live = [sim.schedule(1000.0, lambda: None) for _ in range(100)]
        # Churn: far timeouts scheduled and cancelled over and over — the
        # pre-compaction engine kept every corpse until it surfaced.
        worst = 0
        for _ in range(10_000):
            sim.cancel(sim.schedule(500.0, lambda: None))
            worst = max(worst, sim.queue_size)
        # Compaction triggers once dead entries outnumber live ones (above
        # the 64-entry floor), so the raw heap can never hold more than
        # pending + max(64, pending) + 1 entries.
        bound = sim.pending + max(64, sim.pending) + 1
        assert worst <= bound, f"heap grew to {worst} (> bound {bound})"
        assert sim.pending == 100
        del live

    def test_cancelled_entries_linger_until_they_surface(self):
        sim = Simulator()
        dead = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(dead)
        assert sim.queue_size == 2  # below the compaction floor: kept
        assert sim.pending == 1
        assert sim.next_event_time() == 2.0  # the corpse is skipped...
        assert sim.queue_size == 1  # ...and dropped on the way

    def test_bounded_queue_under_churn_heavy_fault_plan(self, monkeypatch):
        """The engine guarantee holds inside a real churn-heavy faulted run:
        at no point may dead entries outnumber max(64, live) + 1.

        The plan crashes every cluster over and over while the compressed
        synthetic workload keeps them busy, so each crash's ``fail_all``
        cancels running jobs' finish events — the cancellation churn the
        seed engine accumulated in its heap until the corpses surfaced.
        """
        from repro.faults.plan import FaultPlan
        from repro.scenario import Scenario, run_scenario
        from repro.workload.archive import ARCHIVE_RESOURCES

        observed = []
        original = Simulator.cancel

        def recording_cancel(self, seq):
            original(self, seq)
            observed.append((self.queue_size, self.pending))

        monkeypatch.setattr(Simulator, "cancel", recording_cancel)
        plan = FaultPlan()
        for i, resource in enumerate(ARCHIVE_RESOURCES):
            for round_ in range(4):
                at = 1800.0 + 600.0 * i + 5_400.0 * round_
                plan = plan.crash(resource.name, at=at, duration=900.0)
        run_scenario(
            Scenario(
                mode="economy",
                workload="synthetic",
                horizon=6 * 3600.0,
                thin=3,
                seed=42,
            ),
            fault_plan=plan,
        )
        assert observed, "the churn plan should cancel at least one event"
        for queue_size, pending in observed:
            assert queue_size - pending <= max(64, pending) + 1

    def test_compaction_survives_to_correct_execution(self):
        """Heavy cancellation with interleaved firing still fires the right
        events in the right order."""
        rng = np.random.default_rng(3)
        sim = Simulator()
        fired = []
        expected = []
        for i in range(2000):
            time = float(rng.uniform(0, 100))
            seq = sim.schedule(time, fired.append, i)
            if rng.random() < 0.8:
                sim.cancel(seq)
            else:
                expected.append((time, seq, i))
        sim.run()
        assert fired == [i for _, _, i in sorted(expected)]
        assert sim.queue_size == 0



class TestFiredEventsPinNothing:
    @pytest.mark.parametrize("cancelled", [False, True], ids=["fired", "cancelled"])
    def test_a_finished_event_does_not_keep_its_callback_alive(self, cancelled):
        """Once an event fired, or was cancelled and dropped as it surfaced,
        the simulator holds no reference to its callback."""
        import weakref

        class Target:
            pass

        sim = Simulator()
        target = Target()
        seq = sim.schedule(1.0, lambda t=target: None)
        if cancelled:
            sim.cancel(seq)
        sim.schedule(2.0, lambda: None)
        sim.run()
        ref = weakref.ref(target)
        del target
        assert ref() is None, "the simulator kept a finished event's callback alive"


# --------------------------------------------------------------------------- #
# The reference-model oracle
# --------------------------------------------------------------------------- #
class _Entry:
    __slots__ = ("time", "priority", "seq", "tag", "follow", "purge", "alive")

    def __init__(self, time, priority, seq, tag, follow, purge=None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.tag = tag
        self.follow = follow
        self.purge = purge
        self.alive = True


class _Model:
    """The naive reference kernel: a plain list, sorted on every pop.

    It schedules a feed *eagerly* — every event at once, under consecutive
    sequence numbers, like any other event — so agreeing with it also proves
    the simulator's feed equivalent to scheduling it.
    """

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []
        self.fired = []

    def schedule(self, delay, tag, priority=0, follow=None, purge=None):
        entry = _Entry(self.now + delay, priority, self.seq, tag, follow, purge)
        self.seq += 1
        self.entries.append(entry)
        return entry

    def arrivals(self, times, tags):
        """Schedule a feed's events; return their entries."""
        entries = [
            _Entry(time, 0, self.seq + offset, tag, None)
            for offset, (time, tag) in enumerate(zip(times, tags))
        ]
        self.seq += len(times)
        self.entries.extend(entries)
        return entries

    def pending(self):
        return sum(1 for entry in self.entries if entry.alive)

    def next_time(self):
        head = self._head()
        return None if head is None else head.time

    def drain(self):
        live = sorted(
            (entry for entry in self.entries if entry.alive),
            key=lambda entry: (entry.time, entry.priority, entry.seq),
        )
        for entry in live:
            entry.alive = False
        return [(entry.time, entry.priority, entry.seq) for entry in live]

    def _head(self):
        live = sorted(
            (entry for entry in self.entries if entry.alive),
            key=lambda entry: (entry.time, entry.priority, entry.seq),
        )
        return live[0] if live else None

    def _fire(self, entry):
        entry.alive = False
        self.now = entry.time
        self.fired.append(entry.tag)
        if entry.follow is not None:
            delay, tag = entry.follow
            self.schedule(delay, tag)
        for victim in entry.purge or ():
            victim.alive = False

    def step(self):
        head = self._head()
        if head is not None:
            self._fire(head)

    def run(self, until=None):
        while (head := self._head()) is not None and (until is None or head.time <= until):
            self._fire(head)
        if until is not None:
            self.now = max(self.now, until)

    def run_window(self, end):
        while (head := self._head()) is not None and head.time < end:
            self._fire(head)
        self.now = max(self.now, end)


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.tuples(st.floats(min_value=0.0, max_value=100.0), st.integers(-1, 1)),
        ),
        # Same-timestamp collisions are the interesting ordering case.
        st.tuples(st.just("schedule"), st.tuples(st.just(5.0), st.integers(-1, 1))),
        # Tiny/huge delay mixture: near-now events scheduled while far-future
        # ones dominate the pending set.
        st.tuples(
            st.just("schedule"),
            st.tuples(st.floats(min_value=0.0, max_value=0.5), st.just(0)),
        ),
        st.tuples(
            st.just("schedule"),
            st.tuples(st.floats(min_value=1e3, max_value=1e6), st.just(0)),
        ),
        # A far-future burst followed by a near-now event.
        st.tuples(st.just("burst"), st.integers(min_value=33, max_value=48)),
        # An event whose callback schedules a follow-up (scheduling inside
        # the loop, including into the window being run).
        st.tuples(st.just("chain"), st.floats(min_value=0.0, max_value=20.0)),
        # An event whose callback cancels every event scheduled before it
        # that is still pending, then schedules a follow-up (cancelling
        # inside the loop; after a burst or two that crosses the compaction
        # threshold mid-run, and the follow-up must land in the heap the
        # loop is still popping).
        st.tuples(st.just("purge"), st.floats(min_value=0.0, max_value=20.0)),
        # A burst big enough that the purge right behind it compacts the
        # heap from inside the loop.
        st.tuples(st.just("burst_purge"), st.integers(min_value=65, max_value=80)),
        # Equal absolute times across priorities -1, 0 and 1, on the grid
        # the "feed_at" op draws from.
        st.tuples(
            st.just("at"),
            st.tuples(st.sampled_from([5.0, 10.0, 12.5, 25.0]), st.integers(-1, 1)),
        ),
        # A feed with non-decreasing gaps from now (refused while an earlier
        # feed is pending).
        st.tuples(
            st.just("feed"),
            st.lists(st.sampled_from([0.0, 0.5, 5.0, 12.5]), min_size=1, max_size=8),
        ),
        # A feed on the absolute grid (times before now are dropped).
        st.tuples(
            st.just("feed_at"),
            st.lists(st.sampled_from([5.0, 10.0, 12.5, 25.0]), min_size=1, max_size=8),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("run_for"), st.floats(min_value=0.0, max_value=30.0)),
        st.tuples(st.just("window"), st.floats(min_value=0.0, max_value=30.0)),
        # Bounds that land exactly on event times: run()'s is inclusive,
        # run_window()'s exclusive.
        st.tuples(st.just("run_for"), st.sampled_from([0.0, 0.5, 5.0, 12.5])),
        st.tuples(st.just("window"), st.sampled_from([0.0, 0.5, 5.0, 12.5])),
        st.tuples(st.just("step"), st.just(None)),
    ),
    min_size=1,
    max_size=120,
)


def _replay(ops, drain_at_end=False):
    """Replay an op sequence on the simulator and the model in lockstep."""
    sim = Simulator()
    model = _Model()
    fired = []
    pairs = []  # (simulator seq, model entry) for cancellation
    feed = []  # the model entries of the last feed installed
    tag = 0

    def schedule(delay, priority=0, follow=None, purge=False):
        nonlocal tag
        victims = list(pairs) if purge else []
        if purge:

            def callback(t=tag, follow=follow):
                fired.append(t)
                for seq, _entry in victims:
                    try:
                        sim.cancel(seq)
                    except SimulationError:
                        pass  # fired or cancelled already
                sim.schedule(follow[0], lambda: fired.append(follow[1]))

        elif follow is not None:

            def callback(t=tag, follow=follow):
                fired.append(t)
                sim.schedule(follow[0], lambda: fired.append(follow[1]))

        else:
            callback = lambda t=tag: fired.append(t)  # noqa: E731
        pairs.append(
            (
                sim.schedule(delay, callback, priority=priority),
                model.schedule(
                    delay, tag, priority, follow, [entry for _seq, entry in victims]
                ),
            )
        )
        tag += 1

    for kind, value in ops:
        if kind == "schedule":
            schedule(*value)
        elif kind == "burst":
            for i in range(value):
                schedule(500.0 + float(i))
            schedule(0.5)
        elif kind == "chain":
            schedule(value, follow=(value, ("follow", tag)))
        elif kind == "purge":
            schedule(value, follow=(0.5, ("after purge", tag)), purge=True)
        elif kind == "burst_purge":
            for i in range(value):
                schedule(500.0 + float(i))
            schedule(0.5, follow=(0.5, ("after purge", tag)), purge=True)
        elif kind == "at":
            at, priority = value
            schedule(max(at, sim.now) - sim.now, priority)
        elif kind in ("feed", "feed_at"):
            if kind == "feed":
                times, at = [], sim.now
                for gap in value:
                    at = at + gap
                    times.append(at)
            else:
                times = sorted(time for time in value if time >= sim.now)
            tags = [("arrival", tag, i) for i in range(len(times))]
            tag += 1
            if any(entry.alive for entry in feed):
                before = (sim.pending, sim.queue_size, sim._seq)
                with pytest.raises(SimulationError, match="already pending"):
                    sim.feed(times, fired.append, tags)
                assert (sim.pending, sim.queue_size, sim._seq) == before
            else:
                sim.feed(times, fired.append, tags)
                feed = model.arrivals(times, tags)
        elif kind == "cancel":
            if pairs:
                seq, entry = pairs[value % len(pairs)]
                if entry.alive:
                    sim.cancel(seq)
                    entry.alive = False
                else:
                    # Fired or cancelled already: the cancel raises and
                    # changes nothing.
                    before = (sim.pending, sim.queue_size, sim.events_processed)
                    with pytest.raises(SimulationError, match="not pending"):
                        sim.cancel(seq)
                    assert (sim.pending, sim.queue_size, sim.events_processed) == before
        elif kind == "run_for":
            until = sim.now + value
            sim.run(until=until)
            model.run(until=until)
        elif kind == "window":
            end = sim.now + value
            sim.run_window(end)
            model.run_window(end)
        elif kind == "step":
            sim.step()
            model.step()
        assert sim.now == model.now, f"clocks diverged after {kind}"
        assert sim.pending == model.pending(), f"pending diverged after {kind}"
        assert sim.next_event_time() == model.next_time(), f"heads diverged after {kind}"
    if drain_at_end:
        drained = [entry[:3] for entry in sim.drain()]
        assert drained == model.drain()
    else:
        sim.run()
        model.run()
    assert sim.pending == 0
    assert sim.events_processed == len(model.fired)
    return fired, model.fired


class TestOrderingOracle:
    """Hypothesis oracle: the simulator replays any interleaving of
    schedule / equal-time schedule at priorities -1, 0 and 1 / in-loop
    schedule / in-loop cancel / feeds (installed, or refused while one is
    pending) / cancel (of pending and of fired or cancelled seqs) / partial
    run / window / step into the exact fire transcript of a naive
    sorted-list reference kernel, with the same pending count and next
    event time after every op, and drains what is left in the model's
    delivery order."""

    @given(ops=_ops, drain_at_end=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_simulator_agrees_with_reference_model(self, ops, drain_at_end):
        fired, reference = _replay(ops, drain_at_end)
        assert fired == reference


#: Random (time, priority) schedules for the batch parity oracle.
#: Same-timestamp collisions included on purpose — seq tie-breaking is where
#: a batch insert could silently reorder.
_batch_entries = st.lists(
    st.one_of(
        st.tuples(
            st.floats(min_value=0.0, max_value=1_000.0),
            st.integers(min_value=-2, max_value=2),
        ),
        st.tuples(st.just(50.0), st.just(0)),
    ),
    max_size=80,
)


class TestBatchScheduleParity:
    """Hypothesis oracle for ``schedule_at_many``: it must be observationally
    identical to the looped ``schedule_at`` form — including under
    cancellation and with a prefilled standing population (which steers the
    batch between its per-event sift and its heapify paths)."""

    @given(
        prefill=_batch_entries,
        times=st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=1_000.0), st.just(50.0)),
            max_size=80,
        ),
        priority=st.integers(min_value=-2, max_value=2),
        horizon=st.floats(min_value=0.0, max_value=1_000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_form_matches_looped_form(self, prefill, times, priority, horizon):
        transcripts = []
        for batched in (False, True):
            sim = Simulator()
            fired = []
            for time, prio in prefill:
                sim.schedule_at(time, fired.append, ("pre", time), priority=prio)
            if batched:
                seqs = sim.schedule_at_many(
                    [(time, fired.append, (("new", i),)) for i, time in enumerate(times)],
                    priority=priority,
                )
            else:
                seqs = [
                    sim.schedule_at(time, fired.append, ("new", i), priority=priority)
                    for i, time in enumerate(times)
                ]
            # Cancel an arbitrary-but-identical subset: the window must skip
            # corpses exactly like the looped form.
            for seq in seqs[::3]:
                sim.cancel(seq)
            sim.run_window(horizon)
            in_window = list(fired)
            sim.run()
            transcripts.append((seqs, in_window, fired, sim.now))
        assert transcripts[0] == transcripts[1]

    def test_empty_batch_is_a_noop(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.schedule_at_many([]) == []
        assert sim.pending == 1
        assert sim.queue_size == 1
