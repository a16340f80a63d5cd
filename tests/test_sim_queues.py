"""Unit tests for the simulator's event heap.

The delivery contract — events fire in strictly increasing
``(time, priority, seq)`` order — is pinned three ways: the unit tests in
``test_delivery_order.py``, the hypothesis oracle here that replays random
schedule / cancel / run / run_window / step interleavings through the
simulator and through a naive sorted-list reference model and requires
identical fire transcripts, and a parity oracle holding ``schedule_at_many``
to the looped ``schedule_at`` form.

The engine-level guarantees that ride on the heap are pinned too: bounded
heap length under cancellation churn (compaction), the pooled-handle rules
(a retained handle is never recycled out from under its holder), reserved
sequence numbers, and the out-of-order guard.
"""

from __future__ import annotations

from heapq import heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ScheduledEvent, SimulationError, Simulator


class TestMisorderGuard:
    """The engine must fail loudly — not silently rewind its clock — if an
    event older than the clock ever surfaces from the heap."""

    @staticmethod
    def _corrupted():
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        # Slip an entry older than the clock past schedule()'s validation.
        stale = ScheduledEvent(1.0, 0, sim.reserve_seqs(1), lambda: None)
        heappush(sim._heap, (stale.time, stale.priority, stale.seq, stale))
        sim._pending += 1
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


class TestReservedSequenceNumbers:
    def test_reserved_block_is_skipped_by_ordinary_schedules(self):
        sim = Simulator()
        first = sim.reserve_seqs(3)
        assert first == 0
        assert sim.schedule(1.0, lambda: None).seq == 3

    def test_reserved_schedule_does_not_advance_the_counter(self):
        sim = Simulator()
        first = sim.reserve_seqs(2)
        sim.schedule_reserved(first + 1, 5.0, lambda: None)
        assert sim.schedule(1.0, lambda: None).seq == 2

    def test_reserved_event_keeps_its_place_among_equal_times(self):
        sim = Simulator()
        fired = []
        first = sim.reserve_seqs(1)
        sim.schedule(5.0, fired.append, "later seq")
        sim.schedule_reserved(first, 5.0, fired.append, "reserved seq")
        sim.run()
        assert fired == ["reserved seq", "later seq"]

    def test_unreserved_seq_rejected(self):
        sim = Simulator()
        sim.reserve_seqs(2)
        with pytest.raises(SimulationError, match="never reserved"):
            sim.schedule_reserved(2, 1.0, lambda: None)
        with pytest.raises(SimulationError, match="negative"):
            sim.reserve_seqs(-1)


class TestEngineCompaction:
    """Satellite regression: cancelled events must not pile up in the heap."""

    def test_heap_queue_length_bounded_under_mass_cancellation(self):
        sim = Simulator()
        live = [sim.schedule(1000.0, lambda: None) for _ in range(100)]
        # Churn: far timeouts scheduled and cancelled over and over — the
        # pre-compaction engine kept every corpse until it surfaced.
        worst = 0
        for _ in range(10_000):
            handle = sim.schedule(500.0, lambda: None)
            sim.cancel(handle)
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

        def recording_cancel(self, event):
            original(self, event)
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
            handle = sim.schedule(float(rng.uniform(0, 100)), fired.append, i)
            if rng.random() < 0.8:
                sim.cancel(handle)
            else:
                expected.append((handle.time, handle.seq, i))
        sim.run()
        assert fired == [i for _, _, i in sorted(expected)]
        assert sim.queue_size == 0


class TestHandlePooling:
    def test_retained_handles_are_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        sim.run()
        seq, time_ = kept.seq, kept.time
        for _ in range(50):
            sim.schedule(1.0, lambda: None)
        assert (kept.seq, kept.time) == (seq, time_)

    def test_pooled_handles_are_reinitialised(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")  # handle not retained → poolable
        sim.run()
        handle = sim.schedule(2.0, fired.append, "b")
        assert handle.cancelled is False
        assert handle._queued is True
        sim.run()
        assert fired == ["a", "b"]

    def test_pool_does_not_pin_callback_references(self):
        import weakref

        class Target:
            def method(self):  # pragma: no cover - never fires
                pass

        sim = Simulator()
        target = Target()
        sim.schedule(1.0, lambda t=target: None)
        sim.run()
        ref = weakref.ref(target)
        del target
        assert ref() is None, "a pooled handle kept the callback alive"


# --------------------------------------------------------------------------- #
# The reference-model oracle
# --------------------------------------------------------------------------- #
class _Entry:
    __slots__ = ("time", "priority", "seq", "tag", "follow", "alive")

    def __init__(self, time, priority, seq, tag, follow):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.tag = tag
        self.follow = follow
        self.alive = True


class _Model:
    """The naive reference kernel: a plain list, sorted on every pop.

    It schedules a reserved arrival chain *eagerly* — every link at once,
    under consecutive sequence numbers — so agreeing with it also proves the
    simulator's one-pending-link chain equivalent to the up-front batch.
    """

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []
        self.fired = []

    def schedule(self, delay, tag, priority=0, follow=None):
        entry = _Entry(self.now + delay, priority, self.seq, tag, follow)
        self.seq += 1
        self.entries.append(entry)
        return entry

    def arrivals(self, times, tags):
        for offset, (time, tag) in enumerate(zip(times, tags)):
            self.entries.append(_Entry(time, 0, self.seq + offset, tag, None))
        self.seq += len(times)

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


class _ArrivalChain:
    """A user-population-style chain: one pending link at a time, each link
    scheduled under the sequence number reserved for it up front."""

    def __init__(self, sim, times, tags, fired):
        self.sim = sim
        self.times = times
        self.tags = tags
        self.fired = fired
        self.index = 0
        self.first = sim.reserve_seqs(len(times))
        self._schedule_next()

    def _schedule_next(self):
        if self.index < len(self.times):
            self.sim.schedule_reserved(
                self.first + self.index, self.times[self.index], self._arrive
            )

    def _arrive(self):
        self.fired.append(self.tags[self.index])
        self.index += 1
        self._schedule_next()


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
        # A reserved arrival chain with non-decreasing gaps.
        st.tuples(
            st.just("arrivals"),
            st.lists(st.sampled_from([0.0, 0.5, 5.0, 12.5]), min_size=1, max_size=8),
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


def _replay(ops):
    """Replay an op sequence on the simulator and the model in lockstep."""
    sim = Simulator()
    model = _Model()
    fired = []
    pairs = []  # (simulator handle, model entry) for cancellation
    tag = 0

    def schedule(delay, priority=0, follow=None):
        nonlocal tag
        if follow is None:
            callback = lambda t=tag: fired.append(t)  # noqa: E731
        else:

            def callback(t=tag, follow=follow):
                fired.append(t)
                sim.schedule(follow[0], lambda: fired.append(follow[1]))

        pairs.append(
            (
                sim.schedule(delay, callback, priority=priority),
                model.schedule(delay, tag, priority, follow),
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
        elif kind == "arrivals":
            times, at = [], sim.now
            for gap in value:
                at = at + gap
                times.append(at)
            tags = [("arrival", tag, i) for i in range(len(times))]
            tag += 1
            _ArrivalChain(sim, times, tags, fired)
            model.arrivals(times, tags)
        elif kind == "cancel":
            if pairs:
                handle, entry = pairs[value % len(pairs)]
                if not handle.cancelled:
                    sim.cancel(handle)
                    entry.alive = False
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
    sim.run()
    model.run()
    assert sim.pending == 0
    assert sim.events_processed == len(model.fired)
    return fired, model.fired


class TestOrderingOracle:
    """Hypothesis oracle: the simulator replays any interleaving of
    schedule / equal-time schedule / in-loop schedule / reserved arrival
    chains / cancel / partial run / window / step into the exact fire
    transcript of a naive sorted-list reference kernel."""

    @given(ops=_ops)
    @settings(max_examples=80, deadline=None)
    def test_simulator_agrees_with_reference_model(self, ops):
        fired, reference = _replay(ops)
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
                handles = sim.schedule_at_many(
                    [(time, fired.append, (("new", i),)) for i, time in enumerate(times)],
                    priority=priority,
                )
            else:
                handles = [
                    sim.schedule_at(time, fired.append, ("new", i), priority=priority)
                    for i, time in enumerate(times)
                ]
            # Cancel an arbitrary-but-identical subset: the window must skip
            # corpses exactly like the looped form.
            for handle in handles[::3]:
                sim.cancel(handle)
            seqs = [handle.seq for handle in handles]
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
