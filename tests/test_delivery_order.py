"""Delivery-order determinism for same-timestamp events.

With a latency-bearing transport, independent messages routinely collide on
the same simulated timestamp.  Their relative order must then be a *defined*
property — schedule order, witnessed by the engine's sequence number — and
never an accident of queue layout.  ``heapq`` alone gives no such guarantee:
pushing ``(time, priority, callback, args)`` tuples falls back to comparing
callbacks (which raises), and the pop order of equal keys depends on the
push/pop history.  These tests fail against such a seq-less engine: they pin
strict FIFO among equal ``(time, priority)`` events across heap-churning
interleavings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Simulator


class TestEngineTieBreak:
    def test_same_timestamp_fires_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(10.0, fired.append, i)
        sim.run()
        assert fired == list(range(50))

    def test_priority_dominates_then_seq(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late-a", priority=1)
        sim.schedule(5.0, fired.append, "early-a", priority=0)
        sim.schedule(5.0, fired.append, "late-b", priority=1)
        sim.schedule(5.0, fired.append, "early-b", priority=0)
        sim.run()
        assert fired == ["early-a", "early-b", "late-a", "late-b"]

    def test_fifo_survives_heap_churn(self):
        """Interleave far-future events, cancellations and early events so the
        queue sifts equal-key entries through many layouts; the equal-timestamp
        batch must still fire in exactly its schedule order."""
        rng = np.random.default_rng(0)
        sim = Simulator()
        fired = []
        cancelled = set()
        batch = []
        for i in range(200):
            batch.append(sim.schedule(100.0, fired.append, i))
            # Noise: far/near events and cancellations churn the queue.
            noise = sim.schedule(float(rng.uniform(0.0, 99.0)), lambda: None)
            if rng.random() < 0.5:
                sim.cancel(noise)
            if rng.random() < 0.25:
                victim = int(rng.integers(len(batch)))
                if victim not in cancelled:
                    sim.cancel(batch[victim])
                    cancelled.add(victim)
        sim.run()
        assert fired == [i for i in range(200) if i not in cancelled]

    def test_converging_delays_fire_in_schedule_order_at_collision(self):
        """Events scheduled at different times with different delays that land
        on one timestamp fire in schedule (seq) order: the earlier-scheduled
        wins the tie, whatever the queue held in between."""
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "scheduled-first")
        sim.schedule(7.0, lambda: sim.schedule(3.0, fired.append, "scheduled-later"))
        sim.run()
        assert fired == ["scheduled-first", "scheduled-later"]
        assert sim.now == 10.0

    def test_zero_delay_event_goes_behind_events_already_due(self):
        """A callback that schedules with zero delay queues behind everything
        already due at that instant: a fresh seq, not a jump ahead."""
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: sim.schedule(0.0, fired.append, "hop"))
        sim.schedule(5.0, fired.append, "due-a")
        sim.schedule(5.0, fired.append, "due-b")
        sim.run()
        assert fired == ["due-a", "due-b", "hop"]

    def test_schedule_and_schedule_at_share_one_sequence(self):
        sim = Simulator(start_time=1.0)
        fired = []
        sim.schedule_at(5.0, fired.append, "a")
        sim.schedule(4.0, fired.append, "b")
        sim.schedule_at(5.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_seq_is_strictly_increasing_per_schedule_call(self):
        sim = Simulator()
        seqs = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 10

    def test_queue_entries_never_compare_callbacks(self):
        """The unique seq guarantees tuple comparison stops before the
        callback: callbacks need not (and do not) define an ordering."""
        sim = Simulator()
        for i in range(30):
            sim.schedule(1.0, lambda i=i: None)
        heap = list(sim._heap)
        assert [entry[2] for entry in sorted(heap)] == list(range(30))
        # Without the seq, equal (time, priority) keys reach the callbacks.
        with pytest.raises(TypeError):
            sorted(entry[:2] + entry[3:] for entry in heap)
