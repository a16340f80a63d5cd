"""Delivery-order determinism for same-timestamp events.

With a latency-bearing transport, independent messages routinely collide on
the same simulated timestamp.  Their relative order must then be a *defined*
property — schedule order, witnessed by the engine's sequence number — and
never an accident of queue layout.  ``heapq`` alone gives no such guarantee:
pushing ``(time, priority, event)`` tuples falls back to comparing event
objects (or worse, raises), and the pop order of equal keys depends on the
push/pop history.  These tests fail against such a seq-less engine: they pin
strict FIFO among equal ``(time, priority)`` events across heap-churning
interleavings, and the ``Event.seq`` stamp that makes the order observable
at the entity/transport layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.entity import Entity, EntityRegistry, RecordingEntity
from repro.sim.events import EventType


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
        cancelled = []
        batch = []
        for i in range(200):
            batch.append(sim.schedule(100.0, fired.append, i))
            # Noise: far/near events and cancellations churn the queue.
            noise = sim.schedule(float(rng.uniform(0.0, 99.0)), lambda: None)
            if rng.random() < 0.5:
                sim.cancel(noise)
            if rng.random() < 0.25:
                victim = batch[int(rng.integers(len(batch)))]
                if not victim.cancelled:
                    sim.cancel(victim)
                    cancelled.append(victim.args[0])
        sim.run()
        assert fired == [i for i in range(200) if i not in set(cancelled)]

    def test_seq_is_strictly_increasing_per_schedule_call(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        seqs = [handle.seq for handle in handles]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 10

    def test_queue_entries_never_compare_event_objects(self):
        """The unique seq guarantees tuple comparison stops before the event
        handle: events must not need (or define) ordering."""
        with pytest.raises(TypeError):
            ScheduledEvent(1.0, 0, 0, print) < ScheduledEvent(1.0, 0, 1, print)


class _Sender(Entity):
    def handle_event(self, event):  # pragma: no cover - never receives
        raise AssertionError


class TestEntityDeliveryOrder:
    def _world(self):
        sim = Simulator()
        registry = EntityRegistry()
        sender_a = _Sender(sim, "a", registry)
        sender_b = _Sender(sim, "b", registry)
        sink = RecordingEntity(sim, "sink", registry)
        return sim, sender_a, sender_b, sink

    def test_same_delay_messages_arrive_in_send_order(self):
        sim, a, b, sink = self._world()
        a.send("sink", EventType.NEGOTIATE, payload=1, delay=5.0)
        b.send("sink", EventType.NEGOTIATE, payload=2, delay=5.0)
        a.send("sink", EventType.NEGOTIATE, payload=3, delay=5.0)
        sim.run()
        assert [ev.payload for ev in sink.received] == [1, 2, 3]

    def test_event_seq_is_stamped_and_ordered(self):
        sim, a, b, sink = self._world()
        first = a.send("sink", EventType.NEGOTIATE, delay=5.0)
        second = b.send("sink", EventType.REPLY, delay=5.0)
        assert first.seq is not None and second.seq is not None
        assert first.seq < second.seq
        sim.run()
        assert [ev.seq for ev in sink.received] == sorted(
            ev.seq for ev in sink.received
        )

    def test_converging_delays_deliver_by_send_order_at_collision(self):
        """Messages sent at different times with different delays that land on
        one timestamp deliver in send (seq) order — the transport-reordering
        guarantee: earlier-sent wins ties, regardless of queue history."""
        sim, a, b, sink = self._world()

        def late_send():
            b.send("sink", EventType.REPLY, payload="sent-later", delay=3.0)

        a.send("sink", EventType.NEGOTIATE, payload="sent-first", delay=10.0)
        sim.schedule(7.0, late_send)
        sim.run()
        assert [ev.payload for ev in sink.received] == ["sent-first", "sent-later"]
        assert sink.received[0].time == sink.received[1].time == 10.0

    def test_self_timer_stamps_seq_too(self):
        sim = Simulator()
        registry = EntityRegistry()
        sink = RecordingEntity(sim, "sink", registry)
        handle = sink.schedule(1.0)
        sim.run()
        assert sink.received[0].seq == handle.seq
