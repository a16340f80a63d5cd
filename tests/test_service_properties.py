"""Hypothesis round-trip properties for the snapshot building blocks.

The snapshot machinery is only as good as the pickle fidelity of its most
stateful pieces: the named RNG streams and the simulator's event heap.  These
properties assert *behavioural* identity, not just structural equality — a
restored object must produce the exact same future (draw sequences, pop
sequences) as the original, including a heap that is carrying lazily
cancelled corpses when the snapshot is taken.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _noop() -> None:
    """Module-level no-op callback: picklable, unlike a lambda."""

_STREAM_KEYS = st.sampled_from(
    ["workload", "strategy", "directory", "faults", "pricing", "net"]
)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestRandomStreamsRoundTrip:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        warmup=st.lists(st.tuples(_STREAM_KEYS, st.integers(1, 20)), max_size=8),
        probes=st.lists(st.tuples(_STREAM_KEYS, st.integers(1, 20)), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_mid_run_streams_resume_identically(self, seed, warmup, probes):
        """Draw arbitrarily, snapshot, then both sides must agree forever."""
        streams = RandomStreams(seed)
        for key, n in warmup:
            streams.get(key).random(n)
        clone = _roundtrip(streams)
        for key, n in probes:
            original = streams.get(key).random(n).tolist()
            restored = clone.get(key).random(n).tolist()
            assert original == restored

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unused_streams_still_match_after_restore(self, seed):
        """A stream first opened *after* the snapshot draws identically."""
        streams = RandomStreams(seed)
        streams.get("workload").random(5)
        clone = _roundtrip(streams)
        assert (
            streams.get("never-opened").random(4).tolist()
            == clone.get("never-opened").random(4).tolist()
        )


_EVENT_LISTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=120,
)


class TestEventHeapRoundTrip:
    @given(
        events=_EVENT_LISTS,
        pops=st.integers(min_value=0, max_value=30),
        cancels=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mid_run_heap_resumes_identically(self, events, pops, cancels):
        """Schedule, fire some, lazily cancel some, pickle: identical pops after."""
        sim = Simulator()
        keys = [
            (time, priority, sim.schedule_at(time, _noop, priority=priority))
            for time, priority in events
        ]
        fired = min(pops, len(keys))
        if fired:
            sim.run(max_events=fired)
        # Cancel a random subset of the not-yet-fired events (those after
        # the first ``fired`` in delivery order): the heap keeps their
        # corpses, which must pickle faithfully.
        pending = [seq for _time, _priority, seq in sorted(keys)[fired:]]
        if pending:
            victims = cancels.draw(
                st.lists(st.sampled_from(pending), max_size=len(pending), unique=True)
            )
            for victim in victims:
                sim.cancel(victim)
        clone = _roundtrip(sim)
        assert clone.queue_size == sim.queue_size
        assert clone.pending == sim.pending
        original = [entry[:3] for entry in sim.drain()]
        restored = [entry[:3] for entry in clone.drain()]
        assert original == restored


class _Recorder:
    """Module-level so the bound `record` callback pickles with the sim."""

    def __init__(self):
        self.calls = []

    def record(self, value):
        self.calls.append(value)


class TestSimulatorRoundTrip:
    @given(
        times=st.lists(
            st.floats(min_value=0.1, max_value=900.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        boundary=st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_mid_run_simulator_fires_identical_tail(self, times, boundary):
        """Run to a boundary, snapshot the (sim, recorder) graph — exactly
        what a federation snapshot does — and both sides must fire the same
        remaining callbacks, in order, to the same final clock."""
        recorder = _Recorder()
        sim = Simulator()
        for delay in times:
            sim.schedule(delay, recorder.record, round(delay, 6))
        sim.run(until=boundary)
        # Pickling the pair keeps the sharing: the cloned sim's callbacks
        # append into the cloned recorder we hold.
        blob = pickle.dumps((sim, recorder), protocol=pickle.HIGHEST_PROTOCOL)

        sim.run()
        clone, clone_recorder = pickle.loads(blob)
        clone.run()
        assert clone_recorder.calls == recorder.calls
        assert clone.now == sim.now
        assert clone.events_processed == sim.events_processed
        assert clone.pending == 0
