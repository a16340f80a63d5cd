"""Unit tests for :class:`repro.core.users.UserPopulation` lazy arrivals.

A population keeps exactly one arrival pending: :meth:`UserPopulation.start`
reserves one sequence number per job, and each arrival schedules the next
job under its reserved number.  The contract these tests pin is that this
is indistinguishable from queueing the whole workload up front — same
arrival times, same ``(time, priority, seq)`` keys, same seqs on the
``JOB_SUBMIT`` messages the arrivals send — while the heap holds at most one
arrival per population.  The eager form lives on here as a test-only
reference (:class:`_EagerPopulation`).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.users import UserPopulation, populations_from_workload
from repro.sim.engine import SimulationError, Simulator
from repro.sim.entity import EntityRegistry, RecordingEntity
from repro.sim.events import EventType
from repro.workload.job import Job


def _jobs(origin, times, first_id=1):
    return [
        Job(
            origin=origin,
            user_id=1 + i % 3,
            submit_time=time,
            num_processors=1,
            length_mi=1000.0,
            job_id=first_id + i,
        )
        for i, time in enumerate(times)
    ]


def _pending_arrivals(sim, population=None):
    """Live heap entries that are population arrivals (of ``population``)."""
    count = 0
    for _time, _priority, _seq, event in sim._heap:
        callback = event.callback
        if event.cancelled or getattr(callback, "__func__", None) is not UserPopulation._submit:
            continue
        if population is None or callback.__self__ is population:
            count += 1
    return count


class _EagerPopulation(UserPopulation):
    """The historical form: every arrival queued up front in one batch."""

    def start(self) -> None:
        self._started = True
        self.sim.schedule_at_many(
            (job.submit_time, self._submit_job, (job,)) for job in self._jobs
        )

    def _submit_job(self, job: Job) -> None:
        self.submitted += 1
        self.send(self.gfa_name, EventType.JOB_SUBMIT, payload=job)


def _world(times_by_gfa, population_class=UserPopulation):
    """A simulator, one population per GFA name, and a recording sink per GFA."""
    sim = Simulator()
    registry = EntityRegistry()
    sinks, populations = {}, []
    first_id = 1
    for name, times in times_by_gfa.items():
        sinks[name] = RecordingEntity(sim, name, registry)
        populations.append(
            population_class(sim, registry, name, _jobs(name, times, first_id))
        )
        first_id += len(times)
    return sim, populations, sinks


class TestStart:
    def test_start_queues_only_the_first_arrival(self):
        sim, (population,), _ = _world({"gfa": [3.0, 1.0, 2.0, 2.0]})
        population.start()
        assert sim.pending == 1
        assert _pending_arrivals(sim, population) == 1
        assert sim.next_event_time() == 1.0

    def test_start_reserves_one_sequence_number_per_job(self):
        sim, (population,), _ = _world({"gfa": [1.0, 2.0, 3.0]})
        sim.schedule(0.5, lambda: None)  # seq 0
        population.start()  # reserves 1, 2, 3
        assert population._first_seq == 1
        assert sim.schedule(9.0, lambda: None).seq == 4

    def test_empty_population_schedules_and_reserves_nothing(self):
        sim, (population,), _ = _world({"gfa": []})
        population.start()
        assert sim.pending == 0
        assert sim.schedule(1.0, lambda: None).seq == 0

    def test_start_twice_raises(self):
        _sim, (population,), _ = _world({"gfa": [1.0]})
        population.start()
        with pytest.raises(RuntimeError, match="already started"):
            population.start()

    def test_arrival_before_the_clock_is_rejected_at_start(self):
        sim = Simulator(start_time=10.0)
        registry = EntityRegistry()
        RecordingEntity(sim, "gfa", registry)
        population = UserPopulation(sim, registry, "gfa", _jobs("gfa", [5.0, 20.0]))
        with pytest.raises(SimulationError, match="in the past"):
            population.start()

    def test_foreign_job_rejected(self):
        sim = Simulator()
        registry = EntityRegistry()
        with pytest.raises(ValueError, match="originates at"):
            UserPopulation(sim, registry, "gfa", _jobs("elsewhere", [1.0]))


class TestArrivals:
    def test_jobs_are_submitted_at_their_submit_times_in_order(self):
        sim, (population,), sinks = _world({"gfa": [4.0, 1.0, 2.5]})
        population.start()
        sim.run()
        received = sinks["gfa"].events_of(EventType.JOB_SUBMIT)
        assert [(ev.time, ev.payload.submit_time) for ev in received] == [
            (1.0, 1.0),
            (2.5, 2.5),
            (4.0, 4.0),
        ]
        assert population.submitted == 3

    def test_equal_submit_times_arrive_in_job_id_order(self):
        sim = Simulator()
        registry = EntityRegistry()
        sink = RecordingEntity(sim, "gfa", registry)
        jobs = _jobs("gfa", [2.0, 2.0, 2.0, 1.0])
        population = UserPopulation(sim, registry, "gfa", list(reversed(jobs)))
        population.start()
        sim.run()
        assert [ev.payload.job_id for ev in sink.received] == [4, 1, 2, 3]

    def test_populations_interleave_by_time_then_start_order(self):
        sim, populations, sinks = _world({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})
        for population in populations:
            population.start()
        sim.run()
        arrivals = sorted(
            (ev.seq, name, ev.payload.submit_time)
            for name, sink in sinks.items()
            for ev in sink.received
        )
        # Population "a" reserved its block first, so it wins every tie.
        assert [(name, time) for _seq, name, time in arrivals] == [
            ("a", 1.0),
            ("b", 1.0),
            ("a", 2.0),
            ("b", 2.0),
            ("a", 3.0),
        ]

    def test_submitted_counts_each_arrival_as_it_fires(self):
        sim, (population,), _ = _world({"gfa": [1.0, 2.0, 3.0]})
        population.start()
        seen = []
        for _ in range(3):
            sim.run(until=sim.next_event_time())
            seen.append(population.submitted)
        assert seen == [1, 2, 3]

    def test_at_most_one_arrival_per_population_is_ever_pending(self):
        sim, populations, _ = _world(
            {"a": [0.0, 0.0, 1.0, 5.0, 5.0], "b": [2.0, 2.0, 2.0], "c": [4.0]}
        )
        for population in populations:
            population.start()
        worst = {population.name: 0 for population in populations}

        def probe(_time, _label):
            for population in populations:
                worst[population.name] = max(
                    worst[population.name], _pending_arrivals(sim, population)
                )

        sim._trace = probe
        sim.run()
        assert worst == {"users@a": 1, "users@b": 1, "users@c": 1}

    def test_last_arrival_leaves_nothing_pending(self):
        sim, (population,), sinks = _world({"gfa": [1.0, 2.0]})
        population.start()
        sim.run()
        assert _pending_arrivals(sim) == 0
        assert sim.pending == 0
        assert len(sinks["gfa"].received) == 2

    def test_populations_from_workload_builds_one_population_per_pair(self):
        sim = Simulator()
        registry = EntityRegistry()
        for name in ("a", "b"):
            RecordingEntity(sim, name, registry)
        populations = populations_from_workload(
            sim, registry, [("a", _jobs("a", [1.0])), ("b", _jobs("b", [2.0, 3.0], 2))]
        )
        assert [(p.gfa_name, len(p.jobs)) for p in populations] == [("a", 1), ("b", 2)]
        for population in populations:
            population.start()
        assert sim.pending == 2


class TestEagerEquivalence:
    """Lazy arrivals against the eager reference form."""

    @staticmethod
    def _transcript(times_by_gfa, noise, population_class):
        sim, populations, sinks = _world(times_by_gfa, population_class)
        fired = []
        # Events scheduled before the populations start (faults, the pricing
        # ticker) and from inside the run both compete with arrivals for
        # equal timestamps.
        for time in noise:
            sim.schedule_at(time, fired.append, ("noise", time))
        for population in populations:
            population.start()
        for time in noise:
            sim.schedule_at(time, lambda t=time: sim.schedule(0.0, fired.append, ("echo", t)))
        sim.run()
        received = [
            (name, ev.time, ev.seq, ev.payload.job_id)
            for name, sink in sinks.items()
            for ev in sink.received
        ]
        return fired, sorted(received, key=lambda row: row[2]), sim.events_processed

    def test_send_seqs_match_the_eager_form(self):
        times = {"a": [1.0, 1.0, 3.0], "b": [1.0, 2.0]}
        lazy = self._transcript(times, [1.0, 2.0], UserPopulation)
        eager = self._transcript(times, [1.0, 2.0], _EagerPopulation)
        assert lazy == eager

    @given(
        times_by_gfa=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.lists(st.sampled_from([0.0, 1.0, 1.5, 4.0, 10.0]), max_size=6),
            min_size=1,
        ),
        noise=st.lists(st.sampled_from([0.0, 1.0, 4.0, 7.0]), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_workload_matches_the_eager_form(self, times_by_gfa, noise):
        lazy = self._transcript(times_by_gfa, noise, UserPopulation)
        eager = self._transcript(times_by_gfa, noise, _EagerPopulation)
        assert lazy == eager


class TestPickling:
    def test_population_resumes_from_a_pickle_mid_chain(self):
        sim, populations, sinks = _world({"a": [1.0, 2.0, 3.0, 3.0], "b": [2.0, 5.0]})
        for population in populations:
            population.start()
        sim.run(until=2.0)
        clone_sim, clone_sinks = pickle.loads(pickle.dumps((sim, sinks)))
        sim.run()
        clone_sim.run()

        def rows(sink_map):
            return [
                (name, ev.time, ev.seq, ev.payload.job_id)
                for name, sink in sink_map.items()
                for ev in sink.received
            ]

        assert rows(clone_sinks) == rows(sinks)
        assert clone_sim.now == sim.now
