"""Unit tests for :class:`repro.core.users.UserPopulation` arrivals.

:func:`start_populations` merges the populations' jobs into the simulator's
one presorted feed.  The contract these tests pin is that this is
indistinguishable from queueing the whole workload up front — same arrival
times, and the same order of the GFA calls among themselves and among other
events of the same instant — while no arrival ever enters the event heap.
The eager form lives on here as a test-only reference
(:class:`_EagerPopulation`); a stub stands in for each GFA.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.users import UserPopulation, start_populations
from repro.sim.engine import SimulationError, Simulator
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


def _heap_arrivals(sim):
    """Live heap entries that are population arrivals (there should be none)."""
    return sum(
        1
        for _time, _priority, seq, callback, _args in sim._heap
        if seq in sim._live and getattr(callback, "__func__", callback) is UserPopulation._submit
    )


def _fed_arrivals(sim, population):
    """Arrivals of ``population`` still on the simulator's feed."""
    return sum(1 for item in sim._feed_items if item is population)


class _StubGFA:
    """Stands in for a GFA: logs each job handed to ``submit_local_job``."""

    def __init__(self, sim, name, log):
        self.sim = sim
        self.name = name
        self.log = log

    def submit_local_job(self, job):
        self.log.append((self.name, self.sim.now, job.job_id))


class _EagerPopulation(UserPopulation):
    """The historical form: every arrival queued up front in one batch."""

    def start(self) -> None:
        self._started = True
        self.sim.schedule_at_many(
            (job.submit_time, self._submit_job, (job,)) for job in self._jobs
        )

    def _submit_job(self, job: Job) -> None:
        self.submitted += 1
        self.gfa.submit_local_job(job)


def _start(sim, populations):
    """Start populations the way their class does."""
    if populations and isinstance(populations[0], _EagerPopulation):
        for population in populations:
            population.start()
    else:
        start_populations(sim, populations)


def _world(times_by_gfa, population_class=UserPopulation, log=None):
    """A simulator, one population per GFA name, and the log every stub GFA
    appends its ``(name, time, job id)`` calls to."""
    sim = Simulator()
    log = [] if log is None else log
    populations = []
    first_id = 1
    for name, times in times_by_gfa.items():
        gfa = _StubGFA(sim, name, log)
        populations.append(population_class(sim, gfa, _jobs(name, times, first_id)))
        first_id += len(times)
    return sim, populations, log


class TestStart:
    def test_start_feeds_every_arrival_and_heaps_none(self):
        sim, (population,), _ = _world({"gfa": [3.0, 1.0, 2.0, 2.0]})
        start_populations(sim, [population])
        assert sim.pending == 4
        assert (sim.queue_size, _heap_arrivals(sim)) == (0, 0)
        assert _fed_arrivals(sim, population) == 4
        assert sim.next_event_time() == 1.0

    def test_start_takes_one_sequence_number_per_job(self):
        sim, (population,), _ = _world({"gfa": [1.0, 2.0, 3.0]})
        sim.schedule(0.5, lambda: None)  # seq 0
        start_populations(sim, [population])  # takes 1, 2, 3
        assert sim.schedule(9.0, lambda: None) == 4

    def test_empty_population_schedules_and_takes_nothing(self):
        sim, (population,), _ = _world({"gfa": []})
        start_populations(sim, [population])
        assert sim.pending == 0
        assert sim.schedule(1.0, lambda: None) == 0

    def test_start_twice_raises(self):
        _sim, (population,), _ = _world({"gfa": [1.0]})
        start_populations(_sim, [population])
        with pytest.raises(RuntimeError, match="already started"):
            start_populations(_sim, [population])

    def test_a_second_start_while_the_feed_is_pending_is_refused(self):
        """The simulator has one feed: populations are started together, and
        a later group is refused, unstarted, while the first still feeds."""
        sim, (first, second), log = _world({"a": [1.0], "b": [2.0]})
        start_populations(sim, [first])
        with pytest.raises(SimulationError, match="already pending"):
            start_populations(sim, [second])
        assert not second._started
        assert sim.pending == 1
        sim.run()
        assert log == [("a", 1.0, 1)]

    def test_arrival_before_the_clock_is_rejected_at_start(self):
        sim = Simulator(start_time=10.0)
        gfa = _StubGFA(sim, "gfa", [])
        population = UserPopulation(sim, gfa, _jobs("gfa", [5.0, 20.0]))
        with pytest.raises(SimulationError, match="in the past"):
            start_populations(sim, [population])
        assert (sim.pending, population._started) == (0, False)

    def test_foreign_job_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="originates at"):
            UserPopulation(sim, _StubGFA(sim, "gfa", []), _jobs("elsewhere", [1.0]))


class TestArrivals:
    def test_jobs_are_submitted_at_their_submit_times_in_order(self):
        sim, (population,), log = _world({"gfa": [4.0, 1.0, 2.5]})
        start_populations(sim, [population])
        sim.run()
        # Sorted by submit time, the jobs are 2 (t=1.0), 3 (2.5) and 1 (4.0).
        assert log == [("gfa", 1.0, 2), ("gfa", 2.5, 3), ("gfa", 4.0, 1)]
        assert population.submitted == 3

    def test_equal_submit_times_arrive_in_job_id_order(self):
        sim = Simulator()
        log = []
        jobs = _jobs("gfa", [2.0, 2.0, 2.0, 1.0])
        population = UserPopulation(sim, _StubGFA(sim, "gfa", log), list(reversed(jobs)))
        start_populations(sim, [population])
        sim.run()
        assert [job_id for _name, _time, job_id in log] == [4, 1, 2, 3]

    def test_the_gfa_gets_a_job_at_the_arrivals_own_key(self):
        """The arrival calls its GFA directly, at the ``(time, 0, seq)`` key
        the feed took at start: an event due at the arrival instant that
        was scheduled before the population started (a fault, the pricing
        ticker) runs first, and one scheduled after it (a job finish) runs
        once the GFA has the job."""
        sim, (population,), log = _world({"gfa": [5.0]})
        sim.schedule_at(5.0, log.append, "before start")
        start_populations(sim, [population])
        sim.schedule_at(5.0, log.append, "after start")
        sim.run()
        assert log == ["before start", ("gfa", 5.0, 1), "after start"]
        assert sim.events_processed == 3

    def test_populations_interleave_by_time_then_population_order(self):
        sim, populations, log = _world({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})
        start_populations(sim, populations)
        sim.run()
        # Population "a" comes first, so it wins every tie.
        assert [(name, time) for name, time, _job_id in log] == [
            ("a", 1.0),
            ("b", 1.0),
            ("a", 2.0),
            ("b", 2.0),
            ("a", 3.0),
        ]

    def test_submitted_counts_each_arrival_as_it_fires(self):
        sim, (population,), _ = _world({"gfa": [1.0, 2.0, 3.0]})
        start_populations(sim, [population])
        seen = []
        for _ in range(3):
            sim.run(until=sim.next_event_time())
            seen.append(population.submitted)
        assert seen == [1, 2, 3]

    def test_no_arrival_ever_enters_the_heap_and_pending_counts_the_feed(self):
        sim, populations, _ = _world(
            {"a": [0.0, 0.0, 1.0, 5.0, 5.0], "b": [2.0, 2.0, 2.0], "c": [4.0]}
        )
        start_populations(sim, populations)
        total = sum(len(population.jobs) for population in populations)
        observed = []

        def probe(_time, _label):
            submitted = sum(population.submitted for population in populations)
            observed.append(
                (_heap_arrivals(sim), sim.pending - len(sim._live), total - submitted)
            )

        sim._trace = probe
        sim.run()
        # The probe runs before each arrival's callback, so the firing one
        # has left the feed but is not yet submitted.
        assert observed == [(0, left - 1, left) for left in range(total, 0, -1)]

    def test_last_arrival_leaves_nothing_pending(self):
        sim, (population,), log = _world({"gfa": [1.0, 2.0]})
        start_populations(sim, [population])
        sim.run()
        assert _fed_arrivals(sim, population) == 0
        assert sim.pending == 0
        assert sim._feed_callback is None
        assert len(log) == 2


class TestEagerEquivalence:
    """Fed arrivals against the eager reference form."""

    @staticmethod
    def _transcript(times_by_gfa, noise, population_class):
        # Stub GFAs log into the same list as the noise events, so the
        # transcript fixes where each GFA call falls among them.
        fired = []
        sim, populations, _log = _world(times_by_gfa, population_class, fired)
        # Events scheduled before the populations start (faults, the pricing
        # ticker) and from inside the run both compete with arrivals for
        # equal timestamps.
        for time in noise:
            sim.schedule_at(time, fired.append, ("noise", time))
        _start(sim, populations)
        for time in noise:
            sim.schedule_at(time, lambda t=time: sim.schedule(0.0, fired.append, ("echo", t)))
        sim.run()
        next_seq = sim.schedule(0.0, lambda: None)
        return fired, sim.events_processed, next_seq

    def test_gfa_calls_match_the_eager_form(self):
        times = {"a": [1.0, 1.0, 3.0], "b": [1.0, 2.0]}
        fed = self._transcript(times, [1.0, 2.0], UserPopulation)
        eager = self._transcript(times, [1.0, 2.0], _EagerPopulation)
        assert fed == eager

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
        fed = self._transcript(times_by_gfa, noise, UserPopulation)
        eager = self._transcript(times_by_gfa, noise, _EagerPopulation)
        assert fed == eager


class TestPickling:
    def test_population_resumes_from_a_pickle_mid_feed(self):
        sim, populations, log = _world({"a": [1.0, 2.0, 3.0, 3.0], "b": [2.0, 5.0]})
        start_populations(sim, populations)
        sim.run(until=2.0)
        clone_sim, clone_log = pickle.loads(pickle.dumps((sim, log)))
        assert clone_sim.pending == sim.pending == 3
        sim.run()
        clone_sim.run()
        assert clone_log == log
        assert clone_sim.now == sim.now
