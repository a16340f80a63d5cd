"""The LRMS's maintained admission profile against a from-scratch rebuild.

``SpaceSharedLRMS`` keeps one availability profile alive while jobs wait: a
job that finds no job waiting and enough free processors starts at once
without touching it, each submit that queues a job adds one reservation,
and a start the profile did not predict (an idle start or an EASY backfill)
or a crash drops it, to be rebuilt by the next estimate that faces a wait.
The oracle here is the rebuild itself, done the naive way: every running
job holds its processors over ``[now, finish)``, the queue is replayed in
FCFS order behind the tail, and the earliest start is found by checking the
free count at every breakpoint of a plain list of intervals.  The LRMS's
answers must equal it bit for bit after every operation of a random mix,
and its free processors plus the running jobs' widths must equal the
cluster's size.
"""

from __future__ import annotations

import contextlib
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SchedulingPolicy, SpaceSharedLRMS
from repro.cluster.profile import AvailabilityProfile
from repro.sim import Simulator
from tests.test_cluster_lrms import make_job, make_spec

CAPACITY = 16

#: (processors, runtime) of the probe jobs every check asks about.
PROBES = ((1, 7.25), (CAPACITY // 2, 33.3), (CAPACITY, 100.0))

Interval = Tuple[float, float, int]


def _earliest(holds: List[Interval], procs: int, duration: float, lower: float) -> float:
    """Earliest ``t >= lower`` with ``procs`` processors free over ``[t, t + duration)``."""
    points = sorted({lower} | {t for start, end, _ in holds for t in (start, end) if t > lower})
    free = [CAPACITY - sum(p for start, end, p in holds if start <= t < end) for t in points]
    for i, t in enumerate(points):
        end = t + duration
        if all(free[j] >= procs for j in range(i, len(points)) if points[j] < end):
            return t
    raise AssertionError("no feasible start")  # pragma: no cover - the last point is all free


def reference(lrms: SpaceSharedLRMS) -> Tuple[List[Interval], float]:
    """The busy intervals from now on and the FCFS queue tail, rebuilt from scratch."""
    now = lrms.sim.now
    holds = []
    for job in lrms.running_jobs():
        finish = job.start_time + lrms.runtime_of(job)
        if finish > now:
            holds.append((now, finish, job.num_processors))
    tail = now
    for job in lrms.queued_jobs():
        runtime = lrms.runtime_of(job)
        tail = _earliest(holds, job.num_processors, runtime, tail)
        holds.append((tail, tail + runtime, job.num_processors))
    return holds, tail


def assert_conserves_processors(lrms: SpaceSharedLRMS) -> None:
    """Every processor is free or held by exactly one running job."""
    capacity = lrms.spec.num_processors
    held = sum(job.num_processors for job in lrms.running_jobs())
    assert lrms.free_processors + held == capacity
    assert 0 <= lrms.free_processors <= capacity


def assert_matches_reference(lrms: SpaceSharedLRMS) -> None:
    assert_conserves_processors(lrms)
    holds, tail = reference(lrms)
    now = lrms.sim.now
    for procs, runtime in PROBES:
        probe = make_job(procs=procs, runtime=runtime, spec=lrms.spec)
        runtime = lrms.runtime_of(probe)
        expected = _earliest(holds, procs, runtime, max(now, tail)) + runtime
        assert lrms.estimate_completion_time(probe) == expected
    assert lrms.expected_wait() == tail - now
    # The work-conserving hint lower-bounds the time until all outstanding
    # work drains (not the queue-tail wait, which it can exceed).
    drain_end = max((end for _start, end, _procs in holds), default=now)
    assert lrms.queue_tail_hint() <= drain_end - now + 1e-9 * max(1.0, drain_end)


@contextlib.contextmanager
def counted_calls(method: str):
    """Record the arguments of every ``AvailabilityProfile.<method>`` call
    made inside the block."""
    calls = []
    original = getattr(AvailabilityProfile, method)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    setattr(AvailabilityProfile, method, counting)
    try:
        yield calls
    finally:
        setattr(AvailabilityProfile, method, original)


def counted_profile_builds():
    """Count every :class:`AvailabilityProfile` constructed inside the block."""
    return counted_calls("__init__")


def _next_finish(lrms: SpaceSharedLRMS) -> float:
    return min(job.start_time + lrms.runtime_of(job) for job in lrms.running_jobs())


_runtime = st.floats(min_value=0.5, max_value=400.0, allow_nan=False, allow_infinity=False)
_job = st.tuples(st.integers(min_value=1, max_value=CAPACITY), _runtime)
_arrival = st.one_of(
    st.tuples(st.just("submit"), _job),
    # The GFA's local path: estimate a job, then submit it at the same
    # instant (the submit reserves the slot the estimate found).
    st.tuples(st.just("estimate-submit"), _job),
    # Estimate job A, submit job B, then submit A: B's reservation
    # overtakes A's estimate, so A's submit must search again.
    st.tuples(st.just("estimate-a-submit-b-a"), st.tuples(_job, _job)),
)
_op = st.one_of(
    _arrival,
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=300.0)),
    # Act at the instant the next running job finishes, before its finish
    # event fires: probe only, or make an arrival first.
    st.tuples(st.just("at-finish"), st.none() | _arrival),
    st.tuples(st.just("probe"), st.none()),
    st.tuples(st.just("fail-all"), st.none()),
)


def _replay(ops, policy, t0, check) -> None:
    """Drive a fresh LRMS through ``ops``, calling ``check(lrms)`` after each
    op (and, for an ``at-finish`` op, at the finish instant before the
    finish event fires)."""
    sim = Simulator()
    spec = make_spec(procs=CAPACITY)
    lrms = SpaceSharedLRMS(sim, spec, policy=policy)
    sim.run(until=t0)

    def job_of(job_shape):
        procs, runtime = job_shape
        return make_job(procs=procs, runtime=runtime, spec=spec, submit=sim.now)

    def arrive(kind, arg):
        if kind == "submit":
            lrms.submit(job_of(arg))
        elif kind == "estimate-submit":
            job = job_of(arg)
            lrms.estimate_completion_time(job)
            lrms.submit(job)
        else:
            job_a, job_b = job_of(arg[0]), job_of(arg[1])
            lrms.estimate_completion_time(job_a)
            lrms.submit(job_b)
            lrms.submit(job_a)

    for kind, arg in ops:
        if kind in ("submit", "estimate-submit", "estimate-a-submit-b-a"):
            arrive(kind, arg)
        elif kind == "advance":
            sim.run(until=sim.now + arg)
        elif kind == "at-finish" and lrms.running_count:

            def act(arrival=arg):
                if arrival is not None:
                    arrive(*arrival)
                check(lrms)

            finish = _next_finish(lrms)
            sim.schedule_at(finish, act, priority=-1)
            sim.run(until=finish)
        elif kind == "fail-all":
            lrms.fail_all()
        check(lrms)


def assert_shadow_matches_the_running_profile(lrms: SpaceSharedLRMS) -> None:
    """EASY's shadow time and spare processors for a head job, found in one
    pass over the running jobs' releases, equal the answer of the running
    jobs' availability profile: its earliest start, and its minimum free
    count over the head's run there, less the head's width."""
    profile = lrms._running_profile()
    now = lrms.sim.now
    for procs in range(1, CAPACITY + 1):
        head = make_job(procs=procs, runtime=PROBES[procs % len(PROBES)][1], spec=lrms.spec)
        runtime = lrms.runtime_of(head)
        shadow = profile.earliest_start(procs, runtime, earliest=now)
        extra = max(profile.min_free(shadow, shadow + runtime) - procs, 0)
        assert lrms._shadow(head) == (shadow, extra)


class TestMaintainedProfileOracle:
    @given(
        ops=st.lists(_op, min_size=1, max_size=40),
        policy=st.sampled_from(list(SchedulingPolicy)),
        t0=st.sampled_from([0.0, 12_345.678, 2e7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_answers_equal_a_naive_rebuild_after_every_op(self, ops, policy, t0):
        _replay(ops, policy, t0, assert_matches_reference)

    @given(
        ops=st.lists(_op, min_size=1, max_size=40),
        policy=st.sampled_from(list(SchedulingPolicy)),
        t0=st.sampled_from([0.0, 12_345.678, 2e7]),
    )
    @settings(max_examples=100, deadline=None)
    def test_easy_shadow_equals_the_running_profile_answer(self, ops, policy, t0):
        """Including at a finish instant whose finish event has not fired:
        that job's hold ends at now, so it holds nothing."""
        _replay(ops, policy, t0, assert_shadow_matches_the_running_profile)

    @given(
        arrivals=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=200.0), _job), min_size=1, max_size=40
        ),
        t0=st.sampled_from([0.0, 2e7]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fcfs_estimate_before_submit_is_the_finish_time(self, arrivals, t0):
        """Fault-free FCFS: the estimate taken just before each submit is
        that job's finish time exactly, and a profile is built only by an
        arrival that must wait while none is live: the first arrival, or
        one right after an arrival that started at once (an idle start
        drops the profile, and nothing else does here)."""
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec)
        sim.run(until=t0)
        estimates = {}
        starts_at_once = []

        def arrive(job):
            starts_at_once.append(
                lrms.queue_length == 0 and job.num_processors <= lrms.free_processors
            )
            estimates[job.job_id] = lrms.estimate_completion_time(job)
            lrms.submit(job)

        jobs = []
        clock = t0
        for gap, (procs, runtime) in arrivals:
            clock += gap
            job = make_job(procs=procs, runtime=runtime, spec=spec, submit=clock)
            jobs.append(job)
            sim.schedule_at(clock, arrive, job)
        with counted_profile_builds() as builds:
            sim.run()
        expected_builds = sum(
            1
            for i, at_once in enumerate(starts_at_once)
            if not at_once and (i == 0 or starts_at_once[i - 1])
        )
        assert len(builds) == expected_builds
        assert [job.finish_time for job in jobs] == [estimates[job.job_id] for job in jobs]


class TestEstimateRecord:
    """A submit reuses the slot its job's estimate found only at the same
    instant, with no reservation and no dropped profile in between."""

    @staticmethod
    def _busy_cluster():
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec)
        lrms.submit(make_job(procs=CAPACITY, runtime=10.0, spec=spec))  # busy until 10
        return sim, spec, lrms

    def test_a_submit_after_its_estimate_searches_nothing(self):
        _sim, spec, lrms = self._busy_cluster()
        job = make_job(procs=4, runtime=5.0, spec=spec)
        with counted_calls("earliest_start") as searches:
            assert lrms.estimate_completion_time(job) == 15.0
            lrms.submit(job)
        assert len(searches) == 1
        assert_matches_reference(lrms)

    def test_another_submit_in_between_makes_the_submit_search_again(self):
        _sim, spec, lrms = self._busy_cluster()
        job_a = make_job(procs=CAPACITY, runtime=5.0, spec=spec)
        job_b = make_job(procs=CAPACITY, runtime=3.0, spec=spec)
        with counted_calls("earliest_start") as searches:
            assert lrms.estimate_completion_time(job_a) == 15.0
            lrms.submit(job_b)
            lrms.submit(job_a)
        assert len(searches) == 3
        assert lrms.expected_wait() == 13.0
        assert_matches_reference(lrms)

    def test_an_estimate_is_not_reused_at_a_later_instant(self):
        sim, spec, lrms = self._busy_cluster()
        job = make_job(procs=4, runtime=5.0, spec=spec)
        assert lrms.estimate_completion_time(job) == 15.0
        sim.run(until=12.0)
        lrms.submit(job)
        assert job.start_time == 12.0
        assert_matches_reference(lrms)

    def test_a_crash_between_estimate_and_submit_forgets_the_estimate(self):
        _sim, spec, lrms = self._busy_cluster()
        job = make_job(procs=CAPACITY, runtime=5.0, spec=spec)
        assert lrms.estimate_completion_time(job) == 15.0
        assert len(lrms.fail_all()) == 1
        lrms.submit(make_job(procs=CAPACITY, runtime=20.0, spec=spec))  # busy until 20
        lrms.submit(job)  # queued; the next estimate rebuilds the profile
        assert_matches_reference(lrms)
        assert lrms.expected_wait() == 20.0


class TestIdleStart:
    """A job that finds no job waiting and enough free processors starts at
    once: its estimate and submit touch no profile, and the start drops the
    profile, so the next wait rebuilds it once from the running jobs."""

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_an_idle_estimate_and_submit_touch_no_profile(self, policy):
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec, policy=policy)
        sim.run(until=5.0)
        job = make_job(procs=4, runtime=7.5, spec=spec, submit=5.0)
        with contextlib.ExitStack() as stack:
            calls = [
                stack.enter_context(counted_calls(method))
                for method in ("__init__", "earliest_start", "reserve", "trim")
            ]
            finish = lrms.estimate_completion_time(job)
            lrms.submit(job)
        assert calls == [[], [], [], []]
        assert finish == 12.5
        assert job.start_time == finish - lrms.runtime_of(job) == 5.0
        sim.run()
        assert job.finish_time == finish

    def test_expected_wait_with_no_job_waiting_builds_nothing(self):
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec)
        for procs in (6, 4):
            lrms.submit(make_job(procs=procs, runtime=50.0, spec=spec))
        sim.run(until=10.0)
        assert lrms.running_count == 2 and lrms.queue_length == 0
        with counted_profile_builds() as builds:
            assert lrms.expected_wait() == 0.0
        assert builds == []

    def test_a_wait_rebuilds_once_and_the_next_idle_start_drops_the_profile(self):
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec)
        first = make_job(procs=10, runtime=100.0, spec=spec)
        assert lrms.estimate_completion_time(first) == 100.0
        lrms.submit(first)  # an idle start
        waiting = make_job(procs=8, runtime=20.0, spec=spec)
        with counted_profile_builds() as builds:
            assert lrms.estimate_completion_time(waiting) == 120.0
            lrms.submit(waiting)  # queued behind ``first``, predicted at 100
            assert lrms.expected_wait() == 100.0
            assert_matches_reference(lrms)
        assert len(builds) == 1
        sim.run(until=100.0)  # ``first`` finishes; ``waiting`` starts as predicted
        assert waiting.start_time == 100.0 and lrms.queue_length == 0
        late = make_job(procs=4, runtime=5.0, spec=spec, submit=100.0)
        assert lrms.estimate_completion_time(late) == 105.0
        lrms.submit(late)  # the next idle start
        assert late.start_time == 100.0
        assert lrms._profile is None
        assert lrms._predicted == {} and lrms._estimate is None
        assert_matches_reference(lrms)


class TestFallbackRebuilds:
    def test_easy_backfill_start_costs_exactly_one_rebuild(self):
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec, policy=SchedulingPolicy.EASY_BACKFILL)
        lrms.submit(make_job(procs=10, runtime=100.0, spec=spec))  # runs until 100
        lrms.submit(make_job(procs=16, runtime=10.0, spec=spec))   # head, shadow at 100
        probe = make_job(procs=4, runtime=5.0, spec=spec)
        with counted_profile_builds() as builds:
            assert_matches_reference(lrms)
            assert len(builds) == 1
            assert_matches_reference(lrms)
            assert len(builds) == 1
            # Predicted to start at 110, behind the head; EASY starts it now.
            small = make_job(procs=2, runtime=10.0, spec=spec)
            lrms.submit(small)
            assert small.start_time == 0.0
            before = len(builds)  # the submit's shadow computations build too
            estimate = lrms.estimate_completion_time(probe)
            assert len(builds) == before + 1
            assert_matches_reference(lrms)
            assert len(builds) == before + 1
        assert estimate == 115.0

    def test_fail_all_costs_exactly_one_rebuild(self):
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec)
        for procs in (12, 8, 16):
            lrms.submit(make_job(procs=procs, runtime=50.0, spec=spec))
        with counted_profile_builds() as builds:
            assert_matches_reference(lrms)
            assert len(builds) == 1
            sim.run(until=20.0)
            assert len(lrms.fail_all()) == 3
            lrms.submit(make_job(procs=16, runtime=30.0, spec=spec))
            lrms.submit(make_job(procs=4, runtime=30.0, spec=spec))
            assert_matches_reference(lrms)
            assert_matches_reference(lrms)
            assert len(builds) == 2
        assert lrms.expected_wait() == 30.0

    def test_fcfs_cluster_without_estimates_builds_nothing(self):
        sim = Simulator()
        spec = make_spec(procs=CAPACITY)
        lrms = SpaceSharedLRMS(sim, spec)
        with counted_profile_builds() as builds:
            for procs in (12, 8, 16, 3):
                lrms.submit(make_job(procs=procs, runtime=50.0, spec=spec))
            sim.run()
        assert builds == []
        assert lrms.jobs_completed == 4

