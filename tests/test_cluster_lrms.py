"""Tests for the space-shared LRMS (FCFS and EASY backfilling)."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AllocationError, ResourceSpec, SpaceSharedLRMS, SchedulingPolicy
from repro.cluster.specs import execution_time
from repro.sim import Simulator
from repro.workload.job import Job, JobStatus


def make_spec(procs=16, mips=1000.0, bandwidth=2.0, price=4.0, name="cluster"):
    return ResourceSpec(
        name=name, num_processors=procs, mips=mips, bandwidth_gbps=bandwidth, price=price
    )


def make_job(procs=4, runtime=100.0, submit=0.0, spec=None, comm=0.0, **kw):
    """Build a job whose compute time on ``spec`` is exactly ``runtime`` seconds."""
    spec = spec or make_spec()
    return Job(
        origin=spec.name,
        user_id=0,
        submit_time=submit,
        num_processors=procs,
        length_mi=runtime * spec.mips * procs,
        comm_data_gb=comm,
        **kw,
    )


@pytest.fixture()
def world():
    sim = Simulator()
    spec = make_spec()
    lrms = SpaceSharedLRMS(sim, spec)
    return sim, spec, lrms


class TestExecution:
    def test_single_job_runs_for_its_execution_time(self, world):
        sim, spec, lrms = world
        job = make_job(procs=4, runtime=100.0, spec=spec)
        lrms.submit(job)
        sim.run()
        assert job.status is JobStatus.COMPLETED
        assert job.start_time == pytest.approx(0.0)
        assert job.finish_time == pytest.approx(execution_time(job, spec))
        assert lrms.jobs_completed == 1

    def test_communication_overhead_extends_runtime(self):
        sim = Simulator()
        spec = make_spec(bandwidth=2.0)
        lrms = SpaceSharedLRMS(sim, spec)
        job = make_job(procs=4, runtime=100.0, spec=spec, comm=20.0)  # 20 Gb / 2 Gb/s = 10 s
        lrms.submit(job)
        sim.run()
        assert job.finish_time == pytest.approx(110.0)

    def test_parallel_jobs_run_concurrently_when_nodes_available(self, world):
        sim, spec, lrms = world
        a = make_job(procs=8, runtime=100.0, spec=spec)
        b = make_job(procs=8, runtime=100.0, spec=spec)
        lrms.submit(a)
        lrms.submit(b)
        sim.run()
        assert a.start_time == pytest.approx(0.0)
        assert b.start_time == pytest.approx(0.0)

    def test_job_queues_when_nodes_busy(self, world):
        sim, spec, lrms = world
        a = make_job(procs=12, runtime=100.0, spec=spec)
        b = make_job(procs=12, runtime=50.0, spec=spec)
        lrms.submit(a)
        lrms.submit(b)
        assert lrms.queue_length == 1
        sim.run()
        assert b.start_time == pytest.approx(100.0)
        assert b.finish_time == pytest.approx(150.0)

    def test_too_large_job_rejected_at_submit(self, world):
        _, spec, lrms = world
        with pytest.raises(ValueError):
            lrms.submit(make_job(procs=17, spec=spec))

    def test_completion_callback_invoked(self):
        sim = Simulator()
        spec = make_spec()
        completed = []
        lrms = SpaceSharedLRMS(sim, spec, on_job_complete=completed.append)
        job = make_job(spec=spec)
        lrms.submit(job)
        sim.run()
        assert completed == [job]

    def test_busy_node_seconds_accounting(self, world):
        sim, spec, lrms = world
        lrms.submit(make_job(procs=4, runtime=100.0, spec=spec))
        lrms.submit(make_job(procs=2, runtime=50.0, spec=spec))
        sim.run()
        assert lrms.busy_node_seconds == pytest.approx(4 * 100.0 + 2 * 50.0)
        assert lrms.utilisation(period=1000.0) == pytest.approx(500.0 / (16 * 1000.0))

    def test_utilisation_requires_positive_period(self, world):
        _, _, lrms = world
        with pytest.raises(ValueError):
            lrms.utilisation(0.0)


class TestFreeProcessors:
    """The LRMS keeps its free processors as one count: a start takes the
    job's width, a finish or a crash gives it back."""

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_starts_take_and_finishes_return_the_width(self, policy):
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=policy)
        seen = []

        def watch(job):
            seen.append((sim.now, job.job_id, lrms.free_processors))

        lrms.on_job_complete = watch
        a = make_job(procs=10, runtime=100.0, spec=spec)
        b = make_job(procs=4, runtime=50.0, spec=spec)
        c = make_job(procs=8, runtime=30.0, spec=spec)
        lrms.submit(a)
        assert lrms.free_processors == 6
        lrms.submit(b)
        assert lrms.free_processors == 2
        lrms.submit(c)  # waits for ``a``'s 10 processors
        assert lrms.free_processors == 2 and lrms.queue_length == 1
        sim.run()
        # ``b`` hands back 4 at 50; ``a`` hands back 10 at 100 and ``c``
        # takes 8 of them before the completion callback; ``c`` ends at 130.
        assert seen == [(50.0, b.job_id, 6), (100.0, a.job_id, 8), (130.0, c.job_id, 16)]

    def test_fail_all_returns_each_killed_width_without_resetting(self):
        """A crash adds back what its killed jobs held; it does not reset
        the count to the cluster's size, so a processor leaked before the
        crash stays missing (the validator's dead-cluster check reads it)."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec)
        for procs in (6, 7, 16):
            lrms.submit(make_job(procs=procs, runtime=100.0, spec=spec))
        assert lrms.free_processors == 3
        lrms._free -= 1  # a processor some bug never handed back
        killed = lrms.fail_all()
        assert [job.num_processors for job in killed] == [6, 7, 16]
        assert lrms.free_processors == spec.num_processors - 1
        assert lrms.running_count == 0 and sim.pending == 0

    def test_a_finish_for_a_job_that_is_not_running_raises(self, world):
        sim, spec, lrms = world
        job = make_job(procs=4, runtime=10.0, spec=spec)
        lrms.submit(job)
        sim.run()
        with pytest.raises(KeyError):
            lrms._finish(job.job_id)
        assert lrms.free_processors == spec.num_processors

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_a_pickled_busy_cluster_resumes_like_the_original(self, policy):
        """Mid-run state (free count, running and queued jobs, finish
        events) survives pickling, as a checkpoint takes it."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=policy)
        for procs, runtime in ((10, 100.0), (16, 10.0), (2, 10.0), (5, 40.0), (3, 500.0)):
            lrms.submit(make_job(procs=procs, runtime=runtime, spec=spec))
        sim.run(until=5.0)
        clone_sim, clone = pickle.loads(pickle.dumps((sim, lrms)))
        assert clone.free_processors == lrms.free_processors
        sim.run()
        clone_sim.run()
        assert clone.free_processors == lrms.free_processors == spec.num_processors
        assert clone.busy_node_seconds == lrms.busy_node_seconds
        assert clone.last_finish_time == lrms.last_finish_time
        assert clone.jobs_completed == lrms.jobs_completed == 5

    def test_allocation_error_is_exported_from_the_cluster_package(self):
        from repro.cluster.lrms import AllocationError as defined

        assert AllocationError is defined
        assert issubclass(AllocationError, RuntimeError)


class TestStartGuards:
    """A start that would over-allocate is refused with
    :class:`AllocationError` before the LRMS changes anything."""

    CASES = {
        "wider-than-free": "requested 8 nodes but only 6 are free",
        "zero-width": "must allocate at least one node, got 0",
        "already-running": "already holds an allocation",
    }

    @staticmethod
    def _state(sim, lrms):
        return (
            lrms.free_processors,
            dict(lrms._running),
            list(lrms._queue),
            lrms._profile,
            dict(lrms._predicted),
            lrms._estimate,
            lrms.jobs_submitted,
            sim.pending,
            sim.queue_size,
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_refused_start_changes_nothing(self, case):
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec)
        running = make_job(procs=10, runtime=100.0, spec=spec)
        lrms.submit(running)
        waiting = make_job(procs=8, runtime=20.0, spec=spec)
        lrms.estimate_completion_time(waiting)
        lrms.submit(waiting)  # queued, its start predicted at 100
        if case == "wider-than-free":
            job = waiting
        elif case == "zero-width":
            job = make_job(procs=1, runtime=5.0, spec=spec)
            job.num_processors = 0
        else:
            job = running
        # A live estimate record for the job: a start that got past its
        # guards would clear it, and drop the profile for an unpredicted one.
        lrms.estimate_completion_time(running if case == "zero-width" else job)
        before = self._state(sim, lrms)
        assert lrms._profile is not None and lrms._estimate is not None
        with pytest.raises(AllocationError, match=self.CASES[case]):
            lrms._start(job)
        assert self._state(sim, lrms) == before
        sim.run()
        assert (running.finish_time, waiting.start_time, waiting.finish_time) == (100.0, 100.0, 120.0)
        assert lrms.free_processors == spec.num_processors


class TestFCFSOrdering:
    def test_fcfs_does_not_overtake_head_of_queue(self):
        """Under strict FCFS a small job must wait behind a blocked large job."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=SchedulingPolicy.FCFS)
        running = make_job(procs=10, runtime=100.0, spec=spec)
        blocked_head = make_job(procs=16, runtime=10.0, spec=spec)
        small = make_job(procs=2, runtime=10.0, spec=spec)
        lrms.submit(running)
        lrms.submit(blocked_head)
        lrms.submit(small)
        sim.run()
        assert blocked_head.start_time == pytest.approx(100.0)
        assert small.start_time >= blocked_head.start_time


class TestEasyBackfilling:
    def test_backfill_starts_small_job_in_hole(self):
        """EASY lets the small job run during the hole because it finishes
        before the head job's reservation (the shadow time)."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=SchedulingPolicy.EASY_BACKFILL)
        running = make_job(procs=10, runtime=100.0, spec=spec)
        blocked_head = make_job(procs=16, runtime=10.0, spec=spec)
        small = make_job(procs=2, runtime=10.0, spec=spec)
        lrms.submit(running)
        lrms.submit(blocked_head)
        lrms.submit(small)
        sim.run()
        assert small.start_time == pytest.approx(0.0)
        # The head job still starts at its shadow time — backfilling never
        # delays the reservation.
        assert blocked_head.start_time == pytest.approx(100.0)

    def test_backfill_does_not_delay_head_job(self):
        """A long small job that would push the head job back must wait."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=SchedulingPolicy.EASY_BACKFILL)
        running = make_job(procs=10, runtime=100.0, spec=spec)
        blocked_head = make_job(procs=16, runtime=10.0, spec=spec)
        long_small = make_job(procs=8, runtime=500.0, spec=spec)
        lrms.submit(running)
        lrms.submit(blocked_head)
        lrms.submit(long_small)
        sim.run()
        assert blocked_head.start_time == pytest.approx(100.0)
        assert long_small.start_time >= blocked_head.start_time

    def test_backfill_uses_spare_nodes_for_long_jobs(self):
        """A long narrow job may backfill if it only uses processors the head
        job will not need at its shadow time."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=SchedulingPolicy.EASY_BACKFILL)
        running = make_job(procs=10, runtime=100.0, spec=spec)
        head = make_job(procs=12, runtime=10.0, spec=spec)  # shadow at t=100, needs 12
        narrow_long = make_job(procs=4, runtime=1000.0, spec=spec)  # uses the 4 spare nodes
        lrms.submit(running)
        lrms.submit(head)
        lrms.submit(narrow_long)
        sim.run()
        assert narrow_long.start_time == pytest.approx(0.0)
        assert head.start_time == pytest.approx(100.0)


class TestCompletionEstimates:
    def test_estimate_on_empty_cluster_is_unloaded_time(self, world):
        sim, spec, lrms = world
        job = make_job(procs=4, runtime=100.0, spec=spec)
        assert lrms.estimate_completion_time(job) == pytest.approx(execution_time(job, spec))

    def test_estimate_accounts_for_running_and_queued_jobs(self, world):
        sim, spec, lrms = world
        lrms.submit(make_job(procs=16, runtime=100.0, spec=spec))
        lrms.submit(make_job(procs=16, runtime=50.0, spec=spec))
        probe = make_job(procs=16, runtime=10.0, spec=spec)
        assert lrms.estimate_completion_time(probe) == pytest.approx(160.0)

    def test_estimate_matches_actual_completion_under_fcfs(self, world):
        """The admission-control estimate is exact for FCFS."""
        sim, spec, lrms = world
        jobs = [
            make_job(procs=10, runtime=100.0, spec=spec),
            make_job(procs=8, runtime=30.0, spec=spec),
            make_job(procs=16, runtime=20.0, spec=spec),
        ]
        for job in jobs[:2]:
            lrms.submit(job)
        estimate = lrms.estimate_completion_time(jobs[2])
        lrms.submit(jobs[2])
        sim.run()
        assert jobs[2].finish_time == estimate

    def test_estimate_uses_the_running_jobs_exact_finish(self):
        """A running job's reservation ends at its stored finish time.

        Reserving ``finish - now`` seconds from ``now`` instead ends one ulp
        late once ``finish > 2 * now``: this job finishes at
        19941.429098546203, but ``now + (finish - now)`` at the probe is
        19941.429098546207.
        """
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec)
        start, finish, probe_at = 334.20329209458794, 19941.429098546203, 3509.1098018476896
        running = make_job(procs=16, runtime=finish - start, spec=spec)
        sim.run(until=start)
        lrms.submit(running)
        sim.run(until=probe_at)
        assert probe_at + (finish - probe_at) != finish
        waiting = make_job(procs=16, runtime=100.0, spec=spec)
        estimate = lrms.estimate_completion_time(waiting)
        lrms.submit(waiting)
        sim.run()
        assert running.finish_time == finish
        assert estimate == waiting.finish_time == 20041.429098546203

    @pytest.mark.parametrize("t0", [0.0, 2e7], ids=["t0-zero", "t0-2e7"])
    def test_enquiry_at_the_instant_a_job_finishes(self, t0):
        """An enquiry taken at a running job's finish time, before its finish
        event fires, sees its processors free from that instant: not 1e-9 s
        later and, past 2**24 s where ``now + 1e-9 == now``, not an error."""
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec)
        sim.run(until=t0)
        running = make_job(procs=8, runtime=50.0, spec=spec)
        lrms.submit(running)
        probe = make_job(procs=16, runtime=10.0, spec=spec)
        answers = []

        def enquire():
            assert running in lrms.running_jobs()
            answers.append((lrms.estimate_completion_time(probe), lrms.expected_wait()))

        sim.schedule_at(t0 + 50.0, enquire, priority=-1)
        sim.run()
        assert running.finish_time == t0 + 50.0
        assert answers == [(t0 + 60.0, 0.0)]

    def test_can_meet_deadline(self, world):
        sim, spec, lrms = world
        lrms.submit(make_job(procs=16, runtime=100.0, spec=spec))
        tight = make_job(procs=16, runtime=10.0, spec=spec, deadline=50.0)
        loose = make_job(procs=16, runtime=10.0, spec=spec, deadline=500.0)
        assert lrms.can_meet_deadline(tight) is False
        assert lrms.can_meet_deadline(loose) is True

    def test_can_meet_deadline_without_deadline_is_true(self, world):
        _, spec, lrms = world
        assert lrms.can_meet_deadline(make_job(spec=spec)) is True

    def test_can_meet_deadline_for_oversized_job_is_false(self, world):
        _, spec, lrms = world
        big = make_job(procs=32, spec=make_spec(procs=32), deadline=1e9)
        assert lrms.can_meet_deadline(big) is False


class TestQueueTailHint:
    """The cheap work-conserving tail estimate the parallel engine snapshots."""

    def test_idle_cluster_hints_zero(self, world):
        _, _, lrms = world
        assert lrms.queue_tail_hint() == 0.0

    def test_hint_is_outstanding_node_seconds_over_capacity(self, world):
        sim, spec, lrms = world
        lrms.submit(make_job(procs=8, runtime=100.0, spec=spec))   # runs now
        lrms.submit(make_job(procs=16, runtime=50.0, spec=spec))   # queued
        # (8 * 100 + 16 * 50) / 16 processors = 100 seconds of backlog.
        assert lrms.queue_tail_hint() == pytest.approx(100.0)

    def test_hint_decays_as_running_work_drains(self, world):
        sim, spec, lrms = world
        lrms.submit(make_job(procs=16, runtime=100.0, spec=spec))
        before = lrms.queue_tail_hint()
        sim.run(until=40.0)
        after = lrms.queue_tail_hint()
        assert before == pytest.approx(100.0)
        assert after == pytest.approx(60.0)

    def test_hint_lower_bounds_the_drain_time(self, world):
        """Work conservation: the outstanding node-seconds cannot all run
        before the last job ends.  Here the 9-processor job waits until 100
        and the 16-processor one until 130, so the work drains at 150."""
        sim, spec, lrms = world
        lrms.submit(make_job(procs=10, runtime=100.0, spec=spec))
        lrms.submit(make_job(procs=9, runtime=30.0, spec=spec))
        lrms.submit(make_job(procs=16, runtime=20.0, spec=spec))
        # (10 * 100 + 9 * 30 + 16 * 20) / 16 processors.
        assert lrms.queue_tail_hint() == pytest.approx(99.375)
        assert lrms.expected_wait() == 130.0
        assert lrms.queue_tail_hint() <= 150.0

    def test_hint_is_not_a_lower_bound_on_the_tail_wait(self):
        """A narrow queued job behind a short wide one: the hint counts its
        whole runtime, the tail wait only the time until it starts."""
        sim = Simulator()
        spec = make_spec(procs=10)
        lrms = SpaceSharedLRMS(sim, spec)
        lrms.submit(make_job(procs=10, runtime=100.0, spec=spec))
        lrms.submit(make_job(procs=1, runtime=1000.0, spec=spec))
        # (10 * 100 + 1 * 1000) / 10 processors against a start at 100.
        assert lrms.queue_tail_hint() == 200.0
        assert lrms.expected_wait() == 100.0


class TestProperties:
    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),      # processors
                st.floats(min_value=1.0, max_value=500.0),   # runtime
            ),
            min_size=1,
            max_size=30,
        ),
        policy=st.sampled_from(list(SchedulingPolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_jobs_complete_and_capacity_never_exceeded(self, jobs, policy):
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec, policy=policy)
        job_objs = [make_job(procs=p, runtime=r, spec=spec) for p, r in jobs]
        for job in job_objs:
            lrms.submit(job)
        # Track concurrent usage at every start event.
        sim.run()
        assert all(j.status is JobStatus.COMPLETED for j in job_objs)
        assert lrms.jobs_completed == len(job_objs)
        # No two jobs' node allocations overlapped: reconstruct usage timeline.
        events = []
        for j in job_objs:
            events.append((j.start_time, j.num_processors))
            events.append((j.finish_time, -j.num_processors))
        usage, peak = 0, 0
        # Releases and allocations at the same instant never overlap in the
        # LRMS (release happens first), so process negative deltas first.
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            usage += delta
            peak = max(peak, usage)
        assert peak <= spec.num_processors

    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),
                st.floats(min_value=1.0, max_value=200.0),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_busy_node_seconds_equals_sum_of_job_areas(self, jobs):
        sim = Simulator()
        spec = make_spec(procs=16)
        lrms = SpaceSharedLRMS(sim, spec)
        job_objs = [make_job(procs=p, runtime=r, spec=spec) for p, r in jobs]
        for job in job_objs:
            lrms.submit(job)
        sim.run()
        expected = sum(j.num_processors * (j.finish_time - j.start_time) for j in job_objs)
        assert lrms.busy_node_seconds == pytest.approx(expected)
