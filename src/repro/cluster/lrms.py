"""Space-shared local resource management system (LRMS).

This is the cluster-level scheduler that every GFA manages its resource
through — the role played by PBS / SGE in the paper.  Jobs request a number of
processors for their whole lifetime (space sharing).  Two queueing policies
are provided:

* **FCFS** — strict first-come-first-served;
* **EASY backfilling** — the head-of-queue job receives a reservation at its
  earliest possible start time and later jobs may jump ahead if doing so does
  not delay that reservation.

The cluster is ``P`` interchangeable processors, as in the paper's model: the
LRMS keeps how many are free, a job's start takes its width ``p`` from that
count and its finish (or a crash) gives it back.  No node is named.

Besides executing jobs the LRMS answers the admission-control question used by
the Grid-Federation negotiation protocol: *"by when could this job complete if
submitted now?"* (:meth:`SpaceSharedLRMS.estimate_completion_time`), based on
an :class:`~repro.cluster.profile.AvailabilityProfile` of running and queued
work.  A job that finds no job waiting and enough free processors starts at
once, under either policy, and neither its estimate nor its submit touches
the profile: running jobs only release processors, so any profile search
would put it at now.  The profile describes the waiting work and is
maintained rather than rebuilt: under FCFS with exact runtimes a queued job
starts exactly in the slot reserved for it (Mu'alem & Feitelson, IEEE TPDS
2001), so each submit that queues a job adds one reservation (in the slot
its admission estimate at that instant found).  A start the profile did not
predict (an idle start or an EASY backfill) or a crash drops it, and the
next estimate that faces a wait rebuilds it once from the running jobs.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.profile import AvailabilityProfile
from repro.cluster.specs import ResourceSpec, execution_time
from repro.sim.engine import Simulator
from repro.workload.job import Job, JobStatus


class AllocationError(RuntimeError):
    """Raised when a start would over-allocate the cluster's processors."""


class SchedulingPolicy(enum.Enum):
    """Queueing discipline of the space-shared LRMS."""

    FCFS = "fcfs"
    EASY_BACKFILL = "easy"


class SpaceSharedLRMS:
    """A space-shared cluster scheduler.

    Parameters
    ----------
    sim:
        The simulation engine (provides the clock and finish events).
    spec:
        Static description of the managed cluster.
    policy:
        :class:`SchedulingPolicy` — FCFS (default) or EASY backfilling.
    on_job_complete:
        Optional callback ``f(job)`` invoked when a job finishes; the GFA uses
        it to send job-completion messages and settle payments.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ResourceSpec,
        policy: SchedulingPolicy = SchedulingPolicy.FCFS,
        on_job_complete: Optional[Callable[[Job], None]] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.policy = policy
        self.on_job_complete = on_job_complete
        # Processors not held by a running job.
        self._free = spec.num_processors
        self._queue: List[Job] = []
        # job_id -> (job, finish time, finish event's seq); the seq lets a
        # crash (fail_all) cancel the in-flight completion.
        self._running: Dict[int, Tuple[Job, float, int]] = {}
        #: Optional hook fired on every state change (the parallel engine
        #: sets it to maintain a dirty set instead of scanning every cluster
        #: at every barrier); ``None`` costs one attribute check.
        self.on_state_change: Optional[Callable[[], None]] = None
        # The live admission profile: running work plus a reservation for
        # every queued job, or None until the next estimate facing a wait
        # rebuilds it.
        self._profile: Optional[AvailabilityProfile] = None
        # Predicted (start, runtime) of each queued job while the profile is
        # live...
        self._predicted: Dict[int, Tuple[float, float]] = {}
        # ...and the start of the last one reserved (the FCFS queue tail).
        self._tail: float = 0.0
        # The last admission estimate, as (job, now, start, runtime): the
        # slot a submit of that job at that instant reserves or starts it
        # in, until the next reservation or dropped profile (every start the
        # profile did not predict drops it) changes what the estimate saw.
        self._estimate: Optional[Tuple[Job, float, float, float]] = None
        # Accounting
        self.busy_node_seconds: float = 0.0
        self.jobs_submitted: int = 0
        self.jobs_completed: int = 0
        self.last_finish_time: float = 0.0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queue_length(self) -> int:
        """Number of jobs waiting to start."""
        return len(self._queue)

    @property
    def running_count(self) -> int:
        """Number of jobs currently executing."""
        return len(self._running)

    @property
    def free_processors(self) -> int:
        """Processors not currently allocated to a running job."""
        return self._free

    def runtime_of(self, job: Job) -> float:
        """Execution time of ``job`` on this cluster (Eq. 2)."""
        return execution_time(job, self.spec)

    def utilisation(self, period: float) -> float:
        """Fraction of node-seconds used over an observation ``period``.

        ``period`` is typically ``max(simulated horizon, last finish time)``;
        the caller chooses it so that utilisation never exceeds 1 by
        construction of the observation window.
        """
        if period <= 0:
            raise ValueError("observation period must be positive")
        return self.busy_node_seconds / (self.spec.num_processors * period)

    # ------------------------------------------------------------------ #
    # Submission and execution
    # ------------------------------------------------------------------ #
    def submit(self, job: Job) -> None:
        """Accept ``job``: start it now if no job waits and it fits, else
        queue it and start it as soon as the policy allows."""
        if not self.spec.can_run(job):
            raise ValueError(
                f"{self.spec.name} cannot run job {job.job_id}: needs "
                f"{job.num_processors} > {self.spec.num_processors} processors"
            )
        job.mark_queued(self.spec.name)
        self.jobs_submitted += 1
        if self.on_state_change is not None:
            self.on_state_change()
        if not self._queue and job.num_processors <= self._free:
            self._start(job)
            return
        self._queue.append(job)
        if self._profile is not None:
            self._profile.trim(self.sim.now)
            self._reserve(job)
        self._dispatch()

    def _dispatch(self) -> None:
        """Start queued jobs according to the configured policy."""
        if self.policy is SchedulingPolicy.FCFS:
            self._dispatch_fcfs()
        else:
            self._dispatch_easy()

    def _dispatch_fcfs(self) -> None:
        while self._queue and self._queue[0].num_processors <= self._free:
            self._start(self._queue.pop(0))

    def _dispatch_easy(self) -> None:
        # Start the head of the queue whenever possible (same as FCFS)...
        self._dispatch_fcfs()
        if not self._queue:
            return
        # ...then backfill: the head job gets a reservation at its earliest
        # start (the shadow time); any later job may start now if it does not
        # push that reservation back.
        head = self._queue[0]
        shadow_time, extra_nodes = self._shadow(head)
        now = self.sim.now
        i = 1
        while i < len(self._queue):
            job = self._queue[i]
            runtime = self.runtime_of(job)
            fits_now = job.num_processors <= self._free
            ends_before_shadow = now + runtime <= shadow_time + 1e-9
            uses_spare_nodes = job.num_processors <= extra_nodes
            if fits_now and (ends_before_shadow or uses_spare_nodes):
                self._queue.pop(i)
                self._start(job)
                if uses_spare_nodes and not ends_before_shadow:
                    extra_nodes -= job.num_processors
                # Starting a job changes the free-node count; recompute the
                # shadow in case the head can now start even earlier.
                if not self._queue:
                    break
                head = self._queue[0]
                shadow_time, extra_nodes = self._shadow(head)
            else:
                i += 1

    def _shadow(self, head: Job) -> Tuple[float, int]:
        """Return (shadow time, extra nodes) for EASY backfilling.

        The shadow time is the earliest start of the head-of-queue job given
        the currently running jobs; the extra nodes are the processors that
        remain free at that instant after the head job has been placed.

        With running jobs alone the free count never falls over time, so
        the shadow time is the first instant (now, or a release) at which it
        reaches the head's width, and the extra nodes are the count there,
        after every release due then, minus that width.  One pass over the
        releases in time order finds both, with no availability profile; a
        finish due now (its event not fired yet) counts as released now.
        """
        releases = sorted(
            (finish, job.num_processors) for job, finish, _seq in self._running.values()
        )
        need = head.num_processors
        free = self._free
        shadow = self.sim.now
        for finish, procs in releases:
            if free >= need and finish > shadow:
                break
            shadow = finish
            free += procs
        return shadow, max(free - need, 0)

    def _start(self, job: Job) -> None:
        procs = job.num_processors
        if procs < 1 or procs > self._free or job.job_id in self._running:
            raise self._allocation_error(job)
        now = self.sim.now
        # Only a live profile predicts starts, so with none there is nothing
        # to pop.
        predicted = self._predicted.pop(job.job_id, None) if self._predicted else None
        if predicted is not None and predicted[0] == now:
            runtime = predicted[1]
        else:
            # A start the profile did not predict (an idle start or an EASY
            # backfill): its reservations, if any, and the estimate record no
            # longer describe the cluster.  The record still gives the
            # runtime if it is this job's at this instant.
            record = self._estimate
            self._estimate = None
            if self._profile is not None:
                self._profile = None
                self._predicted.clear()
            if record is not None and record[0] is job and record[1] == now:
                runtime = record[3]
            else:
                runtime = execution_time(job, self.spec)
        self._free -= procs
        job.mark_running(now)
        finish = now + runtime
        self._running[job.job_id] = (
            job,
            finish,
            self.sim.schedule_at(finish, self._finish, job.job_id),
        )

    def _allocation_error(self, job: Job) -> AllocationError:
        """The error for a start that ``_start``'s guard refuses."""
        procs = job.num_processors
        if procs < 1:
            return AllocationError(f"must allocate at least one node, got {procs}")
        if job.job_id in self._running:
            return AllocationError(f"job {job.job_id} already holds an allocation")
        return AllocationError(
            f"job {job.job_id} requested {procs} nodes but only {self._free} are free"
        )

    def _finish(self, job_id: int) -> None:
        if self.on_state_change is not None:
            self.on_state_change()
        job = self._running.pop(job_id)[0]
        self._free += job.num_processors
        now = self.sim.now
        started = job.start_time if job.start_time is not None else now
        self.busy_node_seconds += job.num_processors * (now - started)
        job.mark_completed(now)
        self.jobs_completed += 1
        if now > self.last_finish_time:
            self.last_finish_time = now
        if self._queue:
            self._dispatch()
        if self.on_job_complete is not None:
            self.on_job_complete(job)

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def fail_all(self) -> List[Job]:
        """Crash the cluster: kill running jobs, drop the queue, free processors.

        Every running job's finish event is cancelled and its processors
        handed back to the free count (not reset to the cluster's size, so a
        miscount stays visible to the validator);
        node-seconds consumed up to the crash instant still count towards
        utilisation (the processors *were* busy).  Queued jobs are returned
        untouched behind the killed running jobs.  The fate of the returned
        jobs (re-negotiation or fault-attributed failure) is the caller's —
        i.e. the :class:`~repro.faults.injector.FaultInjector`'s — decision.
        """
        now = self.sim.now
        killed: List[Job] = []
        for job, _finish, seq in self._running.values():
            self.sim.cancel(seq)
            self._free += job.num_processors
            started = job.start_time if job.start_time is not None else now
            self.busy_node_seconds += job.num_processors * (now - started)
            killed.append(job)
        self._running.clear()
        killed.extend(self._queue)
        self._queue.clear()
        self._drop_profile()
        if self.on_state_change is not None:
            self.on_state_change()
        return killed

    # ------------------------------------------------------------------ #
    # Admission-control estimate
    # ------------------------------------------------------------------ #
    def estimate_completion_time(self, job: Job) -> float:
        """Estimated absolute completion time of ``job`` if submitted now.

        If no job waits and ``job`` fits in the free processors, it would
        start now, and the answer is ``now + runtime`` without touching the
        profile: with an empty queue the profile holds only running jobs,
        which only release processors, and the FCFS tail is at or before
        now, so a search would find the same slot.  Otherwise the estimate
        uses an availability profile of the running jobs' expected finish
        times with capacity reserved for the already-queued jobs in FCFS
        order (no overtaking), and finds the earliest feasible slot for
        ``job`` behind the queue tail.  It is exact under FCFS; under EASY
        backfilling it predicts the FCFS completion, which backfilling
        usually improves on but can in rare cases exceed (a backfilled narrow
        job may delay a mid-queue job).  Deadline guarantees in the paper's
        sense therefore hold exactly for the FCFS policy used in the
        experiments.  The slot found is recorded, so submitting the job at
        the same instant reserves it (or starts it) without searching again.
        """
        runtime = execution_time(job, self.spec)  # ValueError if too wide
        now = self.sim.now
        if not self._queue and job.num_processors <= self._free:
            start = now
        else:
            profile, queue_tail_start = self._estimation_profile()
            # A newly submitted job joins the back of the queue: under FCFS it
            # can never overtake the jobs already waiting, so its start is
            # bounded below by the last queued job's predicted start (which
            # the profile already clamps to now).
            start = profile.earliest_start(job.num_processors, runtime, queue_tail_start)
        self._estimate = (job, now, start, runtime)
        return start + runtime

    def _estimation_profile(self) -> Tuple[AvailabilityProfile, float]:
        """Availability profile of the current running + queued work.

        Returns the profile plus the predicted start time of the last queued
        job (the FCFS "queue tail"), which lower-bounds the start of any new
        arrival.  The profile is live: :meth:`submit` reserves each new job's
        slot in it, a finishing job's reservation already ends at its finish
        time, and a job that starts when predicted already sits where it
        runs, so an estimate only trims it to now.  A start it did not
        predict (an idle start or an EASY backfill) or a crash drops it; the
        next estimate facing a wait then rebuilds it from the running jobs'
        exact ends, replaying the queue in FCFS order, which gives the same
        profile bit for bit.
        """
        now = self.sim.now
        profile = self._profile
        if profile is None:
            profile = self._profile = self._running_profile()
            self._tail = now
            for job in self._queue:
                self._reserve(job)
        else:
            profile.trim(now)
        return profile, max(self._tail, now)

    def _running_profile(self) -> AvailabilityProfile:
        """Profile of the running jobs alone, each busy until its finish."""
        return AvailabilityProfile.until_released(
            self.spec.num_processors,
            self.sim.now,
            [(finish, job.num_processors) for job, finish, _seq in self._running.values()],
        )

    def _reserve(self, job: Job) -> None:
        """Reserve queued ``job``'s FCFS slot in the live profile and record
        its predicted start and runtime.

        An estimate of the same job at the same instant already found that
        slot: nothing has changed the profile or the tail since, because
        every reservation and every dropped profile clears the record.
        """
        now = self.sim.now
        record = self._estimate
        self._estimate = None
        if record is not None and record[0] is job and record[1] == now:
            start, runtime = record[2], record[3]
        else:
            runtime = self.runtime_of(job)
            # FCFS: a queued job starts no earlier than the one before it.
            start = self._profile.earliest_start(
                job.num_processors, runtime, earliest=max(now, self._tail)
            )
        self._profile.reserve(start, runtime, job.num_processors)
        self._predicted[job.job_id] = (start, runtime)
        self._tail = start

    def _drop_profile(self) -> None:
        self._profile = None
        self._predicted.clear()
        self._estimate = None

    def start_bound(self) -> Optional[float]:
        """An O(1) lower bound on the start :meth:`estimate_completion_time`
        would find for a new job now, or ``None`` when it is not known.

        With no job waiting the bound is now.  While the live profile
        exists it is the FCFS queue tail (clamped to now), below which the
        estimate never searches.  Without a live profile the tail is known
        only after a rebuild, so the bound is unknown.  Nothing is built,
        trimmed or recorded.
        """
        now = self.sim.now
        if not self._queue:
            return now
        if self._profile is None:
            return None
        tail = self._tail
        return tail if tail > now else now

    def expected_wait(self) -> float:
        """Predicted queueing delay currently faced by a new arrival.

        This is the FCFS queue-tail start time minus "now" — the quantity a
        coordinated GFA publishes to the federation directory so that other
        sites can rule it out without a negotiation round trip.  With no job
        waiting the tail is at or before now, so the answer is 0 and no
        profile is built.
        """
        if not self._queue:
            return 0.0
        _profile, queue_tail_start = self._estimation_profile()
        return max(queue_tail_start - self.sim.now, 0.0)

    def queue_tail_hint(self) -> float:
        """Cheap work-conserving estimate of the current queueing delay.

        Outstanding node-seconds (remaining running work plus the whole
        queue) divided by the cluster's capacity — a lower bound on the time
        until all outstanding work drains, which ignores fragmentation, at a
        fraction of :meth:`expected_wait`'s cost (no availability profile is
        built).  It bounds the FCFS queue-tail wait neither way: a queued
        narrow job adds its whole runtime.  The parallel engine publishes
        this as the per-window load snapshot, where the value is approximate
        by design anyway (a snapshot is stale by up to one barrier window
        before any proxy reads it).
        """
        now = self.sim.now
        node_seconds = sum(
            (finish - now) * job.num_processors
            for job, finish, _seq in self._running.values()
        )
        for job in self._queue:
            node_seconds += self.runtime_of(job) * job.num_processors
        return max(node_seconds / self.spec.num_processors, 0.0)

    def can_meet_deadline(self, job: Job) -> bool:
        """True if the job's absolute deadline can (still) be met here."""
        deadline = job.deadline
        if deadline is None:
            return True
        if job.num_processors > self.spec.num_processors:
            return False
        return self.estimate_completion_time(job) <= (job.submit_time + deadline) + 1e-9

    # ------------------------------------------------------------------ #
    # Test helpers
    # ------------------------------------------------------------------ #
    def running_jobs(self) -> List[Job]:
        """Snapshot of the currently executing jobs."""
        return [job for job, _finish, _seq in self._running.values()]

    def queued_jobs(self) -> List[Job]:
        """Snapshot of the queued (not yet started) jobs."""
        return list(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"SpaceSharedLRMS({self.spec.name!r}, policy={self.policy.value}, "
            f"running={self.running_count}, queued={self.queue_length})"
        )
