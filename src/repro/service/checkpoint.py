"""The step-boundary policy: checkpoints, progress and cancellation.

A run with any of :func:`~repro.scenario.runner.run_scenario`'s hooks set
(``checkpoint_dir``, ``checkpoint_every``, ``on_progress``) advances in
bounded steps — a serial run in chunks of virtual time (:func:`drive`), a
sharded run in barrier windows (:meth:`repro.par.engine.ParallelSimulator.
_drive`) — and both loops hand each step boundary to one
:class:`BoundaryPolicy`.  It owns the cadence (a boundary falls once
``checkpoint_every`` simulated seconds have passed since the run started or
the last boundary), the checkpoint (a serial run's rolling ``latest.ckpt``,
or a sharded run's fleet checkpoint committed by ``par-state.bin``), the
:class:`RunProgress` report that follows it, and cancellation (a
:class:`CancelledRun` raised by ``on_progress`` stops the run at that
boundary).

Every boundary reports progress, but a boundary writes its checkpoint only
once the policy's wall-clock floor (``floor_s``, ``run_scenario``'s
``checkpoint_floor_s``) has passed since the run started or last
checkpointed; the default floor of 0 checkpoints at every boundary.  A
boundary whose progress report raises :class:`CancelledRun` always leaves
its checkpoint, so a cancel or a daemon shutdown keeps the exact boundary it
stopped at whatever the floor, and only a crash can lose work: at most about
``floor_s`` wall seconds plus one step.

The stepping is invisible to results: a checkpointed, an uninterrupted and
an interrupted-then-resumed run produce byte-identical
:func:`~repro.scenario.runner.result_fingerprint` digests (the resume
oracles in ``tests/test_service_resume.py`` and
``tests/test_par_supervisor.py``).  Every write is temp-then-rename, so a
SIGKILL at any instant leaves a complete checkpoint.
``run_scenario(checkpoint_dir=D)`` continues from D's checkpoint when D
holds one for the same scenario; :func:`resume_run` is the strict form
behind ``gridfed run --resume``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.federation import Federation, FederationResult
from repro.scenario.runner import run_scenario
from repro.scenario.scenario import Scenario
from repro.service.snapshot import (
    SnapshotError,
    SnapshotMismatchError,
    load_par_state,
    load_snapshot,
    write_snapshot,
)
from repro.workload.job import JobStatus

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "SNAPSHOT_FILENAME",
    "PAR_STATE_FILENAME",
    "BoundaryPolicy",
    "CancelledRun",
    "RunProgress",
    "checked_interval",
    "snapshot_path",
    "resume_run",
]

#: Virtual-time seconds between checkpoints when the caller names none.
DEFAULT_CHECKPOINT_INTERVAL = 3600.0

#: The rolling snapshot of a serial run inside a checkpoint directory.
SNAPSHOT_FILENAME = "latest.ckpt"

#: The coordinator state of a sharded run's fleet checkpoint: written last,
#: it is the commit point naming the shard snapshots it pairs with.
PAR_STATE_FILENAME = "par-state.bin"


class CancelledRun(RuntimeError):
    """Raised by a progress callback to abort a run at a step boundary.

    The daemon uses this for cooperative cancellation: the last checkpoint
    stays on disk, so a cancelled run can even be resumed later.
    """


@dataclass(frozen=True)
class RunProgress:
    """One progress observation, reported at step boundaries and at completion."""

    sim_time: float
    horizon: float
    jobs_total: int
    jobs_completed: int
    events_processed: int
    pending_events: int
    #: True only for the final report, after the event queue drained.
    done: bool

    @property
    def percent(self) -> float:
        """Percent of the virtual-time horizon covered (100 when done)."""
        if self.done:
            return 100.0
        if self.horizon <= 0:
            return 0.0
        return max(0.0, min(100.0 * self.sim_time / self.horizon, 100.0))


ProgressCallback = Callable[[RunProgress], None]


def checked_interval(seconds: float) -> float:
    """``seconds`` as a checkpoint interval: finite and positive, or ValueError."""
    interval = float(seconds)
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError(
            f"checkpoint interval must be a finite positive number of seconds, "
            f"got {seconds}"
        )
    return interval


class BoundaryPolicy:
    """What a run does at its step boundaries (see the module docstring).

    ``checkpoint_every`` must be a finite, positive number of simulated
    seconds (``None`` = :data:`DEFAULT_CHECKPOINT_INTERVAL`); it places the
    boundaries.  ``floor_s`` (non-negative wall-clock seconds) is the least
    time between two checkpoints, counted from :meth:`start` and from the
    end of each write; a boundary that falls sooner skips its checkpoint
    unless its progress report cancels the run.  0 writes at every boundary.
    """

    def __init__(
        self,
        checkpoint_dir: Optional[str | os.PathLike] = None,
        checkpoint_every: Optional[float] = None,
        on_progress: Optional[ProgressCallback] = None,
        floor_s: float = 0.0,
    ):
        self.interval = checked_interval(
            DEFAULT_CHECKPOINT_INTERVAL if checkpoint_every is None else checkpoint_every
        )
        self.floor_s = float(floor_s)
        if not self.floor_s >= 0.0:
            raise ValueError(
                f"checkpoint floor must be a non-negative number of seconds, got {floor_s}"
            )
        self.checkpoint_dir = None if checkpoint_dir is None else os.fspath(checkpoint_dir)
        self.on_progress = on_progress
        #: Simulated time from which the next boundary acts.
        self.next_mark = self.interval
        #: Wall clock (``time.monotonic``) of the start or the last checkpoint.
        self.last_write = time.monotonic()

    def start(self, now: float) -> None:
        """Arm the cadence and the floor for a run (or restored run)
        beginning at ``now``."""
        self.next_mark = now + self.interval
        self.last_write = time.monotonic()

    def act(
        self,
        now: float,
        checkpoint: Callable[[], None],
        progress: Callable[[], RunProgress],
    ) -> None:
        """At a step boundary ``now`` on or past the next mark: checkpoint if
        the floor has passed, then report progress; a :class:`CancelledRun`
        from the report writes a skipped checkpoint before it propagates."""
        if now < self.next_mark:
            return
        self.next_mark = now + self.interval
        unwritten = self.checkpoint_dir is not None
        if unwritten and time.monotonic() - self.last_write >= self.floor_s:
            checkpoint()
            self.last_write = time.monotonic()
            unwritten = False
        if self.on_progress is not None:
            try:
                self.on_progress(progress())
            except CancelledRun:
                if unwritten:
                    checkpoint()
                raise

    def finish(self, result: FederationResult, sim_time: float) -> None:
        """Report the final, ``done`` observation of a finished run."""
        if self.on_progress is not None:
            self.on_progress(
                RunProgress(
                    sim_time=sim_time,
                    horizon=result.config.horizon,
                    jobs_total=len(result.jobs),
                    jobs_completed=len(result.completed_jobs()),
                    events_processed=result.events_processed,
                    pending_events=0,
                    done=True,
                )
            )


def snapshot_path(checkpoint_dir: str | os.PathLike) -> str:
    """The rolling snapshot file inside a checkpoint directory."""
    return os.path.join(os.fspath(checkpoint_dir), SNAPSHOT_FILENAME)


def _progress(federation: Federation) -> RunProgress:
    jobs = federation._all_jobs
    done = JobStatus.COMPLETED  # one enum lookup, not one per job
    return RunProgress(
        sim_time=federation.sim.now,
        horizon=federation.config.horizon,
        jobs_total=len(jobs),
        jobs_completed=sum(1 for job in jobs if job.status is done),
        events_processed=federation.sim.events_processed,
        pending_events=federation.sim.pending,
        done=False,
    )


def drive(
    federation: Federation, scenario: Scenario, policy: BoundaryPolicy
) -> FederationResult:
    """The serial chunk loop: advance a *started* federation to completion.

    Each chunk ends at the policy's next mark, so every chunk boundary
    acts.  Equivalent to ``federation.run()``'s remainder in every
    observable result.
    """
    path = None if policy.checkpoint_dir is None else snapshot_path(policy.checkpoint_dir)
    sim = federation.sim
    policy.start(sim.now)
    while sim.pending > 0:
        sim.run(until=policy.next_mark)
        if sim.pending == 0:
            break
        policy.act(
            sim.now,
            lambda: write_snapshot(path, federation, scenario),
            lambda: _progress(federation),
        )
    result = federation.collect()
    policy.finish(result, sim.now)
    return result


def continue_serial(
    checkpoint_dir: str | os.PathLike, scenario: Scenario
) -> Optional[Federation]:
    """The started federation a directory's snapshot holds for ``scenario``.

    ``None`` when there is no snapshot, or it is unreadable, from another
    format version or for another scenario: the caller then starts fresh.
    """
    try:
        _header, federation, _scenario = load_snapshot(
            snapshot_path(checkpoint_dir), expected_scenario=scenario
        )
    except SnapshotError:
        return None
    return federation


def resume_run(
    checkpoint_dir: str | os.PathLike,
    *,
    expected_scenario: Optional[Scenario] = None,
    checkpoint_every: Optional[float] = None,
    on_progress: Optional[ProgressCallback] = None,
) -> Tuple[FederationResult, Scenario]:
    """Resume the run checkpointed in ``checkpoint_dir`` to completion.

    The strict form of the continue rule: the checkpoint's own scenario is
    adopted, and a missing checkpoint, or one whose format version or
    scenario hash (against ``expected_scenario`` when given) does not match,
    raises :class:`~repro.service.snapshot.SnapshotError` (the mismatch
    cases :class:`~repro.service.snapshot.SnapshotMismatchError`) before
    anything runs.  A sharded run's fleet checkpoint continues on the
    sharded engine; a serial snapshot continues serially.  Returns the
    result with the adopted scenario, and keeps checkpointing into the same
    directory while it runs.
    """
    policy = BoundaryPolicy(checkpoint_dir, checkpoint_every, on_progress)
    directory = policy.checkpoint_dir
    state_path = os.path.join(directory, PAR_STATE_FILENAME)
    if os.path.exists(state_path):
        state = load_par_state(state_path, expected_scenario=expected_scenario)
        scenario = state["scenario"]
        if scenario.parallel != state["header"]["workers"]:
            raise SnapshotMismatchError(
                f"the fleet checkpoint in {directory!r} was not written for its "
                "scenario's worker count; resume it through the engine call that wrote it"
            )
        files = [os.path.join(directory, name) for name in state["shard_files"]]
        if not all(map(os.path.exists, files)):
            raise SnapshotError(f"the fleet checkpoint in {directory!r} is incomplete")
        result = run_scenario(
            scenario,
            checkpoint_dir=directory,
            checkpoint_every=policy.interval,
            on_progress=on_progress,
        )
        return result, scenario
    path = snapshot_path(directory)
    if not os.path.exists(path):
        raise SnapshotError(
            f"no snapshot to resume: {directory!r} holds neither "
            f"{SNAPSHOT_FILENAME} nor {PAR_STATE_FILENAME} — was the run "
            "started with --checkpoint/checkpoint_dir pointing here?"
        )
    _header, federation, scenario = load_snapshot(
        path, expected_scenario=expected_scenario
    )
    return drive(federation, scenario, policy), scenario
