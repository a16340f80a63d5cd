"""Checkpointed execution: chunked runs, periodic snapshots, exact resume.

The driver advances a started federation in bounded chunks of virtual time
(``sim.run(until=...)``) and writes an atomic snapshot between chunks.  The
chunking is invisible to results: no events are injected, the sequence
counter is untouched, and the clock only ever advances to timestamps the
run would have reached anyway — so a checkpointed run, an uninterrupted run
and an interrupted-then-resumed run all produce byte-identical
:func:`~repro.scenario.runner.result_fingerprint` digests (the resume
oracle pinned by ``tests/test_service_resume.py`` across all five golden
experiment shapes).

The checkpoint directory holds one rolling ``latest.ckpt``; every write is
temp-then-rename, so a SIGKILL at any instant leaves a complete snapshot
from which :func:`resume_run` continues.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.federation import Federation, FederationResult
from repro.scenario.scenario import Scenario
from repro.service.snapshot import (
    SnapshotError,
    load_snapshot,
    write_snapshot,
)
from repro.workload.job import JobStatus

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "SNAPSHOT_FILENAME",
    "CancelledRun",
    "RunProgress",
    "snapshot_path",
    "run_checkpointed",
    "resume_run",
]

#: Virtual-time seconds between snapshots when the caller names none.
DEFAULT_CHECKPOINT_INTERVAL = 3600.0

#: The rolling snapshot inside a checkpoint directory.
SNAPSHOT_FILENAME = "latest.ckpt"


class CancelledRun(RuntimeError):
    """Raised by a progress callback to abort a run between chunks.

    The daemon uses this for cooperative cancellation: the last snapshot
    stays on disk, so a cancelled run can even be resumed later.
    """


@dataclass(frozen=True)
class RunProgress:
    """One progress observation, reported between chunks and at completion."""

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


def snapshot_path(checkpoint_dir: str | os.PathLike) -> str:
    """The rolling snapshot file inside a checkpoint directory."""
    return os.path.join(os.fspath(checkpoint_dir), SNAPSHOT_FILENAME)


def _progress(federation: Federation, done: bool) -> RunProgress:
    jobs = federation._all_jobs
    return RunProgress(
        sim_time=federation.sim.now,
        horizon=federation.config.horizon,
        jobs_total=len(jobs),
        jobs_completed=sum(1 for job in jobs if job.status is JobStatus.COMPLETED),
        events_processed=federation.sim.events_processed,
        pending_events=federation.sim.pending,
        done=done,
    )


def _drive(
    federation: Federation,
    scenario: Scenario,
    checkpoint_dir: Optional[str | os.PathLike],
    checkpoint_every: Optional[float],
    on_progress: Optional[ProgressCallback],
) -> FederationResult:
    """Advance a *started* federation chunk by chunk until the queue drains."""
    interval = (
        DEFAULT_CHECKPOINT_INTERVAL if checkpoint_every is None else checkpoint_every
    )
    if interval <= 0:
        raise ValueError(f"checkpoint interval must be positive, got {interval}")
    path = snapshot_path(checkpoint_dir) if checkpoint_dir is not None else None
    sim = federation.sim
    while sim.pending > 0:
        sim.run(until=sim.now + interval)
        if sim.pending == 0:
            break
        if path is not None:
            write_snapshot(path, federation, scenario)
        if on_progress is not None:
            on_progress(_progress(federation, done=False))
    result = federation.collect()
    if on_progress is not None:
        on_progress(_progress(federation, done=True))
    return result


def run_checkpointed(
    federation: Federation,
    scenario: Scenario,
    *,
    checkpoint_dir: Optional[str | os.PathLike] = None,
    checkpoint_every: Optional[float] = None,
    on_progress: Optional[ProgressCallback] = None,
) -> FederationResult:
    """Run a freshly built federation with periodic snapshots and progress.

    Equivalent to ``federation.run()`` in every observable result — the
    chunked clock advance is invisible — plus a snapshot in
    ``checkpoint_dir`` every ``checkpoint_every`` virtual seconds and an
    ``on_progress`` observation after every chunk.
    """
    federation.start()
    return _drive(federation, scenario, checkpoint_dir, checkpoint_every, on_progress)


def resume_run(
    checkpoint_dir: str | os.PathLike,
    *,
    expected_scenario: Optional[Scenario] = None,
    checkpoint_every: Optional[float] = None,
    on_progress: Optional[ProgressCallback] = None,
) -> Tuple[FederationResult, Scenario]:
    """Resume from the latest snapshot in ``checkpoint_dir`` to completion.

    Verifies the snapshot's format version and scenario hash (against
    ``expected_scenario`` when given) before unpickling anything; a mismatch
    raises :class:`~repro.service.snapshot.SnapshotMismatchError` instead of
    corrupting the run.  Returns the result together with the snapshot's own
    scenario, and keeps checkpointing into the same directory while it runs.
    """
    path = snapshot_path(checkpoint_dir)
    if not os.path.exists(path):
        raise SnapshotError(
            f"no snapshot to resume: {path!r} does not exist — was the run "
            "started with --checkpoint/checkpoint_dir pointing here?"
        )
    _header, federation, scenario = load_snapshot(
        path, expected_scenario=expected_scenario
    )
    result = _drive(federation, scenario, checkpoint_dir, checkpoint_every, on_progress)
    return result, scenario
