"""Supervised parallel execution: heartbeats, restarts, graceful degradation.

The PR-8 parallel engine assumed cooperative workers: a killed, OOMed or
wedged shard process either surfaced as a raw ``EOFError`` or blocked the
coordinator forever.  This module is the supervision layer that makes the
multiprocess backend survive real process faults:

* every pipe receive carries a **deadline** (per-window wall budget scaled
  to the window size) and a liveness check — worker death and hangs raise a
  typed :class:`~repro.par.engine.WorkerFailure` naming the shard, last
  command and exit signal;
* because shards are barrier-synchronised, every window boundary is a
  **consistent global cut**: on a failure the supervisor kills the
  survivors and walks a bounded restart ladder —

  1. **restore** the fleet from the last fleet checkpoint (per-shard
     snapshots plus the coordinator's pending cross-shard traffic, written
     at the cadence of the run's
     :class:`~repro.service.checkpoint.BoundaryPolicy` when the run has a
     checkpoint directory) and resume at that boundary;
  2. without a usable checkpoint, **rebuild** the fleet from scratch — the
     shard build is a pure function of ``(scenario, workers, window)``, so
     a from-scratch re-run is itself a window-0 boundary restart;
  3. after ``max_restarts`` failed attempts, hand the scenario back for a
     **serial re-run** (graceful degradation; the caller annotates the
     result) — or, when degradation is disabled, raise
     :class:`ParallelRunFailed` carrying the last failure.

* restart attempts back off with the seeded capped-exponential-plus-jitter
  discipline of :mod:`repro.resilience` (a dedicated ``"supervisor/backoff"``
  stream, so supervision never perturbs the paper's RNG draws).

The parity contract is non-negotiable and tested: a run that survives any
number of injected worker kills produces a fingerprint byte-identical to
the undisturbed run, because restores happen only at boundary cuts and the
rebuilt shards replay exactly the traffic the checkpoint recorded.

The supervisor owns only that ladder and the fleet checkpoint's write,
restore and discard.  When to checkpoint, progress reports and
cancellation belong to the boundary policy, which the window loop
consults.  A fresh run over a directory that holds a usable fleet
checkpoint for the same scenario, worker count and window starts from it
(the continue rule).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.par.engine import (
    CoordinatorState,
    ParallelSimulator,
    ProcessShardHandle,
    WorkerFailure,
)
from repro.par.partition import WINDOW_FLOOR_S
from repro.par.shard import ShardHarvest
from repro.par.stats import ParallelStats
from repro.sim.rng import RandomStreams

__all__ = [
    "ParallelRunFailed",
    "ParallelSupervisor",
    "SupervisionConfig",
    "discard_fleet_checkpoint",
]


def _prune_snapshots(directory: str, keep: set) -> None:
    """Delete the shard snapshots in ``directory`` not named in ``keep``."""
    for name in os.listdir(directory):
        if name.startswith("shard-") and name.endswith(".snap") and name not in keep:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass


def discard_fleet_checkpoint(directory: str) -> None:
    """Delete the fleet checkpoint in ``directory``, commit point first, so
    an interruption part-way never leaves one naming deleted shards."""
    from repro.service.checkpoint import PAR_STATE_FILENAME

    state_path = os.path.join(directory, PAR_STATE_FILENAME)
    if os.path.exists(state_path):
        os.unlink(state_path)
        _prune_snapshots(directory, keep=set())


class ParallelRunFailed(RuntimeError):
    """The supervised run exhausted its restart budget.

    Carries the last :class:`WorkerFailure` (``failure``) and the
    accumulated :class:`ParallelStats` (``stats``) so the caller can either
    degrade to a serial re-run (annotating the result with the stats) or
    surface the failure — e.g. as a ``failed`` daemon job record.
    """

    def __init__(self, failure: WorkerFailure, stats: ParallelStats, attempts: int):
        self.failure = failure
        self.stats = stats
        self.attempts = attempts
        super().__init__(
            f"parallel run failed after {attempts} restart attempt(s); "
            f"last failure: {failure.summary()}"
        )


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs of the parallel-engine supervisor (all have safe defaults).

    The multiprocess backend always runs under the supervisor; these
    settings tune it, and ``supervision=None`` means ``SupervisionConfig()``.

    Attributes
    ----------
    step_timeout_s:
        Wall-clock budget for collecting one shard's window, *per window
        floor*: the effective deadline is
        ``step_timeout_s * max(1, window / WINDOW_FLOOR_S)`` — a larger
        barrier window means proportionally more events per step, so the
        deadline scales with it.
    start_timeout_s:
        Wall-clock budget for a worker's build + ready ack (shard builds
        replicate the full directory, so they dominate cold start).
    harvest_timeout_s:
        Wall-clock budget for one shard's harvest reply.
    checkpoint_timeout_s:
        Wall-clock budget for one shard's snapshot write.
    max_restarts:
        Restart attempts before the final rung of the ladder (degrade or
        raise).  ``0`` fails on the first worker fault.
    backoff_base_s, backoff_cap_s, backoff_jitter:
        The restart backoff: attempt ``n`` sleeps
        ``min(base * 2**(n-1), cap)`` wall seconds, stretched by up to
        ``jitter`` fractional uniform noise drawn from the dedicated
        ``"supervisor/backoff"`` stream of the scenario seed (the
        :mod:`repro.resilience` discipline — seeded, capped, jittered).
    degrade:
        Final rung: ``True`` lets the caller fall back to a serial re-run
        (annotated on the result); ``False`` raises
        :class:`ParallelRunFailed` instead (the daemon's choice — a failed
        record beats a silently-serial run that takes 8x the budget).
    close_grace_s:
        Per-rung join timeout of the teardown escalation ladder.
    chaos:
        Test/smoke fault-injection hook, called as
        ``chaos(phase, window_index, handles)`` with ``phase`` in
        ``("window", "harvest")``: a window's between dispatch and collect,
        where a real mid-window fault would land; the harvest's before its
        commands go out.
    """

    step_timeout_s: float = 120.0
    start_timeout_s: float = 600.0
    harvest_timeout_s: float = 600.0
    checkpoint_timeout_s: float = 600.0
    max_restarts: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.5
    degrade: bool = True
    close_grace_s: float = 5.0
    chaos: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.step_timeout_s <= 0:
            raise ValueError(f"step_timeout_s must be positive, got {self.step_timeout_s}")
        for name in ("start_timeout_s", "harvest_timeout_s", "checkpoint_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be non-negative, got {self.max_restarts}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(f"backoff_jitter must lie in [0, 1], got {self.backoff_jitter}")


class ParallelSupervisor:
    """Drives a :class:`ParallelSimulator`'s fleet under supervision."""

    def __init__(self, simulator: ParallelSimulator):
        config = simulator.supervision
        if config is None:
            config = SupervisionConfig()
        if not isinstance(config, SupervisionConfig):
            raise TypeError(
                "ParallelSupervisor requires simulator.supervision to be a "
                f"SupervisionConfig, got {type(config).__name__}"
            )
        if simulator.backend != "process":
            raise ValueError("supervision applies to the 'process' backend only")
        self.simulator = simulator
        self.config = config
        self.scenario = simulator.scenario
        self.workers = simulator.workers
        #: Dedicated seeded stream for restart-backoff jitter: supervision
        #: must never perturb the simulation's own RNG draws.
        self._rng = RandomStreams(self.scenario.seed).get("supervisor/backoff")
        self.failures: List[WorkerFailure] = []
        boundary = simulator.boundary
        #: Where fleet checkpoints go (``None``: restarts rebuild from scratch).
        self.checkpoint_dir = None if boundary is None else boundary.checkpoint_dir

    # ------------------------------------------------------------------ #
    # The restart ladder
    # ------------------------------------------------------------------ #
    def run(self) -> Tuple[List[ShardHarvest], ParallelStats]:
        sim = self.simulator
        config = self.config
        stats = sim._new_stats(supervised=True)
        step_timeout = config.step_timeout_s * max(1.0, sim.window / WINDOW_FLOOR_S)
        attempt = 0
        checkpoint = self._load_checkpoint()
        while True:
            handles: List[ProcessShardHandle] = []
            try:
                handles = sim._make_handles(
                    restore_paths=self._restore_paths(checkpoint)
                )
                for handle in handles:
                    handle.start(timeout=config.start_timeout_s)
                state = self._restore_state(checkpoint, stats)
                sim._drive(
                    handles,
                    state,
                    stats,
                    timeout=step_timeout,
                    checkpoint=functools.partial(
                        self._write_checkpoint, handles, state, stats
                    ),
                    chaos=config.chaos,
                )
                harvests = self._harvest_fleet(handles, stats)
                return harvests, stats
            except WorkerFailure as failure:
                self.failures.append(failure)
                stats.worker_failures += 1
                stats.failure_detail = failure.summary()
                # A failed barrier leaves survivors mid-protocol: kill the
                # whole fleet (the next attempt rebuilds a consistent one).
                for handle in handles:
                    handle.kill()
                handles = []
                if attempt >= config.max_restarts:
                    raise ParallelRunFailed(failure, stats, attempt) from failure
                attempt += 1
                stats.restarts += 1
                self._sleep_backoff(attempt)
                # Prefer the last boundary checkpoint; fall back to scratch.
                checkpoint = self._load_checkpoint()
            finally:
                for handle in handles:
                    handle.close(grace=config.close_grace_s)

    def _harvest_fleet(
        self, handles: Sequence[ProcessShardHandle], stats: ParallelStats
    ) -> List[ShardHarvest]:
        # The chaos hook fires before any harvest command is sent, so a
        # victim killed here cannot reply before the signal lands and the
        # kill always surfaces as a typed WorkerFailure.
        if self.config.chaos is not None:
            self.config.chaos("harvest", stats.windows, handles)
        for handle in handles:
            handle.harvest_begin()
        return [
            handle.harvest_finish(timeout=self.config.harvest_timeout_s)
            for handle in handles
        ]

    def _sleep_backoff(self, attempt: int) -> None:
        config = self.config
        delay = config.backoff_base_s * (2.0 ** (attempt - 1))
        delay = min(delay, config.backoff_cap_s)
        if config.backoff_jitter > 0.0:
            delay *= 1.0 + config.backoff_jitter * float(self._rng.random())
        if delay > 0.0:
            time.sleep(delay)

    # ------------------------------------------------------------------ #
    # Fleet checkpoints (per-shard snapshots + coordinator state)
    # ------------------------------------------------------------------ #
    def _state_path(self) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        from repro.service.checkpoint import PAR_STATE_FILENAME

        return os.path.join(self.checkpoint_dir, PAR_STATE_FILENAME)

    def _write_checkpoint(
        self,
        handles: Sequence[ProcessShardHandle],
        state: CoordinatorState,
        stats: ParallelStats,
    ) -> None:
        """Write one fleet checkpoint at the current consistent cut.

        Shard snapshots are written by the workers themselves (each owns its
        global id counters) under generation-stamped names; the coordinator
        state file is written **last** and names the shard files it pairs
        with, so a crash mid-checkpoint leaves the previous generation
        fully intact — the state file is the commit point.
        """
        from repro.service.snapshot import write_par_state

        directory = self.checkpoint_dir
        os.makedirs(directory, exist_ok=True)
        generation = stats.windows
        shard_files = [
            f"shard-{i}-w{generation:08d}.snap" for i in range(self.workers)
        ]
        for handle, name in zip(handles, shard_files):
            handle.snapshot_begin(os.path.join(directory, name))
        for handle in handles:
            handle.snapshot_finish(timeout=self.config.checkpoint_timeout_s)
        payload = {
            "start": state.start,
            "pending": {i: list(msgs) for i, msgs in state.pending.items()},
            "pending_loads": {
                i: list(loads) for i, loads in state.pending_loads.items()
            },
            "shard_next": list(state.shard_next),
            "shard_files": shard_files,
            "stats": {
                "windows": stats.windows,
                "cross_messages": stats.cross_messages,
                "cross_volume_mb": stats.cross_volume_mb,
                "load_updates": stats.load_updates,
                "worker_events": list(stats.worker_events),
            },
        }
        write_par_state(
            self._state_path(),
            scenario=self.scenario,
            workers=self.workers,
            window=self.simulator.window,
            payload=payload,
        )
        _prune_snapshots(directory, keep=set(shard_files))

    def _load_checkpoint(self) -> Optional[dict]:
        """The newest usable fleet checkpoint, or ``None`` (→ scratch).

        Anything wrong with the checkpoint — missing, corrupt, written for
        a different scenario/worker-count/window — degrades to a scratch
        restart rather than failing the run: the checkpoint is an
        optimisation of the restart, never a correctness requirement.
        """
        state_path = self._state_path()
        if state_path is None or not os.path.exists(state_path):
            return None
        from repro.service.snapshot import SnapshotError, load_par_state

        try:
            payload = load_par_state(
                state_path,
                expected_scenario=self.scenario,
                expected_workers=self.workers,
            )
        except SnapshotError:
            return None
        if payload["header"].get("window") != self.simulator.window:
            return None
        directory = self.checkpoint_dir
        for name in payload["shard_files"]:
            if not os.path.exists(os.path.join(directory, name)):
                return None
        return payload

    def _restore_paths(
        self, checkpoint: Optional[dict]
    ) -> Optional[List[Optional[str]]]:
        if checkpoint is None:
            return None
        return [
            os.path.join(self.checkpoint_dir, name) for name in checkpoint["shard_files"]
        ]

    def _restore_state(
        self, checkpoint: Optional[dict], stats: ParallelStats
    ) -> CoordinatorState:
        """Rebuild the coordinator cut (and its stats counters) to resume from.

        From scratch the per-life counters reset to zero — a restarted run
        must account its work exactly once, not once per attempt; the
        supervision counters (``restarts``/``worker_failures``) accumulate
        across attempts by design.
        """
        if checkpoint is None:
            stats.windows = 0
            stats.cross_messages = 0
            stats.cross_volume_mb = 0.0
            stats.load_updates = 0
            stats.worker_events = [0] * self.workers
            return CoordinatorState.initial(self.workers)
        saved = checkpoint["stats"]
        stats.windows = int(saved["windows"])
        stats.cross_messages = int(saved["cross_messages"])
        stats.cross_volume_mb = float(saved["cross_volume_mb"])
        stats.load_updates = int(saved["load_updates"])
        stats.worker_events = list(saved["worker_events"])
        return CoordinatorState(
            pending={int(i): list(msgs) for i, msgs in checkpoint["pending"].items()},
            pending_loads={
                int(i): list(loads)
                for i, loads in checkpoint["pending_loads"].items()
            },
            shard_next=list(checkpoint["shard_next"]),
            start=float(checkpoint["start"]),
        )
