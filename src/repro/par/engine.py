"""The parallel coordinator: barrier-windowed execution of the shards.

:class:`ParallelSimulator` drives N shard handles through lookahead windows:

1. every shard with pending input or a local event before the boundary runs
   its local event queue up to the window end
   (:meth:`~repro.par.shard.ShardFederation.step`) — all dispatched before
   any reply is awaited, so worker processes overlap; a shard with nothing
   to do is not stepped at all,
2. the coordinator barriers, exchanging outboxes (sorted into the canonical
   ``(deliver_time, origin_shard, origin_seq)`` merge order) and load
   snapshots (fanned out to every other shard),
3. when no traffic is pending, the next window is fast-forwarded to the
   earliest pending event; when nothing is pending anywhere, the run is over.

Two interchangeable backends execute the identical model:

* :class:`OracleShardHandle` — the **serial-parity oracle**: every shard
  lives in this process and the coordinator steps them one at a time;
* :class:`ProcessShardHandle` — one forked worker process per shard, driven
  over a :func:`multiprocessing.Pipe`.

A run is deterministic per backend *and* across backends: the only inputs a
shard sees are its (replicated, seeded) build and the byte-serialised
injections/loads at each barrier, which are identical either way.

Failure model (the supervision seam): every pipe receive can carry a
deadline and a liveness check, and any worker death, hang or worker-reported
error surfaces as a typed :class:`WorkerFailure` naming the shard, the last
command in flight and the exit signal — never a bare ``EOFError`` or an
infinite block.  Because shards are barrier-synchronised, every window
boundary is a consistent global cut: the run's
:class:`~repro.service.checkpoint.BoundaryPolicy` checkpoints, reports
progress and cancels there, and :class:`~repro.par.supervisor.
ParallelSupervisor` restarts a failed fleet from the last checkpoint (see
:mod:`repro.par.supervisor` for the restart ladder).  A worker that outlives
a killed coordinator sees its pipe reach EOF and exits.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as signal_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.par.router import CrossShardMessage, sort_injections
from repro.par.shard import ShardHarvest, StepReport, build_shard_federation
from repro.par.stats import ParallelStats
from repro.scenario.scenario import Scenario

__all__ = [
    "CoordinatorState",
    "OracleShardHandle",
    "ParallelSimulator",
    "ProcessShardHandle",
    "WorkerFailure",
]

#: Pipe poll granularity while a receive deadline is armed (wall seconds).
#: The poll returns the instant data arrives — this only bounds how often the
#: liveness/deadline checks run, not the latency of a healthy reply.
_POLL_INTERVAL_S = 0.1


class WorkerFailure(RuntimeError):
    """A shard worker process died, hung, or reported a failure.

    Replaces the bare ``EOFError`` / infinite ``recv`` block of an
    unsupervised pipe: the coordinator always learns *which* shard failed,
    *what* it was asked to do last, and *how* it failed.

    Attributes
    ----------
    shard_index:
        The shard whose worker failed.
    command:
        The last protocol command in flight (``"start"``, ``"step"``,
        ``"harvest"``, ``"snapshot"`` or ``"exit"``).
    kind:
        ``"crashed"`` — the process died (pipe EOF / reset, or liveness
        check found it dead); ``"hung"`` — no reply within the deadline but
        the process is still alive (e.g. SIGSTOP, livelock, swap death);
        ``"reported"`` — the worker itself sent an ``("error", …)`` reply
        (an exception inside the shard federation); ``"protocol"`` — the
        reply did not match the wire protocol.
    exitcode:
        The worker's exit code if it has one (``None`` while alive).
        Negative values are deaths by signal.
    signal_name:
        Symbolic name of the killing signal (``"SIGKILL"``, …) when the
        exit code records one.
    timeout_s:
        The deadline that expired, for ``"hung"`` failures.
    detail:
        Free-form diagnostic: the worker's traceback for ``"reported"``
        failures, the pipe error otherwise.
    """

    def __init__(
        self,
        shard_index: int,
        command: Optional[str],
        kind: str,
        *,
        exitcode: Optional[int] = None,
        signal_name: Optional[str] = None,
        timeout_s: Optional[float] = None,
        detail: Optional[str] = None,
    ):
        self.shard_index = shard_index
        self.command = command
        self.kind = kind
        self.exitcode = exitcode
        self.signal_name = signal_name
        self.timeout_s = timeout_s
        self.detail = detail
        super().__init__(self._compose())

    def _compose(self) -> str:
        what = {
            "crashed": "worker process died",
            "hung": "worker did not answer within the deadline",
            "reported": "worker reported an error",
            "protocol": "worker broke the wire protocol",
        }.get(self.kind, self.kind)
        parts = [f"shard {self.shard_index}: {what} (last command {self.command!r}"]
        if self.signal_name is not None:
            parts.append(f", killed by {self.signal_name}")
        elif self.exitcode is not None:
            parts.append(f", exit code {self.exitcode}")
        if self.timeout_s is not None:
            parts.append(f", deadline {self.timeout_s:.1f}s")
        parts.append(")")
        message = "".join(parts)
        if self.detail:
            message += f"\n{self.detail}"
        return message

    def summary(self) -> str:
        """The one-line form (no traceback) used in stats and job records."""
        return self._compose().split("\n", 1)[0]


class OracleShardHandle:
    """In-process shard: the serial-parity oracle backend.

    ``step_begin``/``step_finish`` mirror the process backend's pipelined
    protocol; here the work simply runs during ``step_finish``, in handle
    order — which is exactly the order the coordinator collects reports in,
    so both backends execute the identical model.
    """

    def __init__(self, scenario: Scenario, shard_index: int, workers: int, window: float):
        self.shard_index = shard_index
        self.federation = build_shard_federation(scenario, shard_index, workers, window)
        self._pending_step: Optional[Tuple[float, list, list]] = None

    def start(self, timeout: Optional[float] = None) -> None:
        self.federation.start()

    def step_begin(
        self,
        end: float,
        injections: Sequence[CrossShardMessage],
        loads: Sequence[Tuple[str, float]],
    ) -> None:
        self._pending_step = (end, list(injections), list(loads))

    def step_finish(self, timeout: Optional[float] = None) -> StepReport:
        end, injections, loads = self._pending_step
        self._pending_step = None
        return self.federation.step(end, injections, loads)

    def harvest_begin(self) -> None:
        pass

    def harvest_finish(self, timeout: Optional[float] = None) -> ShardHarvest:
        return self.federation.harvest()

    def close(self, grace: Optional[float] = None) -> None:
        pass

    def kill(self) -> None:
        pass


def _shard_worker(
    conn, coordinator_conn, scenario, shard_index, workers, window, profile_path, restore_path
) -> None:
    """Worker-process loop: build (or restore) the shard, then serve commands."""
    # The fork copied the coordinator's end of this worker's own pipe; while
    # it stays open here, recv() never sees EOF when the coordinator dies.
    coordinator_conn.close()
    profiler = None
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if restore_path is not None:
            # Window-boundary restart: adopt the snapshot wholesale — the
            # federation arrives started, mid-run, with this worker's global
            # job-id counter restored alongside it.
            from repro.service.snapshot import load_snapshot

            _, federation, _ = load_snapshot(restore_path, expected_scenario=scenario)
        else:
            federation = build_shard_federation(scenario, shard_index, workers, window)
            federation.start()
        conn.send(("ok", None))
        while True:
            command = conn.recv()
            if command[0] == "step":
                _, end, injections, loads = command
                conn.send(("ok", federation.step(end, injections, loads)))
            elif command[0] == "snapshot":
                # Written here, in the worker, so the payload carries this
                # process's own global job-id counter.
                from repro.service.snapshot import write_snapshot

                write_snapshot(command[1], federation, scenario)
                conn.send(("ok", None))
            elif command[0] == "progress":
                conn.send(("ok", federation.progress()))
            elif command[0] == "harvest":
                if profiler is not None:
                    profiler.disable()
                    profiler.dump_stats(profile_path)
                    profiler = None
                conn.send(("ok", federation.harvest()))
            elif command[0] == "exit":
                break
            else:  # pragma: no cover - protocol violation
                conn.send(("error", f"unknown command {command[0]!r}"))
                break
    except EOFError:  # pragma: no cover - coordinator died; nothing to tell
        pass
    except Exception:
        # Distinguishable from a crash: the worker is alive enough to say
        # *why* it failed, and the coordinator surfaces the traceback in a
        # typed WorkerFailure(kind="reported").
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - pipe gone too
            pass
    finally:
        conn.close()


class ProcessShardHandle:
    """One forked worker process per shard, driven over a pipe.

    Every receive can carry a wall-clock deadline; worker death, hangs and
    worker-reported errors all raise :class:`WorkerFailure` instead of the
    bare ``EOFError`` / infinite block of a raw pipe.
    """

    def __init__(
        self,
        scenario: Scenario,
        shard_index: int,
        workers: int,
        window: float,
        profile_path: Optional[str] = None,
        restore_path: Optional[str] = None,
    ):
        self.shard_index = shard_index
        self._last_command: Optional[str] = "start"
        context = multiprocessing.get_context()
        self._conn, worker_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_worker,
            args=(
                worker_conn,
                self._conn,
                scenario,
                shard_index,
                workers,
                window,
                profile_path,
                restore_path,
            ),
            daemon=True,
        )
        self._process.start()
        worker_conn.close()

    # ------------------------------------------------------------------ #
    # Failure plumbing
    # ------------------------------------------------------------------ #
    @property
    def pid(self) -> Optional[int]:
        """The worker's OS pid (fault-injection hooks and diagnostics)."""
        return self._process.pid

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def _failure(
        self,
        kind: str,
        *,
        detail: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> WorkerFailure:
        if kind == "crashed":
            # The pipe EOF can beat the process reap by an instant; a short
            # join makes the exit code (and so the killing signal) visible.
            self._process.join(timeout=1.0)
        exitcode = self._process.exitcode
        signal_name = None
        if exitcode is not None and exitcode < 0:
            try:
                signal_name = signal_module.Signals(-exitcode).name
            except ValueError:  # pragma: no cover - unnamed signal number
                signal_name = f"signal {-exitcode}"
        return WorkerFailure(
            self.shard_index,
            self._last_command,
            kind,
            exitcode=exitcode,
            signal_name=signal_name,
            timeout_s=timeout_s,
            detail=detail,
        )

    def _send(self, command: tuple) -> None:
        self._last_command = command[0]
        try:
            self._conn.send(command)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise self._failure("crashed", detail=f"pipe send failed: {exc!r}") from None

    def _recv(self, timeout: Optional[float] = None):
        """Receive one reply, with an optional deadline and liveness checks.

        ``timeout=None`` blocks without a deadline, but a dead worker is
        still detected (the pipe EOFs), so no receive can block on a crashed
        shard forever.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                ready = self._conn.poll(_POLL_INTERVAL_S)
            except (OSError, ValueError) as exc:
                raise self._failure("crashed", detail=f"pipe poll failed: {exc!r}") from None
            if ready:
                try:
                    message = self._conn.recv()
                except (EOFError, ConnectionResetError, OSError) as exc:
                    raise self._failure(
                        "crashed", detail=f"pipe closed mid-reply: {exc!r}"
                    ) from None
                break
            if not self._process.is_alive():
                # One last zero-timeout poll: the reply may have raced the
                # worker's own death into the pipe buffer.
                if self._conn.poll(0):
                    continue
                raise self._failure("crashed")
            if deadline is not None and time.monotonic() >= deadline:
                raise self._failure("hung", timeout_s=timeout)
        try:
            status, payload = message
        except (TypeError, ValueError):
            raise self._failure(
                "protocol", detail=f"malformed reply {message!r}"
            ) from None
        if status != "ok":
            return self._raise_reported(payload)
        return payload

    def _raise_reported(self, payload) -> None:
        raise self._failure("reported", detail=str(payload))

    # ------------------------------------------------------------------ #
    # Shard protocol
    # ------------------------------------------------------------------ #
    def start(self, timeout: Optional[float] = None) -> None:
        # The worker builds and starts eagerly; this waits for its ready ack.
        self._last_command = "start"
        self._recv(timeout=timeout)

    def step_begin(
        self,
        end: float,
        injections: Sequence[CrossShardMessage],
        loads: Sequence[Tuple[str, float]],
    ) -> None:
        """Dispatch the window without waiting: the shards of one window are
        independent by construction, so sending every command before reading
        any reply is what lets the worker processes actually overlap."""
        self._send(("step", end, list(injections), list(loads)))

    def step_finish(self, timeout: Optional[float] = None) -> StepReport:
        return self._recv(timeout=timeout)

    def snapshot_begin(self, path: str) -> None:
        """Ask the worker to write its shard snapshot to ``path``."""
        self._send(("snapshot", path))

    def snapshot_finish(self, timeout: Optional[float] = None) -> None:
        self._recv(timeout=timeout)

    def progress_begin(self) -> None:
        self._send(("progress",))

    def progress_finish(self, timeout: Optional[float] = None) -> Tuple[int, int, int, int]:
        return self._recv(timeout=timeout)

    def harvest_begin(self) -> None:
        self._send(("harvest",))

    def harvest_finish(self, timeout: Optional[float] = None) -> ShardHarvest:
        return self._recv(timeout=timeout)

    def close(self, grace: float = 5.0) -> None:
        """Tear the worker down; a wedged worker can never hang teardown.

        Escalation ladder: cooperative ``exit`` → timed join → ``SIGTERM`` →
        timed join → ``SIGKILL`` → join.  ``SIGKILL`` reaps even a
        ``SIGSTOP``-ped worker (stopped processes cannot be terminated
        cooperatively).  The pipe fd is always closed, even when a join
        times out at every rung.
        """
        try:
            try:
                self._conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass  # worker already dead: straight to reaping
            self._process.join(timeout=grace)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=grace)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
        finally:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def kill(self) -> None:
        """Immediately SIGKILL the worker (supervisor fleet teardown)."""
        try:
            if self._process.is_alive():
                self._process.kill()
            self._process.join(timeout=5.0)
        finally:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


@dataclass
class CoordinatorState:
    """The coordinator's complete inter-window state.

    Captured at a window boundary this is a consistent global cut: every
    shard is idle between commands, and all in-flight cross-shard traffic
    sits in ``pending``/``pending_loads``.  The supervisor checkpoints
    exactly this (plus the per-shard snapshots) and restarts the drive loop
    from it.
    """

    #: Cross-shard messages awaiting injection, per destination shard.
    pending: Dict[int, List[CrossShardMessage]]
    #: Load snapshots awaiting fan-out, per destination shard.
    pending_loads: Dict[int, List[Tuple[str, float]]]
    #: Last reported next-event time per shard (valid while skipped:
    #: nothing can enter an un-stepped shard's queue).
    shard_next: List[Optional[float]] = field(default_factory=list)
    #: Start of the next window to execute.
    start: float = 0.0

    @classmethod
    def initial(cls, workers: int) -> "CoordinatorState":
        return cls(
            pending={i: [] for i in range(workers)},
            pending_loads={i: [] for i in range(workers)},
            shard_next=[0.0] * workers,
            start=0.0,
        )


class ParallelSimulator:
    """Coordinates N shard handles through barrier lookahead windows."""

    def __init__(
        self,
        scenario: Scenario,
        workers: int,
        window: float,
        *,
        lookahead: float = 0.0,
        backend: str = "process",
        profile_dir: Optional[str] = None,
        supervision: Optional[object] = None,
        boundary: Optional[object] = None,
    ):
        if workers < 2:
            raise ValueError(f"parallel execution needs >= 2 workers, got {workers}")
        if backend not in ("process", "oracle"):
            raise ValueError(f"unknown parallel backend {backend!r}")
        self.scenario = scenario
        self.workers = workers
        self.window = window
        self.lookahead = lookahead
        self.backend = backend
        self.profile_dir = profile_dir
        #: The :class:`~repro.par.supervisor.SupervisionConfig` the process
        #: backend runs under (``None`` = the defaults); the oracle backend
        #: has no processes to supervise and ignores it.
        self.supervision = supervision
        #: The run's :class:`~repro.service.checkpoint.BoundaryPolicy`
        #: (``None`` = no checkpoints, progress or cancellation).  It needs
        #: worker processes: in-process shards share one set of global id
        #: counters, which a shard snapshot cannot restore.
        if boundary is not None and backend != "process":
            raise ValueError("checkpoints, progress and cancellation need the 'process' backend")
        self.boundary = boundary

    def _new_stats(self, supervised: bool = False) -> ParallelStats:
        return ParallelStats(
            requested_workers=self.workers,
            workers=self.workers,
            backend=self.backend,
            window_s=self.window,
            lookahead_s=self.lookahead,
            worker_events=[0] * self.workers,
            supervised=supervised,
        )

    def _make_handles(
        self, restore_paths: Optional[Sequence[Optional[str]]] = None
    ) -> List[object]:
        if self.backend == "oracle":
            return [
                OracleShardHandle(self.scenario, i, self.workers, self.window)
                for i in range(self.workers)
            ]
        handles = []
        for i in range(self.workers):
            profile_path = (
                os.path.join(self.profile_dir, f"shard-{i}.pstats")
                if self.profile_dir is not None
                else None
            )
            handles.append(
                ProcessShardHandle(
                    self.scenario,
                    i,
                    self.workers,
                    self.window,
                    profile_path,
                    restore_paths[i] if restore_paths is not None else None,
                )
            )
        return handles

    def run(self) -> Tuple[List[ShardHarvest], ParallelStats]:
        """Execute the sharded run to global quiescence and harvest.

        The multiprocess backend always runs under
        :class:`~repro.par.supervisor.ParallelSupervisor`: deadlines, crash
        detection, window-boundary restarts and bounded degradation.  The
        in-process oracle backend takes :meth:`_run_plain`.  Both produce
        the same results.
        """
        if self.backend == "process":
            # Imported lazily: the supervisor module imports this one.
            from repro.par.supervisor import ParallelSupervisor

            return ParallelSupervisor(self).run()
        return self._run_plain()

    def _run_plain(self) -> Tuple[List[ShardHarvest], ParallelStats]:
        """The oracle backend's path: in-process shards, so no deadlines or restarts."""
        stats = self._new_stats()
        handles = self._make_handles()
        try:
            for handle in handles:
                handle.start()
            state = CoordinatorState.initial(self.workers)
            self._drive(handles, state, stats)
            for handle in handles:
                handle.harvest_begin()
            harvests = [handle.harvest_finish() for handle in handles]
        finally:
            for handle in handles:
                handle.close()
        return harvests, stats

    def _progress(self, handles, state: CoordinatorState, timeout=None):
        """The fleet's :class:`~repro.service.checkpoint.RunProgress` at a
        cut: each shard counts its own jobs and events."""
        from repro.service.checkpoint import RunProgress

        for handle in handles:
            handle.progress_begin()
        counts = [handle.progress_finish(timeout=timeout) for handle in handles]
        jobs, completed, fired, pending = (sum(column) for column in zip(*counts))
        return RunProgress(
            sim_time=state.start,
            horizon=self.scenario.to_config().horizon,
            jobs_total=jobs,
            jobs_completed=completed,
            events_processed=fired,
            # Cross-shard messages wait in the coordinator between windows.
            pending_events=pending + sum(map(len, state.pending.values())),
            done=False,
        )

    def _drive(
        self,
        handles: Sequence[object],
        state: CoordinatorState,
        stats: ParallelStats,
        *,
        timeout: Optional[float] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        chaos: Optional[Callable] = None,
    ) -> None:
        """Run barrier windows from ``state`` until global quiescence.

        Mutates ``state`` in place; after every barrier (stats updated,
        pending traffic routed, next window start chosen) ``state`` is a
        consistent global cut, handed to the boundary policy — which, once
        a mark has passed, writes a fleet checkpoint through ``checkpoint``
        (the supervisor's) as its wall-clock floor allows, then reports
        progress and may cancel the run.  ``timeout`` is the
        wall-clock deadline per window collect; ``chaos`` is a fault-
        injection hook (tests, smoke) called between dispatch and collect.
        """
        boundary = self.boundary
        if boundary is not None:
            boundary.start(state.start)
        workers = self.workers
        window = self.window
        pending = state.pending
        pending_loads = state.pending_loads
        shard_next = state.shard_next
        while True:
            end = state.start + window
            # Phase 1: dispatch every shard's window, waiting on nobody —
            # the shards of one window are independent, so this is where
            # the worker processes genuinely overlap.  A shard with no
            # input and no event before the boundary is not stepped at
            # all (its state cannot change without one of the three).
            stepped: List[bool] = [False] * workers
            for i, handle in enumerate(handles):
                injections = sort_injections(pending[i])
                pending[i] = []
                loads, pending_loads[i] = pending_loads[i], []
                idle = (
                    not injections
                    and not loads
                    and (shard_next[i] is None or shard_next[i] >= end)
                )
                if idle:
                    continue
                stepped[i] = True
                handle.step_begin(end, injections, loads)
            if chaos is not None:
                chaos("window", stats.windows, handles)
            # Phase 2: collect reports in shard order (determinism: the
            # merge order below never depends on worker finish order).
            reports: List[Optional[StepReport]] = [
                handle.step_finish(timeout=timeout) if stepped[i] else None
                for i, handle in enumerate(handles)
            ]
            stats.windows += 1
            for i, report in enumerate(reports):
                if report is None:
                    continue
                shard_next[i] = report.next_time
                stats.worker_events[i] += report.fired
                for msg in report.outbox:
                    stats.cross_messages += 1
                    stats.cross_volume_mb += len(msg.payload) / 1e6
                    pending[msg.dest_shard].append(msg)
                if report.loads:
                    for j in range(workers):
                        if j != i:
                            pending_loads[j].extend(report.loads)
                            stats.load_updates += len(report.loads)
            next_times = [t for t in shard_next if t is not None]
            have_traffic = any(pending.values())
            if not have_traffic and not next_times:
                return
            if have_traffic:
                # Messages quantised onto the very next boundary: the
                # following window must be the adjacent one.
                state.start = end
            else:
                # Globally idle until the earliest pending event: fast
                # forward, keeping boundaries on the window grid so
                # deliver-time arithmetic stays exact.
                earliest = min(next_times)
                state.start = max(end, int(earliest // window) * window)
            if boundary is not None:
                boundary.act(
                    state.start,
                    checkpoint,
                    lambda: self._progress(handles, state, timeout),
                )
