"""Supervised parallel execution under real process faults.

Four layers of guarantees are pinned here:

* **Typed failures** — without supervision semantics in play, a killed,
  stopped or misbehaving worker surfaces as a :class:`WorkerFailure` naming
  the shard, last command and exit signal (never a bare ``EOFError`` or an
  infinite block), and teardown of a wedged worker always terminates.
* **Kill parity** — the non-negotiable supervision contract: a run that
  survives injected ``SIGKILL``s (mid-window and during harvest) and
  ``SIGSTOP`` hangs produces a fingerprint byte-identical to the
  undisturbed run, at 2, 4 and 8 workers, with and without fleet
  checkpoints.
* **Bounded degradation** — a persistent fault exhausts the restart budget
  and degrades to a serial re-run that matches the plain serial result
  (CLI semantics), or raises :class:`ParallelRunFailed` (daemon semantics:
  a ``failed`` job record carrying the worker-failure detail).
* **One driver** — ``run_scenario``'s checkpoint, progress and cancel hooks
  work for sharded runs as for serial ones: an interrupted sharded run
  resumes byte-identically, daemon submissions report progress and cancel
  cleanly, and no worker outlives a SIGKILLed coordinator.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.par.engine import ParallelSimulator, WorkerFailure
from repro.par.runner import try_parallel_run
from repro.par.supervisor import ParallelRunFailed, SupervisionConfig
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.service.checkpoint import CancelledRun, resume_run
from repro.service.snapshot import (
    PAR_CHECKPOINT_VERSION,
    SnapshotError,
    SnapshotMismatchError,
    load_par_state,
    write_par_state,
)

#: Eligible shape: active economy federation on the two-tier WAN, thinned
#: hard so every fault test stays in seconds (same shape the hypothesis
#: parity sweep uses).
SCENARIO_FIELDS = dict(
    mode="economy",
    oft_fraction=0.3,
    workload="synthetic",
    horizon=6 * 3600.0,
    thin=60,
    seed=42,
    transport="two-tier-wan",
)
SCENARIO = Scenario(**SCENARIO_FIELDS)

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def undisturbed():
    """Fingerprint of the fault-free parallel run, per worker count."""
    cache = {}

    def fingerprint(workers: int) -> str:
        if workers not in cache:
            result, stats = try_parallel_run(SCENARIO, workers=workers)
            assert stats.ran_parallel
            cache[workers] = result_fingerprint(result)
        return cache[workers]

    return fingerprint


def kill_once(victim: int, at_window: int, sig=signal.SIGKILL, phase="window"):
    """A chaos hook that signals one worker once, at one point of the run."""

    def chaos(chaos_phase, window, handles):
        if chaos.fired or chaos_phase != phase:
            return
        if phase == "window" and window != at_window:
            return
        chaos.fired = True
        os.kill(handles[victim % len(handles)].pid, sig)

    chaos.fired = False
    return chaos


#: Fleet-checkpoint cadence of the checkpointed tests: eight 60 s windows.
CHECKPOINT_EVERY_S = 480.0


def kill_after_checkpoints(count: int):
    """A chaos hook that SIGKILLs shard 0 two windows after the ``count``-th
    fleet checkpoint; its ``on_progress`` records the window count at each
    checkpoint (progress is reported right after the checkpoint commits)."""

    def chaos(phase, window, handles):
        if phase != "window":
            return
        chaos.windows_seen.append(window)
        if (
            not chaos.fired
            and len(chaos.checkpoints) >= count
            and window == chaos.checkpoints[-1] + 2
        ):
            chaos.fired = True
            chaos.checkpoints_at_kill = list(chaos.checkpoints)
            os.kill(handles[0].pid, signal.SIGKILL)

    def on_progress(progress):
        if not progress.done:
            # The boundary after window w is a cut at w + 1 windows run.
            chaos.checkpoints.append(chaos.windows_seen[-1] + 1)

    chaos.fired = False
    chaos.windows_seen = []
    chaos.checkpoints = []
    chaos.checkpoints_at_kill = []
    chaos.on_progress = on_progress
    return chaos


class TestTypedFailures:
    """Satellite: every receive path raises WorkerFailure, never EOFError."""

    def _simulator(self, supervision=None):
        return ParallelSimulator(SCENARIO, 2, 60.0, supervision=supervision)

    def _started_handles(self, simulator):
        handles = simulator._make_handles()
        for handle in handles:
            handle.start(timeout=120.0)
        return handles

    def test_sigkill_surfaces_as_typed_crash(self):
        simulator = self._simulator()
        handles = self._started_handles(simulator)
        try:
            os.kill(handles[1].pid, signal.SIGKILL)
            handles[1]._process.join(timeout=10.0)
            # Depending on pipe-buffer timing either the send or the receive
            # detects the death — both must be the typed failure.
            with pytest.raises(WorkerFailure) as excinfo:
                handles[1].step_begin(60.0, [], [])
                handles[1].step_finish(timeout=30.0)
            failure = excinfo.value
            assert failure.kind == "crashed"
            assert failure.shard_index == 1
            assert failure.command == "step"
            assert failure.signal_name == "SIGKILL"
            assert "SIGKILL" in str(failure)
        finally:
            for handle in handles:
                handle.kill()

    def test_sigstop_past_deadline_surfaces_as_hang(self):
        simulator = self._simulator()
        handles = self._started_handles(simulator)
        try:
            os.kill(handles[0].pid, signal.SIGSTOP)
            handles[0].step_begin(60.0, [], [])
            began = time.monotonic()
            with pytest.raises(WorkerFailure) as excinfo:
                handles[0].step_finish(timeout=1.0)
            assert time.monotonic() - began < 10.0
            failure = excinfo.value
            assert failure.kind == "hung"
            assert failure.shard_index == 0
            assert failure.timeout_s == 1.0
            # Still alive: that is precisely what distinguishes a hang.
            assert handles[0].is_alive()
        finally:
            for handle in handles:
                handle.kill()

    def test_worker_reported_error_carries_traceback(self):
        simulator = self._simulator()
        handles = self._started_handles(simulator)
        try:
            # An undecodable injection makes the shard federation itself
            # raise: the worker answers ("error", traceback), not death.
            handles[0].step_begin(60.0, ["not a CrossShardMessage"], [])
            with pytest.raises(WorkerFailure) as excinfo:
                handles[0].step_finish(timeout=60.0)
            assert excinfo.value.kind in ("reported", "crashed")
            if excinfo.value.kind == "reported":
                assert "Traceback" in excinfo.value.detail
        finally:
            for handle in handles:
                handle.kill()

    def test_protocol_violation_is_reported_not_eof(self):
        simulator = self._simulator()
        handles = self._started_handles(simulator)
        try:
            handles[0]._send(("no-such-command",))
            with pytest.raises(WorkerFailure) as excinfo:
                handles[0]._recv(timeout=30.0)
            assert excinfo.value.kind == "reported"
            assert "unknown command" in excinfo.value.detail
        finally:
            for handle in handles:
                handle.kill()

    def test_close_escalation_reaps_a_stopped_worker(self):
        """Satellite: teardown of a SIGSTOPped (unkillable-by-SIGTERM)
        worker escalates to SIGKILL and never hangs."""
        simulator = self._simulator()
        handles = self._started_handles(simulator)
        os.kill(handles[0].pid, signal.SIGSTOP)
        began = time.monotonic()
        for handle in handles:
            handle.close(grace=0.5)
        assert time.monotonic() - began < 30.0
        assert not handles[0].is_alive()
        assert not handles[1].is_alive()


class TestKillParity:
    """The supervision contract: injected faults never change a byte."""

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_sigkill_mid_window_recovers_byte_identical(self, workers, undisturbed):
        chaos = kill_once(victim=workers - 1, at_window=2)
        result, stats = try_parallel_run(
            SCENARIO, workers=workers, supervision=SupervisionConfig(chaos=chaos)
        )
        assert chaos.fired
        assert stats.restarts >= 1
        assert stats.worker_failures >= 1
        assert stats.supervised
        assert result_fingerprint(result) == undisturbed(workers)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_sigstop_hang_recovers_byte_identical(self, workers, undisturbed):
        chaos = kill_once(victim=0, at_window=3, sig=signal.SIGSTOP)
        result, stats = try_parallel_run(
            SCENARIO,
            workers=workers,
            supervision=SupervisionConfig(chaos=chaos, step_timeout_s=2.0),
        )
        assert chaos.fired
        assert stats.restarts >= 1
        assert "deadline" in stats.failure_detail
        assert result_fingerprint(result) == undisturbed(workers)

    def test_sigkill_during_harvest_recovers_byte_identical(self, undisturbed):
        chaos = kill_once(victim=1, at_window=0, phase="harvest")
        result, stats = try_parallel_run(
            SCENARIO, workers=2, supervision=SupervisionConfig(chaos=chaos)
        )
        assert chaos.fired
        assert stats.restarts >= 1
        assert result_fingerprint(result) == undisturbed(2)

    def test_two_kills_recover_byte_identical(self, undisturbed):
        def chaos(phase, window, handles):
            if phase == "window" and window in (1, 5) and chaos.fired < 2:
                chaos.fired += 1
                os.kill(handles[window % len(handles)].pid, signal.SIGKILL)

        chaos.fired = 0
        result, stats = try_parallel_run(
            SCENARIO, workers=2, supervision=SupervisionConfig(chaos=chaos)
        )
        assert stats.restarts == 2
        assert stats.worker_failures == 2
        assert result_fingerprint(result) == undisturbed(2)

    def test_checkpointed_restart_resumes_from_boundary(self, tmp_path, undisturbed):
        """With fleet checkpoints on, a late kill restarts from the last
        checkpoint (not from scratch) and still matches byte-for-byte."""
        chaos = kill_after_checkpoints(2)
        result = run_scenario(
            SCENARIO.replace(parallel=2),
            checkpoint_dir=tmp_path,
            checkpoint_every=CHECKPOINT_EVERY_S,
            on_progress=chaos.on_progress,
            supervision=SupervisionConfig(chaos=chaos),
        )
        stats = result.parallel
        assert chaos.fired
        assert stats.restarts == 1
        assert result_fingerprint(result) == undisturbed(2)
        # The commit point and the current generation's shard files remain.
        names = sorted(os.listdir(tmp_path))
        assert "par-state.bin" in names
        assert sum(name.endswith(".snap") for name in names) == 2

    def test_checkpoint_resume_skips_completed_windows(self, tmp_path, undisturbed):
        """The restarted attempt begins at the last fleet checkpoint, not at
        window 0: same bytes, fewer windows executed."""
        chaos = kill_after_checkpoints(2)
        result = run_scenario(
            SCENARIO.replace(parallel=2),
            checkpoint_dir=tmp_path,
            checkpoint_every=CHECKPOINT_EVERY_S,
            on_progress=chaos.on_progress,
            supervision=SupervisionConfig(chaos=chaos),
        )
        assert result_fingerprint(result) == undisturbed(2)
        # SIGKILL is asynchronous: the victim may flush its reply before
        # dying, surfacing the failure a window later, so locate the restart
        # as the one point where the window sequence stops advancing.
        seen = chaos.windows_seen
        restart_points = [
            after for before, after in zip(seen, seen[1:]) if after <= before
        ]
        last_checkpoint = chaos.checkpoints_at_kill[-1]
        assert last_checkpoint > 0
        assert restart_points == [last_checkpoint]

    def test_supervised_matches_in_process_oracle_without_faults(self):
        """Fault-free, the supervisor restarts nothing, and its run matches
        the in-process oracle backend, which has no supervisor, byte for byte."""
        oracle, oracle_stats = try_parallel_run(SCENARIO, workers=2, backend="oracle")
        supervised, stats = try_parallel_run(SCENARIO, workers=2)
        assert not oracle_stats.supervised
        assert stats.supervised
        assert stats.restarts == 0
        assert stats.worker_failures == 0
        assert result_fingerprint(supervised) == result_fingerprint(oracle)


class TestProcessBackendAlwaysSupervised:
    """The process backend has one path, the supervised one; ``None`` means
    the default :class:`SupervisionConfig`.  The in-process oracle backend
    has no worker processes to supervise."""

    @pytest.mark.parametrize("backend, supervised", [("process", True), ("oracle", False)])
    def test_default_supervision_by_backend(self, backend, supervised):
        simulator = ParallelSimulator(SCENARIO, 2, 60.0, backend=backend)
        assert simulator.supervision is None
        _, stats = simulator.run()
        assert stats.supervised is supervised


class TestDegradation:
    """The final rung: bounded attempts, then serial — or a typed raise."""

    @staticmethod
    def persistent_fault():
        def chaos(phase, window, handles):
            if phase == "window" and window == 1:
                os.kill(handles[0].pid, signal.SIGKILL)

        return chaos

    def test_exhausted_restarts_degrade_to_matching_serial(self):
        serial = result_fingerprint(run_scenario(SCENARIO))
        config = SupervisionConfig(chaos=self.persistent_fault(), max_restarts=1)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            result = run_scenario(SCENARIO.replace(parallel=2), supervision=config)
        stats = result.parallel
        assert stats is not None
        assert stats.degraded
        assert not stats.ran_parallel
        assert stats.restarts == 1
        assert stats.worker_failures == 2
        assert "SIGKILL" in stats.failure_detail
        assert "degraded" in stats.describe()
        assert result_fingerprint(result) == serial

    def test_degraded_run_resumes_its_serial_checkpoint(self, tmp_path):
        """A degraded run discards its fleet checkpoint: resuming its
        interrupted serial re-run reproduces the serial digest."""
        serial = result_fingerprint(run_scenario(SCENARIO))
        killed = set()

        def chaos(phase, window, handles):
            # Every fleet dies once a fleet checkpoint exists.
            pid = handles[0].pid
            if phase == "window" and (tmp_path / "par-state.bin").exists():
                if pid not in killed:
                    killed.add(pid)
                    os.kill(pid, signal.SIGKILL)

        def cancel_serial(progress):
            if len(killed) == 2:  # both attempts died: the serial re-run reports
                raise CancelledRun("interrupted by test")

        config = SupervisionConfig(chaos=chaos, max_restarts=1)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            with pytest.raises(CancelledRun):
                run_scenario(
                    SCENARIO.replace(parallel=2),
                    checkpoint_dir=tmp_path,
                    checkpoint_every=CHECKPOINT_EVERY_S,
                    on_progress=cancel_serial,
                    supervision=config,
                )
        assert len(killed) == 2
        assert os.listdir(tmp_path) == ["latest.ckpt"]
        result, adopted = resume_run(tmp_path)
        assert adopted == SCENARIO.replace(parallel=2)
        assert result.parallel is None
        assert result_fingerprint(result) == serial

    def test_degrade_disabled_raises_parallel_run_failed(self):
        config = SupervisionConfig(
            chaos=self.persistent_fault(), max_restarts=1, degrade=False
        )
        with pytest.raises(ParallelRunFailed) as excinfo:
            try_parallel_run(SCENARIO, workers=2, supervision=config)
        failed = excinfo.value
        assert isinstance(failed.failure, WorkerFailure)
        assert failed.failure.signal_name == "SIGKILL"
        assert failed.attempts == 1
        assert failed.stats.worker_failures == 2

    def test_zero_restarts_fail_immediately(self):
        config = SupervisionConfig(
            chaos=kill_once(victim=0, at_window=1), max_restarts=0, degrade=False
        )
        with pytest.raises(ParallelRunFailed) as excinfo:
            try_parallel_run(SCENARIO, workers=2, supervision=config)
        assert excinfo.value.stats.restarts == 0


class TestParStateGuards:
    """The coordinator-state file refuses mismatched or corrupt content."""

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "par-state.bin")
        payload = {"start": 120.0, "shard_files": ["a", "b"]}
        write_par_state(path, scenario=SCENARIO, workers=2, window=60.0, payload=payload)
        loaded = load_par_state(path, expected_scenario=SCENARIO, expected_workers=2)
        assert loaded["start"] == 120.0
        assert loaded["shard_files"] == ["a", "b"]
        assert loaded["header"]["workers"] == 2

    def test_worker_count_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "par-state.bin")
        write_par_state(path, scenario=SCENARIO, workers=2, window=60.0, payload={})
        with pytest.raises(SnapshotMismatchError):
            load_par_state(path, expected_scenario=SCENARIO, expected_workers=4)

    def test_scenario_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "par-state.bin")
        write_par_state(path, scenario=SCENARIO, workers=2, window=60.0, payload={})
        with pytest.raises(SnapshotMismatchError):
            load_par_state(
                path,
                expected_scenario=SCENARIO.replace(seed=7),
                expected_workers=2,
            )

    def test_previous_checkpoint_version_refused(self, tmp_path):
        """A file in the previous layout is refused by its version before its
        payload is read: here the payload is garbage, which would otherwise
        surface as a corrupt-payload error."""
        path = tmp_path / "par-state.bin"
        write_par_state(str(path), scenario=SCENARIO, workers=2, window=60.0, payload={})
        current = b'"version": %d' % PAR_CHECKPOINT_VERSION
        previous = b'"version": %d' % (PAR_CHECKPOINT_VERSION - 1)
        # The frame is magic | 4-byte header length | JSON header | pickle;
        # re-frame the header, whose length changes with the version digits.
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1 + 4
        header = raw[start : start + int.from_bytes(raw[start - 4 : start], "big")]
        assert header.count(current) == 1
        header = header.replace(current, previous)
        path.write_bytes(
            raw[: start - 4] + len(header).to_bytes(4, "big") + header + b"not a pickle"
        )
        with pytest.raises(SnapshotMismatchError) as excinfo:
            load_par_state(str(path), expected_scenario=SCENARIO, expected_workers=2)
        message = str(excinfo.value)
        assert str(PAR_CHECKPOINT_VERSION - 1) in message
        assert str(PAR_CHECKPOINT_VERSION) in message

    def test_mismatched_checkpoint_restarts_from_scratch(self, tmp_path, undisturbed):
        """A stale/foreign state file is ignored, not fatal: the supervisor
        falls back to a scratch restart and parity still holds."""
        (tmp_path / "par-state.bin").write_bytes(b"garbage, not a checkpoint")
        chaos = kill_once(victim=0, at_window=2)
        result = run_scenario(
            SCENARIO.replace(parallel=2),
            checkpoint_dir=tmp_path,
            supervision=SupervisionConfig(chaos=chaos),
        )
        assert result.parallel.restarts == 1
        assert result_fingerprint(result) == undisturbed(2)


class TestDaemonSupervision:
    """Daemon follow-through: supervised parallel submissions, and restart
    exhaustion landing as a ``failed`` record — never a hung worker thread."""

    FIELDS = {
        "mode": "economy",
        "oft_fraction": 0.3,
        "workload": "synthetic",
        "horizon": 6 * 3600.0,
        "thin": 60,
        "seed": 42,
        "transport": "two-tier-wan",
        "parallel": 2,
    }

    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.service import GridfedDaemon

        d = GridfedDaemon(tmp_path / "state", port=0, workers=1)
        d.start()
        yield d
        d.stop()

    @pytest.fixture
    def client(self, daemon):
        from repro.service import DaemonClient

        return DaemonClient(daemon.address, timeout=10.0)

    def test_parallel_submission_completes_supervised(self, client, undisturbed):
        sid = client.submit(dict(self.FIELDS))
        record = client.wait(sid, timeout=180.0)
        assert record["status"] == "completed", record.get("error")
        par = record["parallel"]
        assert par["supervised"] is True
        assert par["workers"] == 2
        assert par["restarts"] == 0
        assert record["fingerprint"] == undisturbed(2)
        health = client.health()
        assert health["parallel"]["runs"] == 1
        assert health["parallel"]["failed"] == 0

    def test_parallel_submission_reports_progress(self, client, daemon):
        sid = client.submit(dict(self.FIELDS), checkpoint_interval=1800.0)
        record = client.wait(sid, timeout=180.0)
        assert record["status"] == "completed", record.get("error")
        progress = daemon.state.load_progress(sid)
        assert progress is not None
        assert progress["done"] is True
        assert progress["percent"] == 100.0
        assert progress["jobs_completed"] > 0
        assert progress["jobs_total"] >= progress["jobs_completed"]

    def test_cancel_mid_run_leaves_no_workers(self, client, daemon, monkeypatch):
        """A cancel lands at the next boundary that reports progress: the
        record ends ``cancelled`` and the fleet's worker processes are gone."""
        import dataclasses
        import threading

        import repro.par.runner as par_runner

        real = par_runner.try_parallel_run
        reached, release = threading.Event(), threading.Event()
        workers = []

        def chaos(phase, window, handles):
            if phase == "window" and window == 3 and not reached.is_set():
                workers.extend(handle.pid for handle in handles)
                reached.set()
                release.wait(timeout=60.0)

        def held(scenario, **kwargs):
            kwargs["supervision"] = dataclasses.replace(kwargs["supervision"], chaos=chaos)
            return real(scenario, **kwargs)

        monkeypatch.setattr(par_runner, "try_parallel_run", held)
        sid = client.submit(dict(self.FIELDS), checkpoint_interval=600.0)
        assert reached.wait(timeout=120.0), "the sharded run never reached window 3"
        client.cancel(sid)
        release.set()
        record = client.wait(sid, timeout=120.0)
        assert record["status"] == "cancelled"
        assert len(workers) == 2
        assert wait_until_gone(workers, timeout=30.0) == []

    def test_exhausted_restarts_land_as_failed_record(
        self, client, daemon, monkeypatch
    ):
        import dataclasses

        import repro.par.runner as par_runner

        real = par_runner.try_parallel_run

        def chaos(phase, window, handles):
            if phase == "window" and window == 1:
                os.kill(handles[0].pid, signal.SIGKILL)

        def chaotic(scenario, **kwargs):
            kwargs["supervision"] = dataclasses.replace(
                kwargs["supervision"], chaos=chaos, max_restarts=0
            )
            return real(scenario, **kwargs)

        monkeypatch.setattr(par_runner, "try_parallel_run", chaotic)
        sid = client.submit(dict(self.FIELDS))
        record = client.wait(sid, timeout=180.0)
        assert record["status"] == "failed"
        assert "SIGKILL" in record["error"]
        assert "shard 0" in record["error"]
        par = record["parallel"]
        assert par["worker_failures"] == 1
        assert par["degraded"] is False
        # DaemonClient.wait surfaced the terminal record (it returned); the
        # result endpoint reports the failure rather than hanging too.
        from repro.service import DaemonError

        with pytest.raises(DaemonError) as excinfo:
            client.result(sid)
        assert "failed" in str(excinfo.value)
        health = client.health()
        assert health["parallel"]["failed"] == 1
        assert health["parallel"]["worker_failures"] == 1


class TestShardedCheckpoints:
    """Checkpoint, resume, progress and cancellation work for sharded runs
    exactly as for serial ones: the boundary policy drives both loops."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_interrupted_run_resumes_byte_identical(self, workers, tmp_path, undisturbed):
        """The sharded resume oracle: cancel after the first fleet
        checkpoint, then ``resume_run`` and a repeated ``run_scenario`` over
        a copy of the directory each reproduce the uninterrupted digest."""
        scenario = SCENARIO.replace(parallel=workers)
        first, second = tmp_path / "first", tmp_path / "second"
        reports = []

        def interrupt(progress):
            reports.append(progress)
            raise CancelledRun("interrupted by test")

        with pytest.raises(CancelledRun):
            run_scenario(
                scenario, checkpoint_dir=first, checkpoint_every=1800.0, on_progress=interrupt
            )
        names = os.listdir(first)
        assert "par-state.bin" in names
        assert sum(name.endswith(".snap") for name in names) == workers
        shutil.copytree(first, second)

        result, adopted = resume_run(first, checkpoint_every=1800.0)
        assert adopted == scenario
        assert result.parallel.ran_parallel
        assert result_fingerprint(result) == undisturbed(workers)

        continued = []
        again = run_scenario(
            scenario, checkpoint_dir=second, checkpoint_every=1800.0, on_progress=continued.append
        )
        assert again.parallel.ran_parallel
        assert result_fingerprint(again) == undisturbed(workers)
        # The continue rule adopted the checkpoint: no boundary repeats.
        assert continued[0].sim_time > reports[0].sim_time

    def test_cancel_under_a_floor_checkpoints_the_cancelled_window(
        self, tmp_path, undisturbed
    ):
        """The wall-clock floor skips fleet checkpoints as it skips serial
        ones, and a cancel still commits the boundary it stops at."""
        scenario = SCENARIO.replace(parallel=2)
        reports = []

        def cancel_second(progress):
            reports.append(progress)
            if len(reports) == 2:
                raise CancelledRun("interrupted by test")

        with pytest.raises(CancelledRun):
            run_scenario(
                scenario,
                checkpoint_dir=tmp_path,
                checkpoint_every=1800.0,
                on_progress=cancel_second,
                checkpoint_floor_s=3600.0,
            )
        state = load_par_state(tmp_path / "par-state.bin")
        assert state["start"] == reports[1].sim_time > reports[0].sim_time
        result, _ = resume_run(tmp_path, checkpoint_every=1800.0)
        assert result_fingerprint(result) == undisturbed(2)

    def test_progress_reports_like_a_serial_run(self):
        serial, sharded = [], []
        plain = run_scenario(SCENARIO, checkpoint_every=1800.0, on_progress=serial.append)
        result = run_scenario(
            SCENARIO.replace(parallel=2), checkpoint_every=1800.0, on_progress=sharded.append
        )
        assert len(sharded) > 2
        assert [p.done for p in sharded] == [False] * (len(sharded) - 1) + [True]
        assert sharded[-1].percent == 100.0
        times = [p.sim_time for p in sharded]
        assert times == sorted(times)
        final = sharded[-1]
        assert final.jobs_total == serial[-1].jobs_total == len(plain.jobs)
        assert final.jobs_completed == len(result.completed_jobs())
        assert final.events_processed == result.events_processed
        assert final.pending_events == 0

    @pytest.mark.parametrize("with_directory", [False, True])
    def test_oracle_backend_refuses_a_boundary_policy(self, with_directory, tmp_path):
        from repro.service.checkpoint import BoundaryPolicy

        policy = BoundaryPolicy(
            tmp_path if with_directory else None, on_progress=lambda progress: None
        )
        with pytest.raises(ValueError, match="process"):
            try_parallel_run(SCENARIO, workers=2, backend="oracle", boundary=policy)

    def test_resume_refuses_a_mismatched_fleet_checkpoint(self, tmp_path):
        with pytest.raises(CancelledRun):
            run_scenario(
                SCENARIO.replace(parallel=2),
                checkpoint_dir=tmp_path,
                checkpoint_every=1800.0,
                on_progress=_cancel,
            )
        with pytest.raises(SnapshotMismatchError):
            resume_run(tmp_path, expected_scenario=SCENARIO.replace(parallel=2, seed=7))
        for name in os.listdir(tmp_path):
            if name.endswith(".snap"):
                os.unlink(tmp_path / name)
        with pytest.raises(SnapshotError, match="incomplete"):
            resume_run(tmp_path)


def _cancel(progress):
    raise CancelledRun("interrupted by test")


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_until_gone(pids, timeout: float):
    """Poll until none of ``pids`` runs or ``timeout`` passes; the survivors."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _pid_alive(pid)]
    return alive


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestCoordinatorDeath:
    """Shard workers must not outlive a SIGKILLed coordinator: each one sees
    its pipe reach EOF and exits."""

    def test_workers_exit_when_the_coordinator_is_sigkilled(self, tmp_path):
        pid_file = tmp_path / "worker-pids"
        script = textwrap.dedent(
            f"""
            import os, time
            from repro.par.runner import try_parallel_run
            from repro.par.supervisor import SupervisionConfig
            from repro.scenario import Scenario

            def chaos(phase, window, handles):
                if phase == "window" and window == 1:
                    with open({str(pid_file) + ".tmp"!r}, "w") as handle:
                        handle.write(" ".join(str(h.pid) for h in handles))
                    os.replace({str(pid_file) + ".tmp"!r}, {str(pid_file)!r})
                    time.sleep(600)

            try_parallel_run(
                Scenario(**{SCENARIO_FIELDS!r}),
                workers=2,
                supervision=SupervisionConfig(chaos=chaos),
            )
            """
        )
        env = dict(os.environ, PYTHONPATH=_REPO_SRC)
        coordinator = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 120.0
            while not pid_file.exists():
                assert coordinator.poll() is None, "the coordinator exited early"
                assert time.monotonic() < deadline, "the run never reached window 1"
                time.sleep(0.05)
            workers = [int(pid) for pid in pid_file.read_text().split()]
            assert len(workers) == 2
            coordinator.kill()
            coordinator.wait(timeout=30.0)
            assert wait_until_gone(workers, timeout=30.0) == []
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=30.0)
            for pid in wait_until_gone(workers, timeout=0.0):
                os.kill(pid, signal.SIGKILL)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_timeout_s": 0.0},
            {"start_timeout_s": -1.0},
            {"max_restarts": -1},
            {"backoff_jitter": 1.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionConfig(**kwargs)
