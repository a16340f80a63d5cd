"""The resume oracle and the snapshot compatibility guards.

The oracle: an interrupted-then-resumed run must produce the *same*
fingerprint as an uninterrupted one — pinned here against the golden
digests of all five experiment shapes (``test_golden_fingerprints`` pins the
uninterrupted side).  The guards: resuming against a different scenario hash
or snapshot format version must fail fast with an actionable message, before
any payload unpickling.
"""

from __future__ import annotations

import math
import pickle
import pickletools
from pathlib import Path

import pytest

from repro.scenario import Scenario, result_fingerprint, run_scenario
import repro.service.checkpoint as checkpoint_module
from repro.service.checkpoint import (
    BoundaryPolicy,
    CancelledRun,
    RunProgress,
    resume_run,
    snapshot_path,
)
from repro.service.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotHeader,
    SnapshotMismatchError,
    load_snapshot,
    read_header,
    verify_compatible,
)
from tests.test_golden_fingerprints import GOLDEN_FINGERPRINTS, GOLDEN_SCENARIOS
from tests.test_lrms_profile_oracle import counted_profile_builds

#: Six-hour golden horizon → a handful of chunks per run.
_INTERVAL = 3600.0

#: A fast scenario for the plumbing tests (not one of the goldens).
_FAST = Scenario(workload="synthetic", horizon=4 * 3600.0, thin=20, seed=7)


def _interrupt_after_first_chunk():
    """An on_progress callback that cancels after the first snapshot."""
    calls = []

    def on_progress(progress: RunProgress) -> None:
        calls.append(progress)
        if not progress.done:
            raise CancelledRun("interrupted by test")

    return on_progress


class TestResumeOracle:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_interrupted_resume_matches_golden(self, name, tmp_path):
        """Interrupt after the first checkpoint, resume, compare digests."""
        scenario = GOLDEN_SCENARIOS[name]
        with pytest.raises(CancelledRun):
            run_scenario(
                scenario,
                checkpoint_dir=tmp_path,
                checkpoint_every=_INTERVAL,
                on_progress=_interrupt_after_first_chunk(),
            )
        assert snapshot_path(tmp_path).endswith("latest.ckpt")
        result, resumed_scenario = resume_run(
            tmp_path, expected_scenario=scenario, checkpoint_every=_INTERVAL
        )
        assert resumed_scenario == scenario
        assert result_fingerprint(result) == GOLDEN_FINGERPRINTS[name], (
            f"{name}: resumed fingerprint drifted from the "
            "uninterrupted golden digest — checkpoint/resume is not "
            "byte-identical"
        )

    @pytest.mark.parametrize(
        "chunks, chain",
        [(1, "unstarted"), (12, "midway"), (24, "exhausted")],
        ids=["chain-unstarted", "chain-midway", "chain-exhausted"],
    )
    def test_resume_at_each_arrival_chain_state(self, chunks, chain, tmp_path):
        """Every arrival waits on the simulator's feed until it fires.
        Interrupt while some populations have submitted nothing yet, while
        every population is midway, and after the feed has run out: each
        snapshot holds exactly the arrivals not yet fired, and each resume
        is exact."""
        expected = result_fingerprint(run_scenario(_FAST))
        reports = []

        def interrupt(progress: RunProgress) -> None:
            reports.append(progress)
            if len(reports) == chunks:
                raise CancelledRun("interrupted by test")

        with pytest.raises(CancelledRun):
            run_scenario(
                _FAST,
                checkpoint_dir=tmp_path,
                checkpoint_every=600.0,
                on_progress=interrupt,
            )
        _header, federation, _scenario = load_snapshot(snapshot_path(tmp_path))
        progress = [
            (population.submitted, len(population.jobs))
            for population in federation.populations.values()
        ]
        sim = federation.sim
        assert len(sim._feed_times) == sum(total - done for done, total in progress)
        if chain == "unstarted":
            assert any(done == 0 for done, _total in progress)
        elif chain == "midway":
            assert all(0 < done < total for done, total in progress)
        else:
            assert all(done == total for done, total in progress)
            assert sim._feed_callback is None
            assert sim.pending > 0
        result, _ = resume_run(tmp_path, checkpoint_every=600.0)
        assert result_fingerprint(result) == expected

    def test_resume_with_live_admission_predictions(self, tmp_path):
        """Snapshot at 4 h, while clusters hold queued jobs in a live
        admission profile (each queued job with its predicted start): the
        loaded LRMSs answer without building a profile, and the resume is
        exact."""
        expected = result_fingerprint(run_scenario(_FAST))
        reports = []

        def interrupt(progress: RunProgress) -> None:
            reports.append(progress)
            if len(reports) == 4:
                raise CancelledRun("interrupted by test")

        with pytest.raises(CancelledRun):
            run_scenario(
                _FAST, checkpoint_dir=tmp_path, checkpoint_every=3600.0, on_progress=interrupt
            )
        _header, federation, _scenario = load_snapshot(snapshot_path(tmp_path))
        live_queues = []
        for gfa in federation.gfas.values():
            with counted_profile_builds() as builds:
                wait = gfa.lrms.expected_wait()
            if gfa.lrms.queue_length and not builds:
                live_queues.append((gfa.lrms.queue_length, wait))
        assert len(live_queues) >= 2
        assert all(wait > 0 for _queued, wait in live_queues)
        result, _ = resume_run(tmp_path, checkpoint_every=3600.0)
        assert result_fingerprint(result) == expected

    def test_checkpointed_run_equals_plain_run(self, tmp_path):
        plain = result_fingerprint(run_scenario(_FAST))
        checkpointed = result_fingerprint(
            run_scenario(_FAST, checkpoint_dir=tmp_path, checkpoint_every=600.0)
        )
        assert checkpointed == plain

    def test_progress_reports_are_monotonic_and_terminal(self, tmp_path):
        observations = []
        run_scenario(
            _FAST,
            checkpoint_dir=tmp_path,
            checkpoint_every=600.0,
            on_progress=observations.append,
        )
        assert observations, "no progress was reported"
        assert observations[-1].done
        assert observations[-1].percent == 100.0
        times = [obs.sim_time for obs in observations]
        assert times == sorted(times)
        assert all(0.0 <= obs.percent <= 100.0 for obs in observations)

    def test_double_interrupt_still_resumes_identically(self, tmp_path):
        """Kill, resume, kill again, resume again — still byte-identical."""
        expected = result_fingerprint(run_scenario(_FAST))
        with pytest.raises(CancelledRun):
            run_scenario(
                _FAST,
                checkpoint_dir=tmp_path,
                checkpoint_every=600.0,
                on_progress=_interrupt_after_first_chunk(),
            )
        with pytest.raises(CancelledRun):
            resume_run(
                tmp_path,
                checkpoint_every=600.0,
                on_progress=_interrupt_after_first_chunk(),
            )
        result, _ = resume_run(tmp_path, checkpoint_every=600.0)
        assert result_fingerprint(result) == expected


def _write_fast_snapshot(tmp_path):
    """A mid-run snapshot of the fast scenario (interrupted first chunk)."""
    with pytest.raises(CancelledRun):
        run_scenario(
            _FAST,
            checkpoint_dir=tmp_path,
            checkpoint_every=600.0,
            on_progress=_interrupt_after_first_chunk(),
        )
    return snapshot_path(tmp_path)


def _rewrite_format_version(path, version: int) -> None:
    """Make a snapshot's on-disk header claim format ``version``."""
    raw = Path(path).read_bytes()
    magic = b"gridfed-snapshot\n"
    length = int.from_bytes(raw[len(magic) : len(magic) + 4], "big")
    header_start = len(magic) + 4
    header = raw[header_start : header_start + length]
    rewritten = header.replace(
        b'"format_version": %d' % SNAPSHOT_FORMAT_VERSION,
        b'"format_version": %d' % version,
    )
    assert rewritten != header, "header rewrite did not take"
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(len(rewritten).to_bytes(4, "big"))
        handle.write(rewritten)
        handle.write(raw[header_start + length :])


class TestMismatchGuards:
    def test_scenario_hash_mismatch_fails_fast(self, tmp_path):
        _write_fast_snapshot(tmp_path)
        other = _FAST.replace(seed=99)
        with pytest.raises(SnapshotMismatchError) as excinfo:
            resume_run(tmp_path, expected_scenario=other)
        message = str(excinfo.value)
        assert "scenario mismatch" in message
        assert _FAST.scenario_hash()[:12] in message
        assert other.scenario_hash()[:12] in message
        assert "seed=99" in message  # the requested side is described

    def test_format_version_mismatch_fails_fast(self, tmp_path):
        path = _write_fast_snapshot(tmp_path)
        header = read_header(path)
        future = SnapshotHeader(
            **{
                **header.__dict__,
                "format_version": SNAPSHOT_FORMAT_VERSION + 1,
            }
        )
        with pytest.raises(SnapshotMismatchError) as excinfo:
            verify_compatible(future)
        message = str(excinfo.value)
        assert str(SNAPSHOT_FORMAT_VERSION + 1) in message
        assert str(SNAPSHOT_FORMAT_VERSION) in message

    def test_format_version_mismatch_from_file(self, tmp_path):
        """A rewritten on-disk header is refused before any unpickling."""
        path = _write_fast_snapshot(tmp_path)
        _rewrite_format_version(path, SNAPSHOT_FORMAT_VERSION + 7)
        with pytest.raises(SnapshotMismatchError):
            load_snapshot(path)

    def test_verify_runs_before_unpickle(self, tmp_path):
        """A mismatched snapshot with a *corrupt* payload still raises the
        mismatch error: the guard never touches the pickle."""
        path = _write_fast_snapshot(tmp_path)
        raw = Path(path).read_bytes()
        magic = b"gridfed-snapshot\n"
        length = int.from_bytes(raw[len(magic) : len(magic) + 4], "big")
        with open(path, "wb") as handle:
            handle.write(raw[: len(magic) + 4 + length])
            handle.write(b"this is not a pickle")
        with pytest.raises(SnapshotMismatchError):
            load_snapshot(path, expected_scenario=_FAST.replace(seed=99))

    def test_older_format_header_is_refused_by_the_version_guard(self, tmp_path):
        """A version-1 header still names the dropped ``engine`` field; it
        must reach the version guard rather than fail to parse."""
        path = _write_fast_snapshot(tmp_path)
        raw = Path(path).read_bytes()
        magic = b"gridfed-snapshot\n"
        length = int.from_bytes(raw[len(magic) : len(magic) + 4], "big")
        header_start = len(magic) + 4
        fields = read_header(path).__dict__
        old = SnapshotHeader(**{**fields, "format_version": 1}).to_json()
        old = old[:-1] + ', "engine": "heap"}'
        with open(path, "wb") as handle:
            handle.write(magic)
            handle.write(len(old.encode()).to_bytes(4, "big"))
            handle.write(old.encode())
            handle.write(raw[header_start + length :])
        with pytest.raises(SnapshotMismatchError, match="format version 1"):
            load_snapshot(path)


class TestSnapshotFormat:
    def test_missing_snapshot_is_actionable(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            resume_run(tmp_path / "nope")
        assert "--checkpoint" in str(excinfo.value)

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(SnapshotError) as excinfo:
            read_header(path)
        assert "bad magic" in str(excinfo.value)

    def test_truncated_snapshot_refused(self, tmp_path):
        path = _write_fast_snapshot(tmp_path)
        raw = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(raw[:20])
        with pytest.raises(SnapshotError):
            read_header(path)

    def test_corrupt_payload_refused(self, tmp_path):
        path = _write_fast_snapshot(tmp_path)
        raw = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        # Header is intact, payload is torn.
        read_header(path)
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path)
        assert "payload" in str(excinfo.value)

    def test_header_describes_the_run(self, tmp_path):
        path = _write_fast_snapshot(tmp_path)
        header = read_header(path)
        assert header.format_version == SNAPSHOT_FORMAT_VERSION
        assert header.scenario_hash == _FAST.scenario_hash()
        assert header.pending_events > 0
        assert header.jobs_total > 0
        assert 0.0 < header.progress < 1.0
        # The header round-trips through its JSON form.
        assert SnapshotHeader.from_json(header.to_json()) == header

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        _write_fast_snapshot(tmp_path)
        leftovers = [
            name for name in tmp_path.iterdir() if name.name.startswith(".snapshot-")
        ]
        assert leftovers == []

    def test_snapshot_pickles_no_itertools_objects(self, tmp_path):
        """Counters pickle as plain ints: pickling ``itertools`` objects is
        deprecated since Python 3.12 and removed in 3.14."""
        scenario = _FAST.replace(seed=1)
        with pytest.raises(CancelledRun):
            run_scenario(
                scenario,
                checkpoint_dir=tmp_path,
                checkpoint_every=600.0,
                on_progress=_interrupt_after_first_chunk(),
            )
        raw = Path(snapshot_path(tmp_path)).read_bytes()
        magic = b"gridfed-snapshot\n"
        length = int.from_bytes(raw[len(magic) : len(magic) + 4], "big")
        payload = raw[len(magic) + 4 + length :]
        _header, federation, _scenario = load_snapshot(snapshot_path(tmp_path))
        assert federation.bank is not None  # the GridBank is in the graph
        names = set()
        for opcode, arg, _pos in pickletools.genops(payload):
            if opcode.name == "GLOBAL":
                names.add(arg.split(" ")[0])
            elif "UNICODE" in opcode.name:
                names.add(arg)
        assert "itertools" not in names

    def test_snapshot_pickles_under_default_protocol(self, tmp_path):
        """The federation graph survives a plain pickle round trip too."""
        path = _write_fast_snapshot(tmp_path)
        _header, federation, scenario = load_snapshot(path)
        clone = pickle.loads(pickle.dumps(federation))
        assert clone.sim.now == federation.sim.now
        assert clone.sim.pending == federation.sim.pending
        assert scenario == _FAST


class TestRunnerIntegration:
    @pytest.mark.parametrize("interval", [0.0, -600.0, math.nan, math.inf])
    def test_checkpoint_interval_must_be_finite_and_positive(self, tmp_path, interval):
        with pytest.raises(ValueError, match="finite positive"):
            run_scenario(_FAST, checkpoint_dir=tmp_path, checkpoint_every=interval)
        assert list(tmp_path.iterdir()) == []

    def test_rerun_over_a_checkpoint_continues_from_it(self, tmp_path):
        """The continue rule: a run over a directory that holds this
        scenario's snapshot adopts it — later boundaries, the same bytes."""
        expected = result_fingerprint(run_scenario(_FAST))
        _write_fast_snapshot(tmp_path)
        assert read_header(snapshot_path(tmp_path)).sim_time == 600.0
        reports = []
        result = run_scenario(
            _FAST, checkpoint_dir=tmp_path, checkpoint_every=600.0, on_progress=reports.append
        )
        assert reports[0].sim_time == 1200.0
        assert result_fingerprint(result) == expected

    @pytest.mark.parametrize(
        "case",
        ["other-scenario", "previous-format", "unreadable", "bad-header", "validate", "fault-plan"],
    )
    def test_checkpoint_not_adopted_starts_fresh(self, tmp_path, case):
        """A snapshot of another scenario, one an older build wrote (as a
        daemon upgraded mid-run finds), an unreadable one, or a run with
        inputs the snapshot guard cannot see: the run starts from zero."""
        from repro.faults.plan import FaultPlan

        path = _write_fast_snapshot(tmp_path)
        scenario, kwargs = _FAST, {}
        if case == "other-scenario":
            scenario = _FAST.replace(seed=8)
        elif case == "previous-format":
            _rewrite_format_version(path, SNAPSHOT_FORMAT_VERSION - 1)
        elif case == "unreadable":
            with open(path, "wb") as handle:
                handle.write(b"not a snapshot")
        elif case == "bad-header":
            with open(path, "wb") as handle:
                handle.write(b"gridfed-snapshot\n" + (2).to_bytes(4, "big") + b"\xff\xfe")
        elif case == "validate":
            kwargs = {"validate": True}
        else:
            kwargs = {"fault_plan": FaultPlan()}
        reports = []
        result = run_scenario(
            scenario,
            checkpoint_dir=tmp_path,
            checkpoint_every=600.0,
            on_progress=reports.append,
            **kwargs,
        )
        assert reports[0].sim_time == 600.0
        assert result_fingerprint(result) == result_fingerprint(run_scenario(scenario))
        assert read_header(path).scenario_hash == scenario.scenario_hash()

    def test_on_progress_alone_enables_chunked_path(self):
        """No checkpoint dir: progress reporting alone must not change results."""
        observations = []
        result = run_scenario(_FAST, on_progress=observations.append)
        assert observations[-1].done
        assert result_fingerprint(result) == result_fingerprint(run_scenario(_FAST))


class _FakeClock:
    """Stands in for the ``time`` module inside ``repro.service.checkpoint``."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


def _report(now: float) -> RunProgress:
    return RunProgress(
        sim_time=now,
        horizon=100.0,
        jobs_total=1,
        jobs_completed=0,
        events_processed=0,
        pending_events=1,
        done=False,
    )


class TestBoundaryPolicyFloor:
    """The wall-clock floor on checkpoints and the checkpoint at every
    interruption, on the policy alone (a fake clock) and on real runs."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(checkpoint_module, "time", clock)
        return clock

    @staticmethod
    def _drive(policy, clock, wall_per_boundary, cancel_at=None):
        """Act on boundaries 10, 20, ..., 80, each ``wall_per_boundary``
        fake seconds after the last; return (writes, reports, cancelled)."""
        writes, reports = [], []

        def on_progress(progress):
            reports.append(progress.sim_time)
            if progress.sim_time == cancel_at:
                raise CancelledRun("interrupted by test")

        policy.on_progress = on_progress
        policy.start(0.0)
        try:
            for now in range(10, 90, 10):
                clock.now += wall_per_boundary
                policy.act(
                    float(now),
                    lambda now=now: writes.append(float(now)),
                    lambda now=now: _report(float(now)),
                )
        except CancelledRun:
            return writes, reports, True
        return writes, reports, False

    def test_zero_floor_checkpoints_at_every_boundary(self, tmp_path, clock):
        # The clock never moves: a zero floor still writes each boundary.
        writes, reports, _ = self._drive(BoundaryPolicy(tmp_path, 10.0), clock, 0.0)
        assert writes == reports == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]

    def test_floor_spaces_checkpoints_in_wall_time(self, tmp_path, clock):
        policy = BoundaryPolicy(tmp_path, 10.0, floor_s=1.0)
        writes, reports, _ = self._drive(policy, clock, 0.4)
        # 0.4 s of wall time per boundary: every third one passes the floor.
        assert writes == [30.0, 60.0]
        assert reports == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]

    def test_floor_longer_than_the_run_writes_nothing(self, tmp_path, clock):
        policy = BoundaryPolicy(tmp_path, 10.0, floor_s=3600.0)
        writes, reports, _ = self._drive(policy, clock, 1.0)
        assert writes == []
        assert len(reports) == 8

    @pytest.mark.parametrize(
        "floor, expected",
        # 0.4 s per boundary: a floor of 1.0 writes 30 on its own, and the
        # cancel at 40 adds that boundary; one of 0.3 already wrote 40, so
        # the cancel must not write it twice.
        [(3600.0, [40.0]), (1.0, [30.0, 40.0]), (0.3, [10.0, 20.0, 30.0, 40.0])],
    )
    def test_cancel_checkpoints_the_boundary_it_stops_at(self, tmp_path, clock, floor, expected):
        policy = BoundaryPolicy(tmp_path, 10.0, floor_s=floor)
        writes, reports, cancelled = self._drive(policy, clock, 0.4, cancel_at=40.0)
        assert cancelled
        assert writes == expected
        assert reports == [10.0, 20.0, 30.0, 40.0]

    def test_no_checkpoint_dir_never_writes(self, clock):
        writes, _, _ = self._drive(BoundaryPolicy(None, 10.0), clock, 0.0)
        assert writes == []
        policy = BoundaryPolicy(None, 10.0, floor_s=5.0)
        writes, _, cancelled = self._drive(policy, clock, 0.0, cancel_at=30.0)
        assert cancelled and writes == []

    @pytest.mark.parametrize("floor", [-1.0, math.nan])
    def test_floor_must_be_non_negative(self, tmp_path, floor):
        with pytest.raises(ValueError, match="non-negative"):
            BoundaryPolicy(tmp_path, 600.0, floor_s=floor)

    def test_run_shorter_than_the_floor_writes_no_snapshot(self, tmp_path):
        reports = []
        result = run_scenario(
            _FAST,
            checkpoint_dir=tmp_path,
            checkpoint_every=600.0,
            on_progress=reports.append,
            checkpoint_floor_s=3600.0,
        )
        assert list(tmp_path.iterdir()) == []
        assert len(reports) > 2 and reports[-1].done
        assert result_fingerprint(result) == result_fingerprint(run_scenario(_FAST))

    def test_cancel_at_boundary_k_leaves_boundary_k(self, tmp_path):
        """A cancelled run under a floor it never passed still leaves the
        checkpoint of the boundary it stopped at, and resumes from it."""
        reports = []

        def cancel_third(progress):
            reports.append(progress)
            if len(reports) == 3:
                raise CancelledRun("interrupted by test")

        with pytest.raises(CancelledRun):
            run_scenario(
                _FAST,
                checkpoint_dir=tmp_path,
                checkpoint_every=600.0,
                on_progress=cancel_third,
                checkpoint_floor_s=3600.0,
            )
        assert read_header(snapshot_path(tmp_path)).sim_time == reports[2].sim_time == 1800.0
        result, _ = resume_run(tmp_path, checkpoint_every=600.0)
        assert result_fingerprint(result) == result_fingerprint(run_scenario(_FAST))

    def test_zero_floor_writes_at_every_boundary_of_a_run(self, tmp_path, monkeypatch):
        """``checkpoint_floor_s=0`` (the default) writes a snapshot at each
        boundary, before its progress report, as the policy always has."""
        events = []
        real = checkpoint_module.write_snapshot

        def recording(path, federation, scenario):
            events.append(("write", federation.sim.now))
            real(path, federation, scenario)

        monkeypatch.setattr(checkpoint_module, "write_snapshot", recording)

        def on_progress(progress):
            if not progress.done:
                events.append(("report", progress.sim_time))

        run_scenario(_FAST, checkpoint_dir=tmp_path, checkpoint_every=600.0, on_progress=on_progress)
        boundaries = [now for kind, now in events if kind == "report"]
        assert boundaries == [600.0 * k for k in range(1, len(boundaries) + 1)]
        assert events == [
            event for now in boundaries for event in (("write", now), ("report", now))
        ]
