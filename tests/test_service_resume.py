"""The resume oracle and the snapshot compatibility guards.

The oracle: an interrupted-then-resumed run must produce the *same*
fingerprint as an uninterrupted one — pinned here against the golden
digests of all five experiment shapes (``test_golden_fingerprints`` pins the
uninterrupted side).  The guards: resuming against a different scenario hash
or snapshot format version must fail fast with an actionable message, before
any payload unpickling.
"""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.service.checkpoint import (
    CancelledRun,
    RunProgress,
    resume_run,
    run_checkpointed,
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
        """Each population keeps one pending arrival under a reserved seq.
        Interrupt while some chains have not fired yet, while every chain is
        midway, and after every chain has run out: each resume is exact."""
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
        if chain == "unstarted":
            assert any(done == 0 for done, _total in progress)
        elif chain == "midway":
            assert all(0 < done < total for done, total in progress)
        else:
            assert all(done == total for done, total in progress)
            assert federation.sim.pending > 0
        result, _ = resume_run(tmp_path, checkpoint_every=600.0)
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
        raw = open(path, "rb").read()
        magic = b"gridfed-snapshot\n"
        length = int.from_bytes(raw[len(magic) : len(magic) + 4], "big")
        header_start = len(magic) + 4
        header = raw[header_start : header_start + length]
        bumped = header.replace(
            b'"format_version": %d' % SNAPSHOT_FORMAT_VERSION,
            b'"format_version": %d' % (SNAPSHOT_FORMAT_VERSION + 7),
        )
        assert bumped != header, "header rewrite did not take"
        with open(path, "wb") as handle:
            handle.write(magic)
            handle.write(len(bumped).to_bytes(4, "big"))
            handle.write(bumped)
            handle.write(raw[header_start + length :])
        with pytest.raises(SnapshotMismatchError):
            load_snapshot(path)

    def test_verify_runs_before_unpickle(self, tmp_path):
        """A mismatched snapshot with a *corrupt* payload still raises the
        mismatch error: the guard never touches the pickle."""
        path = _write_fast_snapshot(tmp_path)
        raw = open(path, "rb").read()
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
        raw = open(path, "rb").read()
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
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[:20])
        with pytest.raises(SnapshotError):
            read_header(path)

    def test_corrupt_payload_refused(self, tmp_path):
        path = _write_fast_snapshot(tmp_path)
        raw = open(path, "rb").read()
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
        raw = open(snapshot_path(tmp_path), "rb").read()
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
    def test_run_checkpointed_requires_positive_interval(self, tmp_path):
        from repro.scenario.runner import run_scenario as rs

        with pytest.raises(ValueError):
            rs(_FAST, checkpoint_dir=tmp_path, checkpoint_every=0.0)

    def test_on_progress_alone_enables_chunked_path(self):
        """No checkpoint dir: progress reporting alone must not change results."""
        observations = []
        result = run_scenario(_FAST, on_progress=observations.append)
        assert observations[-1].done
        assert result_fingerprint(result) == result_fingerprint(run_scenario(_FAST))

    def test_run_checkpointed_direct_api(self, tmp_path):
        """The service-layer entry point used by the daemon."""
        from repro.scenario.registry import AGENT_REGISTRY, PRICING_REGISTRY, WORKLOAD_REGISTRY
        from repro.sim.rng import RandomStreams
        from repro.workload.archive import build_federation_specs, thin_workload
        from repro.workload.job import reset_job_counter

        from repro.scenario.runner import resolve_resources

        scenario = _FAST
        archive = resolve_resources(scenario, None)
        specs = build_federation_specs(archive)
        provider = WORKLOAD_REGISTRY.get(scenario.workload)
        reset_job_counter()
        workload = thin_workload(
            provider(scenario, RandomStreams(scenario.seed), archive), scenario.thin
        )
        federation = PRICING_REGISTRY.get(scenario.pricing)(
            scenario, specs, workload, scenario.to_config(), AGENT_REGISTRY.get(scenario.agent)
        )
        result = run_checkpointed(
            federation, scenario, checkpoint_dir=tmp_path, checkpoint_every=600.0
        )
        assert result_fingerprint(result) == result_fingerprint(run_scenario(scenario))
