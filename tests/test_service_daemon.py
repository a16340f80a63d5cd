"""End-to-end tests of the ``gridfed daemon`` serving loop over real HTTP.

Every test here drives an in-process :class:`GridfedDaemon` bound to a free
loopback port through the stdlib :class:`DaemonClient` — real sockets, real
JSON, the same code path as ``gridfed daemon``.  Covered: submission of
several scenarios, instant memoised duplicates (including across a daemon
restart, via the persistent cache), cancellation, progress reporting,
error responses, the durable-queue recovery path, and a real SIGKILL of a
``gridfed daemon`` subprocess.

Two patterns keep the timing-sensitive tests deterministic.  A test that
needs a submission to stay *queued* submits to a daemon that has not been
started yet.  A test that needs a run *in flight* waits for the record's
``running`` status (the progress file appears only once the daemon's
one-second floor has passed) and uses :func:`_long`, a run of well over
two seconds, which the test then cancels or stops.
"""

from __future__ import annotations

import collections
import json
import math
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.service import DaemonClient, DaemonError, GridfedDaemon
from repro.service.daemon import (
    QueueFullError,
    _preferred_wait,
    execute_submission,
    scenario_from_fields,
    scenario_to_fields,
)
from repro.service.snapshot import read_header

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


#: Small-but-active scenarios: the compressed synthetic horizon keeps each
#: run well under a second while still migrating and settling payments.
def _fast(seed=7, **overrides):
    fields = dict(workload="synthetic", horizon=4 * 3600.0, thin=20, seed=seed)
    fields.update(overrides)
    return Scenario(**fields)


#: A run that lasts ~2.6 s with no checkpoints (28 clusters, the full
#: two-day synthetic workload): long enough to be cancelled or stopped
#: mid-run on purpose, which is what the tests using it do.
def _long(seed, system_size=28):
    return Scenario(workload="synthetic", thin=1, system_size=system_size, seed=seed)


def _wait_running(client, sid, timeout=60.0):
    """Poll until ``sid``'s record reads ``running`` (a worker has it)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(sid)["status"]
        if status == "running":
            return
        assert status == "queued", f"{sid} went {status} before it was seen running"
        time.sleep(0.02)
    raise AssertionError(f"{sid} never started running")


def _all_joined(threads, within):
    """Join every thread by one shared deadline; True if all have ended."""
    deadline = time.monotonic() + within
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return not any(thread.is_alive() for thread in threads)


@pytest.fixture
def daemon(tmp_path):
    d = GridfedDaemon(tmp_path / "state", port=0, workers=1, checkpoint_interval=1800.0)
    d.start()
    yield d
    d.stop()


@pytest.fixture
def client(daemon):
    return DaemonClient(daemon.address, timeout=10.0)


class TestFieldsRoundTrip:
    def test_scenario_fields_round_trip(self):
        scenario = _fast(seed=3, mode="federation", transport="two-tier-wan")
        fields = scenario_to_fields(scenario)
        json.dumps(fields)  # must be JSON-safe
        assert scenario_from_fields(fields) == scenario

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            scenario_from_fields({"no_such_field": 1})
        assert "no_such_field" in str(excinfo.value)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_fields(["not", "a", "dict"])


class TestServingLoop:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1

    def test_submit_three_scenarios_over_http(self, client):
        scenarios = [_fast(seed=s) for s in (7, 8, 9)]
        sids = [client.submit(s) for s in scenarios]
        assert len(set(sids)) == 3
        # Wait for every submission before computing reference fingerprints:
        # the workers=1 daemon executes on a thread of *this* process, and
        # run_scenario resets process-global counters.
        records = [client.wait(sid, timeout=120.0) for sid in sids]
        for record, scenario, sid in zip(records, scenarios, sids):
            assert record["status"] == "completed", record.get("error")
            assert record["cached"] is False
            expected = result_fingerprint(run_scenario(scenario))
            assert record["fingerprint"] == expected
            summary = client.result(sid)
            assert summary["fingerprint"] == expected
            assert summary["jobs"] > 0
            assert summary["completed"] > 0
        listed = client.jobs()
        assert {rec["id"] for rec in listed} >= set(sids)

    def test_duplicate_completes_within_submit_call(self, client):
        scenario = _fast(seed=7)
        first = client.submit(scenario)
        client.wait(first, timeout=120.0)
        started = time.monotonic()
        second = client.submit(scenario)
        record = client.status(second)
        # No waiting: the submit itself resolved the duplicate from cache.
        assert record["status"] == "completed"
        assert record["cached"] is True
        assert time.monotonic() - started < 5.0
        assert record["fingerprint"] == client.status(first)["fingerprint"]

    def test_cache_survives_daemon_restart(self, daemon, client, tmp_path):
        scenario = _fast(seed=7)
        sid = client.submit(scenario)
        fingerprint = client.wait(sid, timeout=120.0)["fingerprint"]
        daemon.stop()
        revived = GridfedDaemon(tmp_path / "state", port=0, workers=1)
        revived.start()
        try:
            fresh = DaemonClient(revived.address, timeout=10.0)
            sid2 = fresh.submit(scenario)
            record = fresh.status(sid2)
            assert record["status"] == "completed"
            assert record["cached"] is True
            assert record["fingerprint"] == fingerprint
        finally:
            revived.stop()

    def test_cancel_queued_submission(self, tmp_path):
        # Not started yet: both submissions stay queued, so the victim is
        # cancelled while queued and the blocker then runs.
        daemon = GridfedDaemon(
            tmp_path / "state", port=0, workers=1, checkpoint_interval=1800.0
        )
        blocker = daemon.submit(scenario_to_fields(_long(seed=20)))["id"]
        victim = daemon.submit(scenario_to_fields(_long(seed=21)))["id"]
        record = daemon.cancel(victim)
        assert record["status"] == "cancelled"
        daemon.start()
        try:
            client = DaemonClient(daemon.address, timeout=10.0)
            assert client.wait(victim, timeout=10.0)["status"] == "cancelled"
            _wait_running(client, blocker)
            client.cancel(blocker)  # cooperative: between chunks
            assert client.wait(blocker, timeout=120.0)["status"] in (
                "cancelled",
                "completed",  # may have finished before the marker was seen
            )
        finally:
            daemon.stop()

    def test_progress_endpoint(self, client):
        sid = client.submit(_fast(seed=22))
        client.wait(sid, timeout=120.0)
        status = client.status(sid)
        assert status["status"] == "completed"
        progress = status.get("progress")
        assert progress is not None
        assert progress["done"] is True
        assert progress["percent"] == 100.0
        assert progress["jobs_completed"] > 0

    def test_stream_progress_reaches_terminal_state(self, client):
        sid = client.submit(_fast(seed=23))
        observed = list(client.stream_progress(sid))
        assert observed, "stream produced no observations"
        assert observed[-1]["status"] in ("completed", "failed", "cancelled")

    def test_invalid_scenario_is_400(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client.submit({"oft_fraction": 7.5})
        assert excinfo.value.status == 400
        assert "oft_fraction" in str(excinfo.value)

    def test_unknown_field_is_400(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client.submit({"frobnicate": True})
        assert excinfo.value.status == 400

    def test_unknown_submission_is_404(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_result_before_completion_is_409(self, daemon, client):
        sid = client.submit(_long(seed=24))
        try:
            with pytest.raises(DaemonError) as excinfo:
                client.result(sid)
            assert excinfo.value.status == 409
        finally:
            client.cancel(sid)

    def test_unknown_endpoint_is_404(self, daemon):
        request = urllib.request.Request(daemon.address + "/frobnicate")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        excinfo.value.close()  # the error holds the response's socket
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("interval", [-5.0, math.nan, math.inf])
    def test_checkpoint_interval_validation(self, client, interval):
        with pytest.raises(DaemonError) as excinfo:
            client.submit(_fast(), checkpoint_interval=interval)
        assert excinfo.value.status == 400
        assert client.jobs() == []  # refused before anything was queued

    @pytest.mark.parametrize("interval", [0.0, math.nan, math.inf])
    def test_daemon_interval_validation(self, tmp_path, interval):
        with pytest.raises(ValueError, match="finite positive"):
            GridfedDaemon(tmp_path / "state", port=0, checkpoint_interval=interval)


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        """A saturated daemon sheds load with an explicit 429 + Retry-After."""
        daemon = GridfedDaemon(tmp_path / "state", port=0, workers=1, max_pending=1)
        daemon.start()
        impatient = DaemonClient(daemon.address, timeout=10.0, retries=0)
        try:
            blocker = impatient.submit(_long(seed=40))
            with pytest.raises(DaemonError) as excinfo:
                impatient.submit(_fast(seed=41))
            assert excinfo.value.status == 429
            # The raw response must carry a parseable Retry-After header.
            body = json.dumps({"scenario": scenario_to_fields(_fast(seed=42))})
            request = urllib.request.Request(
                daemon.address + "/jobs",
                data=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as http_excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert http_excinfo.value.code == 429
            assert float(http_excinfo.value.headers["Retry-After"]) > 0
            impatient.cancel(blocker)
        finally:
            daemon.stop()

    def test_patient_client_backs_off_through_429_and_completes(self, tmp_path):
        """Queue full -> 429 -> client backs off -> slot frees -> completes."""
        daemon = GridfedDaemon(tmp_path / "state", port=0, workers=1, max_pending=1)
        daemon.start()
        impatient = DaemonClient(daemon.address, timeout=10.0, retries=0)
        patient = DaemonClient(
            daemon.address, timeout=10.0, retries=40, backoff_base=0.05, backoff_cap=0.25
        )
        try:
            blocker = impatient.submit(_long(seed=43))
            with pytest.raises(DaemonError):
                impatient.submit(_fast(seed=44))  # saturated right now
            # Free the slot shortly; the patient client retries through the
            # 429 window and its submission then runs to completion.
            threading.Timer(0.5, lambda: impatient.cancel(blocker)).start()
            sid = patient.submit(_fast(seed=44))
            record = patient.wait(sid, timeout=120.0)
            assert record["status"] == "completed", record.get("error")
        finally:
            daemon.stop()

    def test_health_degrades_before_saturating(self, tmp_path):
        """Health reports degraded from 80% capacity, saturated at 100%."""
        # Never started: submissions stay queued, so the fill level is exact.
        daemon = GridfedDaemon(tmp_path / "state", port=0, workers=1, max_pending=5)
        try:
            for seed in range(4):
                daemon.submit(scenario_to_fields(_fast(seed=100 + seed)))
            assert daemon.health()["status"] == "degraded"  # 4/5 >= 80%
            daemon.submit(scenario_to_fields(_fast(seed=104)))
            health = daemon.health()
            assert health["status"] == "saturated"
            assert health["pending"] == health["capacity"] == 5
            with pytest.raises(QueueFullError) as excinfo:
                daemon.submit(scenario_to_fields(_fast(seed=105)))
            assert excinfo.value.pending == 5
            assert excinfo.value.retry_after > 0
        finally:
            daemon.stop()

    def test_max_pending_validation(self, tmp_path):
        with pytest.raises(ValueError):
            GridfedDaemon(tmp_path / "a", port=0, max_pending=0)
        with pytest.raises(ValueError):
            GridfedDaemon(tmp_path / "b", port=0, request_deadline=0.0)


class TestKillRestartMidWait:
    def test_wait_survives_daemon_restart(self, tmp_path):
        """A client mid-``wait`` rides out a daemon death and restart.

        The daemon goes down while the client is polling; the client absorbs
        the unreachable window (connection refused -> DaemonUnavailable ->
        keep polling), a fresh daemon on the same port re-adopts the
        in-flight submission from the durable queue, and the wait completes
        with the byte-identical fingerprint.
        """
        state = tmp_path / "state"
        daemon = GridfedDaemon(state, port=0, workers=1, checkpoint_interval=600.0)
        daemon.start()
        port = int(daemon.address.rsplit(":", 1)[1])
        client = DaemonClient(
            daemon.address, timeout=5.0, retries=2, backoff_base=0.05, backoff_cap=0.25
        )
        scenario = _long(seed=60)
        sid = client.submit(scenario)
        _wait_running(client, sid)
        outcome = {}

        def waiter():
            try:
                outcome["record"] = client.wait(sid, timeout=240.0)
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                outcome["error"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        daemon.stop()  # from the client's view: the daemon just died
        time.sleep(0.5)  # let the wait poll into the unreachable window
        revived = GridfedDaemon(state, port=port, workers=1, checkpoint_interval=600.0)
        revived.start()
        try:
            thread.join(timeout=300.0)
            assert not thread.is_alive(), "wait() never returned after restart"
            assert "error" not in outcome, outcome.get("error")
            assert outcome["record"]["status"] == "completed"
            assert outcome["record"]["fingerprint"] == result_fingerprint(
                run_scenario(scenario)
            )
        finally:
            revived.stop()


class TestDurableQueue:
    def test_recovery_requeues_unfinished_submissions(self, tmp_path):
        """Records left queued/running by a dead daemon run on next start."""
        state = tmp_path / "state"
        first = GridfedDaemon(state, port=0, workers=1)
        # Do not start it: submit directly so nothing executes, as if the
        # daemon had been killed right after accepting the submission.
        record = first.submit(scenario_to_fields(_fast(seed=30)))
        assert record["status"] == "queued"
        first.stop()

        revived = GridfedDaemon(state, port=0, workers=1)
        revived.start()
        try:
            client = DaemonClient(revived.address, timeout=10.0)
            final = client.wait(record["id"], timeout=120.0)
            assert final["status"] == "completed"
            assert final["fingerprint"] == result_fingerprint(
                run_scenario(_fast(seed=30))
            )
        finally:
            revived.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shutdown_requeues_in_flight_run(self, tmp_path, workers):
        """A clean shutdown puts the in-flight run back to 'queued' with its
        checkpoint retained, ready for the next daemon life.  The thread
        (``workers=1``) and process-pool (``workers=2``) models share one
        stop marker, and ``stop()`` leaves no pool process behind."""
        state = tmp_path / "state"
        scenario = _long(seed=31)
        daemon = GridfedDaemon(
            state, port=0, workers=workers, checkpoint_interval=600.0
        )
        daemon.start()
        client = DaemonClient(daemon.address, timeout=10.0)
        sid = client.submit(scenario)
        # Stop the daemon mid-run: the boundary the run stops at is
        # checkpointed however little wall time has passed.
        _wait_running(client, sid)
        children = multiprocessing.active_children()
        daemon.stop()
        assert not [child for child in children if child.is_alive()]
        status = daemon.state.load_record(sid)["status"]
        assert status in ("queued", "completed")
        if status == "completed":
            pytest.skip("run finished before shutdown could interrupt it")
        assert (state / "checkpoints" / sid / "latest.ckpt").exists()
        revived = GridfedDaemon(
            state, port=0, workers=workers, checkpoint_interval=600.0
        )
        revived.start()
        try:
            fresh = DaemonClient(revived.address, timeout=10.0)
            final = fresh.wait(sid, timeout=240.0)
            assert final["status"] == "completed", final.get("error")
            assert final["fingerprint"] == result_fingerprint(run_scenario(scenario))
        finally:
            revived.stop()


class TestHeldStatus:
    """``GET /jobs/<id>`` with ``Prefer: wait=N`` answers once the
    submission settles (or after N seconds, or when the daemon stops), so
    ``wait()`` sees a completion when it happens instead of a poll later."""

    @pytest.mark.parametrize(
        "header, seconds",
        [
            ("wait=5", 5.0),
            ("respond-async, wait=10", 10.0),
            (" WAIT = 3 ", 3.0),
            ("wait=soon", 0.0),
            ("handling=lenient", 0.0),
            (None, 0.0),
        ],
    )
    def test_prefer_header_parsing(self, header, seconds):
        assert _preferred_wait(header) == seconds

    def test_hold_ends_at_its_timeout(self, tmp_path):
        # Never started, so the submission stays queued; the racing test in
        # TestRecordIndex covers the wake-ups by cancel and by stop().
        daemon = GridfedDaemon(tmp_path / "state", port=0, workers=1)
        sid = daemon.submit(scenario_to_fields(_fast(seed=40)))["id"]
        started = time.monotonic()
        daemon._await_settled(sid, 0.2)
        assert 0.2 <= time.monotonic() - started < 5.0
        assert daemon.status(sid)["status"] == "queued"
        daemon.stop()

    def test_wait_returns_at_completion_not_a_poll_later(self, client):
        sid = client.submit(_fast(seed=42))
        started = time.monotonic()
        # A plain poller would sleep a minute after its first unsettled poll.
        record = client.wait(sid, timeout=120.0, poll=60.0)
        assert record["status"] == "completed"
        assert time.monotonic() - started < 30.0


class TestUnstartedDaemon:
    def test_stop_returns_on_a_daemon_that_never_started(self, tmp_path):
        daemon = GridfedDaemon(tmp_path / "state", port=0)
        stopper = threading.Thread(target=daemon.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive(), "stop() hung on a daemon that never started"


class TestNoNameLookup:
    def test_daemon_starts_and_serves_without_a_reverse_lookup(self, tmp_path, monkeypatch):
        """Binding names the server after its bound host: a daemon starts,
        answers /health and stops even where ``socket.getfqdn`` fails."""

        def no_dns(*_args, **_kwargs):
            raise AssertionError("socket.getfqdn called")

        monkeypatch.setattr(socket, "getfqdn", no_dns)
        daemon = GridfedDaemon(tmp_path / "state", port=0)
        daemon.start()
        try:
            host, port = daemon._httpd.server_address[:2]
            assert (daemon._httpd.server_name, daemon._httpd.server_port) == (host, port)
            assert DaemonClient(daemon.address, timeout=10.0).health()["status"] == "ok"
        finally:
            daemon.stop()


class TestBoundaryWrites:
    def test_a_run_shorter_than_the_floor_writes_only_its_done_report(
        self, tmp_path, monkeypatch
    ):
        """Boundaries every ten simulated minutes, but a run well under the
        one-second floor: no snapshot, and one progress write (``done``)."""
        import repro.service.checkpoint as checkpoint_module
        import repro.service.daemon as daemon_module

        reports, snapshots = [], []
        save_progress = daemon_module.DaemonState.save_progress
        write_snapshot = checkpoint_module.write_snapshot

        def counting_progress(self, sid, progress):
            reports.append(progress.done)
            save_progress(self, sid, progress)

        def counting_snapshot(*args):
            snapshots.append(args[0])
            write_snapshot(*args)

        monkeypatch.setattr(daemon_module.DaemonState, "save_progress", counting_progress)
        monkeypatch.setattr(checkpoint_module, "write_snapshot", counting_snapshot)
        state = tmp_path / "state"
        daemon = GridfedDaemon(state, port=0)  # never started: this test runs it
        try:
            fields = scenario_to_fields(_fast(seed=70))
            sid = daemon.submit(fields, checkpoint_interval=600.0)["id"]
            daemon_module.execute_submission(str(state), sid, 600.0)
        finally:
            daemon.stop()
        assert daemon.state.load_record(sid)["status"] == "completed"
        assert reports == [True]
        assert snapshots == []


class TestUnknownFields:
    def test_refused_submission_writes_no_record(self, tmp_path):
        daemon = GridfedDaemon(tmp_path / "state", port=0)  # never started
        try:
            with pytest.raises(ValueError, match="unknown scenario fields: frobnicate"):
                daemon.submit({"frobnicate": True})
            assert daemon.state.list_records() == []
            accepted = daemon.submit(scenario_to_fields(_fast(seed=72)))["id"]
            assert daemon.health()["jobs"] == {"queued": 1}
        finally:
            daemon.stop()
        assert [record["id"] for record in daemon.state.list_records()] == [accepted]

    def test_queued_record_naming_an_unknown_field_lands_failed(self, tmp_path):
        """A queued record whose scenario names a field this version does not
        know, as one written before the field was removed does, fails with
        the unknown-field error instead of running."""
        state = tmp_path / "state"
        daemon = GridfedDaemon(state, port=0)  # never started: this test runs it
        try:
            sid = daemon.submit(scenario_to_fields(_fast(seed=71)))["id"]
            record = daemon.state.load_record(sid)
            record["scenario"]["frobnicate"] = 4
            daemon.state.save_record(record)
            execute_submission(str(state), sid, 600.0)
        finally:
            daemon.stop()
        record = daemon.state.load_record(sid)
        assert record["status"] == "failed"
        assert "unknown scenario fields: frobnicate" in record["error"]
        assert record["fingerprint"] is None


class TestRecordIndex:
    def test_health_and_ids_follow_the_records_across_a_restart(self, tmp_path):
        """The in-memory index answers /health and numbers submissions as
        the records on disk would, and is rebuilt from them on restart."""
        state = tmp_path / "state"
        daemon = GridfedDaemon(state, port=0, workers=1)
        daemon.start()
        try:
            client = DaemonClient(daemon.address, timeout=10.0)
            done = client.submit(_fast(seed=50))
            client.wait(done, timeout=120.0)
            cached = client.submit(_fast(seed=50))
            health = client.health()
            assert health["jobs"] == {"completed": 2}
            assert health["pending"] == 0
        finally:
            daemon.stop()
        # Queued submissions of a daemon that never runs them, then cancel one.
        idle = GridfedDaemon(state, port=0, workers=1)
        queued = idle.submit(scenario_to_fields(_fast(seed=51)))["id"]
        victim = idle.submit(scenario_to_fields(_fast(seed=52)))["id"]
        idle.cancel(victim)
        expected = {"completed": 2, "queued": 1, "cancelled": 1}
        assert idle.health()["jobs"] == expected
        assert idle.health()["pending"] == 1
        idle.stop()
        revived = GridfedDaemon(state, port=0, workers=1)
        try:
            assert revived.health()["jobs"] == expected
            assert revived.health()["pending"] == 1
            orders = [record["order"] for record in revived.state.list_records()]
            assert [done, cached, queued, victim] == [
                f"job-{order:06d}" for order in orders
            ]
            fresh = revived.submit(scenario_to_fields(_fast(seed=53)))
            assert fresh["id"] == f"job-{max(orders) + 1:06d}"
        finally:
            revived.stop()


    def test_racing_submits_and_cancels_keep_the_index_exact(self, tmp_path):
        """Submits and queued cancels on more threads than cores, with a
        short switch interval forcing interleavings, leave the ids unique
        and dense and the index's counts equal to the records on disk.  A
        held status request on each submission is woken by its cancel, or
        by the stop, never lost."""
        daemon = GridfedDaemon(tmp_path / "state", port=0, max_pending=1000)
        threads, per_thread = 8, 6
        ids, errors, cancelled, held = [], [], [], {}

        def client(offset):
            try:
                for k in range(per_thread):
                    fields = scenario_to_fields(_fast(seed=1000 + offset * per_thread + k))
                    sid = daemon.submit(fields)["id"]
                    ids.append(sid)
                    held[sid] = threading.Thread(
                        target=daemon._await_settled, args=(sid, 60.0)
                    )
                    held[sid].start()
                    if k % 2:
                        daemon.cancel(sid)
                        cancelled.append(sid)
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in clients)
            # One deadline for all: a hold that nothing wakes lasts 30 s.
            assert _all_joined([held[sid] for sid in cancelled], within=10.0)
        finally:
            sys.setswitchinterval(interval)
            daemon.stop()
        assert _all_joined(held.values(), within=10.0)
        assert errors == []
        total = threads * per_thread
        assert sorted(ids) == [f"job-{order:06d}" for order in range(1, total + 1)]
        on_disk = collections.Counter(
            record["status"] for record in daemon.state.list_records()
        )
        assert on_disk == {"queued": total // 2, "cancelled": total // 2}
        health = daemon.health()
        assert health["jobs"] == dict(on_disk)
        assert health["pending"] == total // 2


class TestSigkillDurability:
    def test_sigkilled_daemon_resumes_from_its_last_checkpoint(self, tmp_path):
        """``gridfed daemon`` SIGKILLed mid-run: the checkpoint the floor let
        through survives, and a fresh daemon completes the submission to the
        direct ``run_scenario`` fingerprint."""
        state = tmp_path / "state"
        # ~3.9 s of run time: the one-second floor passes several times.
        scenario = _long(seed=61, system_size=32)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "daemon", "--state", str(state),
                "--port", "0", "--checkpoint-interval", "600",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=_REPO_SRC),
        )
        try:
            address_file = state / "daemon.address"
            deadline = time.monotonic() + 60.0
            while not (address_file.exists() and address_file.read_text().endswith("\n")):
                assert time.monotonic() < deadline, "the daemon never wrote its address"
                time.sleep(0.02)
            client = DaemonClient(address_file.read_text().strip(), timeout=10.0)
            sid = client.submit(scenario)
            snapshot = state / "checkpoints" / sid / "latest.ckpt"
            deadline = time.monotonic() + 120.0
            while not snapshot.exists():
                assert time.monotonic() < deadline, "no checkpoint was ever written"
                time.sleep(0.02)
            # SIGKILL — no cleanup handlers, exactly like a crash or OOM kill.
            proc.kill()
        finally:
            proc.wait(timeout=30.0)
        assert read_header(snapshot).sim_time > 0
        revived = GridfedDaemon(state, port=0, workers=1, checkpoint_interval=600.0)
        revived.start()
        try:
            final = DaemonClient(revived.address, timeout=10.0).wait(sid, timeout=240.0)
        finally:
            revived.stop()
        assert final["status"] == "completed", final.get("error")
        assert final["fingerprint"] == result_fingerprint(run_scenario(scenario))
