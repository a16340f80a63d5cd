"""End-to-end tests of the ``gridfed daemon`` serving loop over real HTTP.

Every test here drives an in-process :class:`GridfedDaemon` bound to a free
loopback port through the stdlib :class:`DaemonClient` — real sockets, real
JSON, the same code path as ``gridfed daemon``.  Covered: submission of
several scenarios, instant memoised duplicates (including across a daemon
restart, via the persistent cache), cancellation, progress reporting,
error responses, and the durable-queue recovery path.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request

import pytest

from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.service import DaemonClient, DaemonError, GridfedDaemon
from repro.service.daemon import QueueFullError, scenario_from_fields, scenario_to_fields

#: Small-but-active scenarios: the compressed synthetic horizon keeps each
#: run well under a second while still migrating and settling payments.
def _fast(seed=7, **overrides):
    fields = dict(workload="synthetic", horizon=4 * 3600.0, thin=20, seed=seed)
    fields.update(overrides)
    return Scenario(**fields)


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

    def test_cancel_queued_submission(self, daemon, client):
        # Fill the single worker with a long run, then cancel one behind it.
        blocker = client.submit(_fast(seed=20, thin=4, horizon=12 * 3600.0))
        victim = client.submit(_fast(seed=21, thin=4, horizon=12 * 3600.0))
        record = client.cancel(victim)
        assert record["status"] == "cancelled"
        assert client.wait(victim, timeout=10.0)["status"] == "cancelled"
        client.cancel(blocker)  # cooperative: between chunks
        assert client.wait(blocker, timeout=120.0)["status"] in (
            "cancelled",
            "completed",  # may have finished before the marker was seen
        )

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
        sid = client.submit(_fast(seed=24, thin=4, horizon=12 * 3600.0))
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
            blocker = impatient.submit(_fast(seed=40, thin=1, horizon=72 * 3600.0))
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
            blocker = impatient.submit(_fast(seed=43, thin=1, horizon=72 * 3600.0))
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
            daemon._httpd.server_close()

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
        scenario = _fast(seed=60, thin=1, horizon=72 * 3600.0)
        sid = client.submit(scenario)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if client.status(sid)["status"] == "running":
                break
            time.sleep(0.02)
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
        first._httpd.server_close()

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

    def test_shutdown_requeues_in_flight_run(self, tmp_path):
        """A clean shutdown puts the in-flight run back to 'queued' with its
        checkpoint retained, ready for the next daemon life."""
        state = tmp_path / "state"
        daemon = GridfedDaemon(
            state, port=0, workers=1, checkpoint_interval=600.0
        )
        daemon.start()
        client = DaemonClient(daemon.address, timeout=10.0)
        sid = client.submit(_fast(seed=31, thin=2, horizon=24 * 3600.0))
        # Wait until it is actually running, then stop the daemon.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if client.status(sid)["status"] == "running":
                break
            time.sleep(0.05)
        daemon.stop()
        status = daemon.state.load_record(sid)["status"]
        assert status in ("queued", "completed")
        if status == "completed":
            pytest.skip("run finished before shutdown could interrupt it")
        revived = GridfedDaemon(state, port=0, workers=1, checkpoint_interval=600.0)
        revived.start()
        try:
            fresh = DaemonClient(revived.address, timeout=10.0)
            final = fresh.wait(sid, timeout=240.0)
            assert final["status"] == "completed", final.get("error")
            assert final["fingerprint"] == result_fingerprint(
                run_scenario(_fast(seed=31, thin=2, horizon=24 * 3600.0))
            )
        finally:
            revived.stop()
