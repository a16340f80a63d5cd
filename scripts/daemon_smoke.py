#!/usr/bin/env python
"""CI daemon smoke: serve scenarios over HTTP, hit the cache, shut down clean.

Starts a ``GridfedDaemon`` on an ephemeral port, then — through the HTTP API
only — submits three reduced-scale scenarios, polls them to completion,
fetches their result summaries, verifies that a duplicate submission is
served instantly from the persistent result cache, and shuts the daemon
down cleanly.  A second phase exercises backpressure end to end: a
``max_pending=1`` daemon is saturated, the overflow submission is refused
with 429 + ``Retry-After``, and a patient client backs off through the 429
window until the slot frees and its submission completes.  A third phase
runs a ``workers=2`` (process-pool) daemon: ``POST /shutdown`` while a
submission of a few seconds is running must leave its record ``queued`` and
no pool process alive, and a restarted daemon must complete it to the
fingerprint of a direct ``run_scenario``.  The blocker of the second phase
and the run of the third are sized to outlast what interrupts them (a
cancel after 1 s, a shutdown once the record reads ``running``).  Exits
non-zero on any failure.

Usage::

    PYTHONPATH=src python scripts/daemon_smoke.py
"""

from __future__ import annotations

import multiprocessing
import sys
import tempfile
import threading
import time

from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.service import DaemonClient, DaemonError, GridfedDaemon


def _fast(seed: int) -> Scenario:
    return Scenario(workload="synthetic", horizon=4 * 3600.0, thin=20, seed=seed)


def _long(seed: int) -> Scenario:
    """About 2.6 s of run time (80 clusters, the full two-day workload):
    over twice the 1 s cancel timer it races."""
    return Scenario(workload="synthetic", thin=1, system_size=80, seed=seed)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gridfed-daemon-smoke-") as state_dir:
        daemon = GridfedDaemon(state_dir, port=0, checkpoint_interval=1800.0)
        daemon.start()
        client = DaemonClient(daemon.address)
        try:
            health = client.health()
            if health.get("status") != "ok":
                print(f"[daemon-smoke] FAIL: health reported {health}", file=sys.stderr)
                return 1
            print(f"[daemon-smoke] daemon healthy at {client.base_url}", flush=True)

            sids = [client.submit(_fast(seed)) for seed in (7, 8, 9)]
            fingerprints = {}
            for sid in sids:
                record = client.wait(sid, timeout=600)
                if record["status"] != "completed":
                    print(f"[daemon-smoke] FAIL: {sid} ended {record['status']}: "
                          f"{record.get('error')}", file=sys.stderr)
                    return 1
                fingerprints[sid] = client.result(sid)["fingerprint"]
                print(f"[daemon-smoke] {sid} completed "
                      f"fingerprint={fingerprints[sid][:16]}…", flush=True)
            if len(set(fingerprints.values())) != len(sids):
                print("[daemon-smoke] FAIL: distinct scenarios produced "
                      "identical fingerprints", file=sys.stderr)
                return 1

            # A duplicate must be completed from the persistent cache by the
            # time submit() returns — no re-execution, same fingerprint.
            t0 = time.perf_counter()
            duplicate = client.submit(_fast(7))
            elapsed = time.perf_counter() - t0
            record = client.status(duplicate)
            if record["status"] != "completed" or not record.get("cached"):
                print(f"[daemon-smoke] FAIL: duplicate was not served from "
                      f"cache: {record}", file=sys.stderr)
                return 1
            if client.result(duplicate)["fingerprint"] != fingerprints[sids[0]]:
                print("[daemon-smoke] FAIL: cached duplicate fingerprint "
                      "differs", file=sys.stderr)
                return 1
            print(f"[daemon-smoke] duplicate served from cache in "
                  f"{elapsed:.3f}s", flush=True)

            client.shutdown()
        finally:
            daemon.stop()
    status = backpressure_phase() or pool_shutdown_phase()
    if status != 0:
        return status
    print("[daemon-smoke] OK: serve loop, cache hit, backpressure, clean shutdown "
          "and pool shutdown requeue")
    return 0


def backpressure_phase() -> int:
    """Queue full -> 429 + Retry-After -> client backs off -> completes."""
    with tempfile.TemporaryDirectory(prefix="gridfed-daemon-bp-") as state_dir:
        daemon = GridfedDaemon(state_dir, port=0, workers=1, max_pending=1)
        daemon.start()
        impatient = DaemonClient(daemon.address, timeout=10.0, retries=0)
        patient = DaemonClient(
            daemon.address, timeout=10.0, retries=60, backoff_base=0.1, backoff_cap=0.5
        )
        try:
            blocker = impatient.submit(_long(10))
            try:
                impatient.submit(_fast(11))
            except DaemonError as exc:
                if exc.status != 429:
                    print(f"[daemon-smoke] FAIL: expected 429, got {exc.status}",
                          file=sys.stderr)
                    return 1
                print("[daemon-smoke] saturated daemon refused overflow with 429",
                      flush=True)
            else:
                print("[daemon-smoke] FAIL: overflow submission was accepted",
                      file=sys.stderr)
                return 1
            if daemon.health()["status"] != "saturated":
                print(f"[daemon-smoke] FAIL: health should report saturated: "
                      f"{daemon.health()}", file=sys.stderr)
                return 1
            # Free the slot shortly; the patient client rides out the 429
            # window with capped jittered backoff and then completes.
            threading.Timer(1.0, lambda: impatient.cancel(blocker)).start()
            t0 = time.perf_counter()
            sid = patient.submit(_fast(11))
            record = patient.wait(sid, timeout=600)
            if record["status"] != "completed":
                print(f"[daemon-smoke] FAIL: backed-off submission ended "
                      f"{record['status']}: {record.get('error')}", file=sys.stderr)
                return 1
            print(f"[daemon-smoke] patient client backed off and completed in "
                  f"{time.perf_counter() - t0:.2f}s", flush=True)
        finally:
            daemon.stop()
    return 0


def pool_shutdown_phase() -> int:
    """workers=2: POST /shutdown requeues the running submission, leaves no
    pool process behind, and a restarted daemon completes it."""
    scenario = _long(31)
    with tempfile.TemporaryDirectory(prefix="gridfed-daemon-pool-") as state_dir:
        daemon = GridfedDaemon(state_dir, port=0, workers=2, checkpoint_interval=600.0)
        daemon.start()
        client = DaemonClient(daemon.address, timeout=10.0)
        try:
            sid = client.submit(scenario)
            deadline = time.monotonic() + 60.0
            while client.status(sid)["status"] != "running":
                if time.monotonic() > deadline:
                    print(f"[daemon-smoke] FAIL: {sid} never started running",
                          file=sys.stderr)
                    return 1
                time.sleep(0.02)
            client.shutdown()
        finally:
            daemon.stop()  # returns once the shutdown has finished
        status = daemon.state.load_record(sid)["status"]
        if status != "queued":
            print(f"[daemon-smoke] FAIL: shutdown left {sid} {status}, "
                  "not queued", file=sys.stderr)
            return 1
        alive = multiprocessing.active_children()
        if alive:
            print(f"[daemon-smoke] FAIL: pool processes survived shutdown: "
                  f"{alive}", file=sys.stderr)
            return 1
        print(f"[daemon-smoke] workers=2 shutdown requeued {sid}, no pool "
              "process left", flush=True)
        revived = GridfedDaemon(state_dir, port=0, workers=2, checkpoint_interval=600.0)
        revived.start()
        try:
            record = DaemonClient(revived.address, timeout=10.0).wait(sid, timeout=600)
        finally:
            revived.stop()
        expected = result_fingerprint(run_scenario(scenario))
        if record["status"] != "completed" or record["fingerprint"] != expected:
            print(f"[daemon-smoke] FAIL: resumed {sid} ended {record['status']} "
                  f"with fingerprint {record.get('fingerprint')}, expected "
                  f"{expected}", file=sys.stderr)
            return 1
        print(f"[daemon-smoke] restarted daemon completed {sid} "
              f"fingerprint={expected[:16]}…", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
