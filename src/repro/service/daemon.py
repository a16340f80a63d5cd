"""``gridfed daemon``: a long-lived scenario-serving loop over local HTTP.

The daemon accepts scenario submissions as JSON, runs them on a worker pool
with the same scenario-hash memoisation as
:class:`~repro.scenario.runner.SweepRunner` — backed by a
:class:`~repro.service.cache.PersistentResultCache` on disk, so duplicates
are served instantly even across daemon restarts — and exposes
submit / status / result / cancel plus streamed progress (percent of
virtual time, jobs completed).  Everything is stdlib: ``http.server`` for
the endpoint, ``json`` records on disk for durability.

Durability model (all under the daemon's state directory)::

    jobs/<id>.json         submission record (scenario, status, fingerprint)
    results/<id>.json      result summary, written on completion
    progress/<id>.json     latest RunProgress observation
    checkpoints/<id>/      checkpoint of the in-flight run: a serial run's
                           latest.ckpt, or a sharded run's shard snapshots
                           committed by par-state.bin
    cancel/<id>            cooperative-cancellation marker
    stop                   shutdown marker, written by stop(), cleared by
                           start()
    cache/                 the persistent memo cache (shared with sweeps)

Every submission, serial or sharded (``parallel >= 2``), is one
:func:`~repro.scenario.runner.run_scenario` call with its checkpoint
directory and a progress callback that also carries cancellation.  A daemon
killed (even with SIGKILL) and restarted re-enqueues its queued and running
submissions, and each interrupted run continues from its last checkpoint —
byte-identically, by the same resume oracles that cover
``gridfed run --resume``.

Worker model: with ``workers == 1`` (the default) submissions execute on a
dedicated thread inside the daemon process; with ``workers > 1`` they fan
out across a ``ProcessPoolExecutor`` exactly like a parallel sweep.  Both
paths run the same :func:`execute_submission` function, which operates
purely on the disk state — that is what makes crash recovery trivial — and
both stop the same way: :meth:`GridfedDaemon.stop` writes the shutdown
marker, each in-flight run sees it at its next step boundary (where it
checks its cancel marker) and goes back to ``queued`` with its checkpoint
kept, and ``stop`` returns once the worker thread or the pool has exited.

Endpoints (all JSON)::

    GET  /health                    liveness + queue counts; "degraded" from
                                    80% queue capacity, "saturated" at 100%
    GET  /jobs                      every submission record
    POST /jobs                      {"scenario": {...}} -> record  (submit);
                                    429 + Retry-After once queued+running
                                    reaches the --max-pending bound
    GET  /jobs/<id>                 record + latest progress       (status)
    GET  /jobs/<id>/result          result summary (409 until completed)
    POST /jobs/<id>/cancel          cooperative cancel
    GET  /jobs/<id>/progress        latest progress; ?stream=1 streams
                                    JSON lines until the run terminates
    POST /shutdown                  clean shutdown (in-flight runs are
                                    requeued at the next step boundary)
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import queue as queue_module
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.scenario import UnknownVariantError, result_fingerprint, run_scenario
from repro.scenario.scenario import Scenario
from repro.service.cache import PersistentResultCache
from repro.service.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CancelledRun,
    RunProgress,
    checked_interval,
)

__all__ = [
    "GridfedDaemon",
    "DaemonState",
    "QueueFullError",
    "scenario_to_fields",
    "scenario_from_fields",
    "execute_submission",
    "result_summary",
]

#: Default bound on queued + running submissions (backpressure threshold).
DEFAULT_MAX_PENDING = 256

#: Default wall-clock budget for reading one HTTP request (seconds).
DEFAULT_REQUEST_DEADLINE = 30.0


class QueueFullError(RuntimeError):
    """The daemon's submission queue is at capacity (HTTP 429 upstream).

    Carries ``retry_after`` — the seconds a well-behaved client should wait
    before retrying, served as the 429 response's ``Retry-After`` header.
    """

    def __init__(self, pending: int, capacity: int, retry_after: float = 1.0):
        super().__init__(
            f"submission queue is full ({pending}/{capacity} pending); "
            f"retry in {retry_after:.0f}s"
        )
        self.pending = pending
        self.capacity = capacity
        self.retry_after = retry_after

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}

#: Submission life-cycle states.
_ACTIVE = ("queued", "running")
_TERMINAL = ("completed", "failed", "cancelled")


def scenario_to_fields(scenario: Scenario) -> Dict[str, object]:
    """A JSON-safe dict of every scenario field (enums as value strings)."""
    fields: Dict[str, object] = {}
    for field in dataclasses.fields(scenario):
        value = getattr(scenario, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        fields[field.name] = value
    return fields


def scenario_from_fields(fields: Dict[str, object]) -> Scenario:
    """Build (and validate) a :class:`Scenario` from submitted JSON fields."""
    if not isinstance(fields, dict):
        raise ValueError("scenario must be a JSON object of Scenario fields")
    unknown = set(fields) - _SCENARIO_FIELDS
    if unknown:
        raise ValueError(
            f"unknown scenario fields: {', '.join(sorted(map(str, unknown)))}; "
            f"known fields: {', '.join(sorted(_SCENARIO_FIELDS))}"
        )
    return Scenario(**fields)


def result_summary(result, fingerprint: str) -> Dict[str, object]:
    """The JSON-safe digest of a result the daemon serves over HTTP."""
    return {
        "fingerprint": fingerprint,
        "jobs": len(result.jobs),
        "completed": len(result.completed_jobs()),
        "rejected": len(result.rejected_jobs()),
        "failed": len(result.failed_jobs()),
        "total_incentive": round(result.total_incentive(), 9),
        "total_messages": result.message_log.total_messages,
        "events_processed": result.events_processed,
        "observation_period": round(result.observation_period, 9),
        "resources": {
            name: {
                "utilisation": round(outcome.utilisation, 9),
                "incentive": round(outcome.incentive, 9),
                "remote_jobs_processed": outcome.remote_jobs_processed,
            }
            for name, outcome in sorted(result.resources.items())
        },
    }


def _write_json_atomic(path: str, payload: Dict[str, object]) -> None:
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".json-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class DaemonState:
    """The daemon's durable on-disk state (records, progress, checkpoints).

    Pure disk operations with atomic JSON writes — both the daemon process
    and pool worker processes instantiate one over the same directory, which
    is what lets a killed daemon recover by re-reading it.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)
        for sub in ("jobs", "results", "progress", "checkpoints", "cancel", "cache"):
            os.makedirs(os.path.join(self.directory, sub), exist_ok=True)

    # -------------------------- submission records --------------------- #
    def _record_path(self, sid: str) -> str:
        return os.path.join(self.directory, "jobs", f"{sid}.json")

    def save_record(self, record: Dict[str, object]) -> None:
        _write_json_atomic(self._record_path(str(record["id"])), record)

    def load_record(self, sid: str) -> Optional[Dict[str, object]]:
        try:
            with open(self._record_path(sid), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def list_records(self) -> List[Dict[str, object]]:
        records = []
        jobs_dir = os.path.join(self.directory, "jobs")
        for name in os.listdir(jobs_dir):
            if name.endswith(".json"):
                record = self.load_record(name[: -len(".json")])
                if record is not None:
                    records.append(record)
        records.sort(key=lambda record: record.get("order", 0))
        return records

    def allocate_id(self) -> str:
        orders = [record.get("order", 0) for record in self.list_records()]
        order = (max(orders) + 1) if orders else 1
        return f"job-{order:06d}"

    # ------------------------------ results ----------------------------- #
    def _result_path(self, sid: str) -> str:
        return os.path.join(self.directory, "results", f"{sid}.json")

    def save_result_summary(self, sid: str, summary: Dict[str, object]) -> None:
        _write_json_atomic(self._result_path(sid), summary)

    def load_result_summary(self, sid: str) -> Optional[Dict[str, object]]:
        try:
            with open(self._result_path(sid), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # ------------------------------ progress ---------------------------- #
    def _progress_path(self, sid: str) -> str:
        return os.path.join(self.directory, "progress", f"{sid}.json")

    def save_progress(self, sid: str, progress: RunProgress) -> None:
        payload = dataclasses.asdict(progress)
        payload["percent"] = round(progress.percent, 3)
        _write_json_atomic(self._progress_path(sid), payload)

    def load_progress(self, sid: str) -> Optional[Dict[str, object]]:
        try:
            with open(self._progress_path(sid), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # --------------------- cancellation and shutdown -------------------- #
    def _cancel_path(self, sid: str) -> str:
        return os.path.join(self.directory, "cancel", sid)

    def request_cancel(self, sid: str) -> None:
        with open(self._cancel_path(sid), "w", encoding="utf-8"):
            pass

    def cancel_requested(self, sid: str) -> bool:
        return os.path.exists(self._cancel_path(sid))

    def _stop_path(self) -> str:
        return os.path.join(self.directory, "stop")

    def request_stop(self) -> None:
        with open(self._stop_path(), "w", encoding="utf-8"):
            pass

    def clear_stop(self) -> None:
        try:
            os.unlink(self._stop_path())
        except FileNotFoundError:
            pass

    def stop_requested(self) -> bool:
        return os.path.exists(self._stop_path())

    # --------------------------- checkpoints ----------------------------- #
    def checkpoint_dir(self, sid: str) -> str:
        return os.path.join(self.directory, "checkpoints", sid)

    def drop_checkpoints(self, sid: str) -> None:
        shutil.rmtree(self.checkpoint_dir(sid), ignore_errors=True)

    def cache_dir(self) -> str:
        return os.path.join(self.directory, "cache")


def _update_record(state: DaemonState, sid: str, **changes) -> Dict[str, object]:
    record = state.load_record(sid) or {"id": sid, "order": 0}
    record.update(changes)
    state.save_record(record)
    return record


def execute_submission(state_dir: str, sid: str, checkpoint_interval: float) -> None:
    """Run one submission to a terminal state, operating purely on disk.

    Module-level so a :class:`ProcessPoolExecutor` worker can run it as well
    as an in-daemon thread.  Checks the memo cache first (instant completion
    for duplicates), then makes one :func:`~repro.scenario.runner.
    run_scenario` call with the submission's checkpoint directory: the run
    continues from the checkpoint there when one exists (daemon restarted
    mid-run), checkpoints and reports progress periodically while running,
    and honours cooperative cancellation and daemon shutdown (marker files
    in the state directory, checked at every step boundary; on shutdown the
    run is requeued so the next daemon start resumes it).

    Serial and sharded (``parallel >= 2``) submissions take the same path.
    A sharded run's record gains a ``parallel`` stats block, and a run that
    exhausts its restart budget lands as ``failed`` with the worker-failure
    detail instead of degrading to a serial re-run.
    """
    state = DaemonState(state_dir)
    record = state.load_record(sid)
    if record is None or record.get("status") not in _ACTIVE:
        return
    if state.cancel_requested(sid):
        _update_record(state, sid, status="cancelled")
        return
    if state.stop_requested():
        return  # still queued: the next daemon start runs it
    try:
        scenario = scenario_from_fields(record["scenario"])
    except (ValueError, UnknownVariantError, UnicodeError) as exc:
        _update_record(state, sid, status="failed", error=str(exc))
        return
    override = record.get("checkpoint_interval")
    if override is not None:
        checkpoint_interval = float(override)
    key = scenario.scenario_hash()
    cache = PersistentResultCache(state.cache_dir())
    try:
        result = cache[key]
    except KeyError:
        result = None
    if result is not None:
        fingerprint = result_fingerprint(result)
        state.save_result_summary(sid, result_summary(result, fingerprint))
        _update_record(
            state, sid, status="completed", cached=True, fingerprint=fingerprint
        )
        return

    def on_progress(progress: RunProgress) -> None:
        state.save_progress(sid, progress)
        if not progress.done:
            if state.cancel_requested(sid):
                raise CancelledRun(f"submission {sid} cancelled")
            if state.stop_requested():
                raise CancelledRun(f"daemon shutting down; {sid} requeued")

    supervision = None
    if scenario.parallel >= 2:
        # Imported only for sharded submissions: serial ones never load the
        # parallel engine.
        from repro.par.supervisor import SupervisionConfig

        # Exhaustion must fail the record, not go serial.
        supervision = SupervisionConfig(degrade=False)
    _update_record(state, sid, status="running")
    changes: Dict[str, object] = {}
    try:
        result = run_scenario(
            scenario,
            checkpoint_dir=state.checkpoint_dir(sid),
            checkpoint_every=checkpoint_interval,
            on_progress=on_progress,
            supervision=supervision,
        )
    except CancelledRun:
        if state.cancel_requested(sid):
            _update_record(state, sid, status="cancelled")
        else:
            # Shutdown interruption: back to the queue, checkpoint retained —
            # the next daemon start resumes from it.
            _update_record(state, sid, status="queued")
        return
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the pool
        if supervision is not None:
            from repro.par.supervisor import ParallelRunFailed

            if isinstance(exc, ParallelRunFailed):
                # The stats (restarts, worker_failures, failure_detail)
                # outlive the failed run: the record explains *why*.
                changes["parallel"] = exc.stats.to_json()
        _update_record(
            state, sid, status="failed", error=f"{type(exc).__name__}: {exc}", **changes
        )
        return
    fingerprint = result_fingerprint(result)
    cache[key] = result
    state.save_result_summary(sid, result_summary(result, fingerprint))
    if result.parallel is not None and result.parallel.ran_parallel:
        changes["parallel"] = result.parallel.to_json()
    _update_record(
        state, sid, status="completed", cached=False, fingerprint=fingerprint, **changes
    )
    state.drop_checkpoints(sid)


class GridfedDaemon:
    """The serving loop: HTTP endpoint + worker pool + durable queue."""

    def __init__(
        self,
        state_dir: str | os.PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        checkpoint_interval: float = DEFAULT_CHECKPOINT_INTERVAL,
        max_pending: int = DEFAULT_MAX_PENDING,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
    ):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        checked_interval(checkpoint_interval)
        if max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        if request_deadline <= 0:
            raise ValueError(
                f"request_deadline must be positive, got {request_deadline}"
            )
        self.state = DaemonState(state_dir)
        self.cache = PersistentResultCache(self.state.cache_dir())
        self.workers = workers
        self.checkpoint_interval = checkpoint_interval
        self.max_pending = max_pending
        self.request_deadline = request_deadline
        self._tasks: "queue_module.Queue[str]" = queue_module.Queue()
        self._lock = threading.Lock()
        self._stop_lock = threading.Lock()
        self._stopping = threading.Event()
        self._threads: List[threading.Thread] = []
        self._httpd = _DaemonHTTPServer((host, port), _DaemonRequestHandler)
        self._httpd.daemon_ref = self
        self._recover()

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    # Life cycle
    # ------------------------------------------------------------------ #
    def _recover(self) -> None:
        """Re-enqueue submissions a previous daemon life left unfinished."""
        for record in self.state.list_records():
            sid = str(record["id"])
            if record.get("status") in _ACTIVE:
                if self.state.cancel_requested(sid):
                    _update_record(self.state, sid, status="cancelled")
                else:
                    _update_record(self.state, sid, status="queued")
                    self._tasks.put(sid)

    def start(self) -> None:
        """Start the worker pool and serve HTTP on a background thread."""
        self.state.clear_stop()
        if self.workers > 1:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool = pool
            dispatcher = threading.Thread(
                target=self._dispatch_to_pool, name="gridfed-dispatch", daemon=True
            )
            dispatcher.start()
            self._threads.append(dispatcher)
        else:
            self._pool = None
            worker = threading.Thread(
                target=self._work_in_process, name="gridfed-worker", daemon=True
            )
            worker.start()
            self._threads.append(worker)
        http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="gridfed-http", daemon=True
        )
        http_thread.start()
        self._threads.append(http_thread)

    def serve_forever(self) -> None:
        """Blocking entry point used by ``gridfed daemon``."""
        self.start()
        try:
            while not self._stopping.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Clean shutdown: stop accepting, requeue in-flight, stop serving.

        Returns once every in-flight run has been requeued at its next step
        boundary and the worker thread or pool has exited; a second call
        waits for the first.
        """
        with self._stop_lock:
            self.state.request_stop()
            self._stopping.set()
            self._httpd.shutdown()
            self._httpd.server_close()
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join(timeout=30.0)
            pool = getattr(self, "_pool", None)
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #
    def _next_task(self) -> Optional[str]:
        try:
            return self._tasks.get(timeout=0.2)
        except queue_module.Empty:
            return None

    def _work_in_process(self) -> None:
        while not self._stopping.is_set():
            sid = self._next_task()
            if sid is not None:
                execute_submission(self.state.directory, sid, self.checkpoint_interval)

    def _dispatch_to_pool(self) -> None:
        while not self._stopping.is_set():
            sid = self._next_task()
            if sid is not None:
                self._pool.submit(
                    execute_submission,
                    self.state.directory,
                    sid,
                    self.checkpoint_interval,
                )

    # ------------------------------------------------------------------ #
    # Operations called by the HTTP handler
    # ------------------------------------------------------------------ #
    def _pending_count(self) -> int:
        """Queued + running submissions (the backpressure measure)."""
        return sum(
            1
            for record in self.state.list_records()
            if record.get("status") in _ACTIVE
        )

    def submit(
        self,
        fields: Dict[str, object],
        checkpoint_interval: Optional[float] = None,
    ) -> Dict[str, object]:
        scenario = scenario_from_fields(fields)  # raises on invalid input
        if checkpoint_interval is not None:
            checked_interval(checkpoint_interval)  # HTTP 400 before queuing
        key = scenario.scenario_hash()
        with self._lock:
            pending = self._pending_count()
            if pending >= self.max_pending:
                # Bounded admission: shed load instead of queueing without
                # limit.  Memoised duplicates are shed too — serving them
                # would still read the whole cache under a saturated daemon.
                raise QueueFullError(pending, self.max_pending)
            sid = self.state.allocate_id()
            order = int(sid.split("-")[1])
            record: Dict[str, object] = {
                "id": sid,
                "order": order,
                "scenario": scenario_to_fields(scenario),
                "scenario_hash": key,
                "status": "queued",
                "cached": False,
                "fingerprint": None,
                "error": None,
                "parallel": None,
                "checkpoint_interval": checkpoint_interval,
            }
            try:
                result = self.cache[key]
            except KeyError:
                result = None
            if result is not None:
                # Memoised duplicate: completed in the submit call itself.
                fingerprint = result_fingerprint(result)
                record.update(status="completed", cached=True, fingerprint=fingerprint)
                self.state.save_record(record)
                self.state.save_result_summary(sid, result_summary(result, fingerprint))
                return record
            self.state.save_record(record)
        self._tasks.put(sid)
        return record

    def cancel(self, sid: str) -> Dict[str, object]:
        record = self.state.load_record(sid)
        if record is None:
            raise KeyError(sid)
        if record.get("status") in _TERMINAL:
            return record
        self.state.request_cancel(sid)
        if record.get("status") == "queued":
            record = _update_record(self.state, sid, status="cancelled")
        return record

    def status(self, sid: str) -> Dict[str, object]:
        record = self.state.load_record(sid)
        if record is None:
            raise KeyError(sid)
        progress = self.state.load_progress(sid)
        if progress is not None:
            record = dict(record)
            record["progress"] = progress
        return record

    def health(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        par_runs = par_restarts = par_failures = par_failed = 0
        for record in self.state.list_records():
            status = str(record.get("status"))
            counts[status] = counts.get(status, 0) + 1
            par = record.get("parallel")
            if isinstance(par, dict):
                par_runs += 1
                par_restarts += int(par.get("restarts") or 0)
                par_failures += int(par.get("worker_failures") or 0)
                if status == "failed":
                    par_failed += 1
        pending = counts.get("queued", 0) + counts.get("running", 0)
        # Graceful degradation reporting: "degraded" from 80% capacity —
        # load balancers can drain early instead of slamming into 429s.
        status = "ok"
        if pending >= self.max_pending:
            status = "saturated"
        elif pending >= 0.8 * self.max_pending:
            status = "degraded"
        return {
            "status": status,
            "workers": self.workers,
            "checkpoint_interval": self.checkpoint_interval,
            "jobs": counts,
            "pending": pending,
            "capacity": self.max_pending,
            # Supervision counters: why parallel submissions got slower (or
            # failed) — restarts and worker faults across all records.
            "parallel": {
                "runs": par_runs,
                "restarts": par_restarts,
                "worker_failures": par_failures,
                "failed": par_failed,
            },
        }


class _DaemonHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    daemon_ref: "GridfedDaemon"


class _DaemonRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _DaemonHTTPServer

    # --------------------------- plumbing ------------------------------ #
    def setup(self) -> None:
        # Per-request deadline: a stalled or half-open client connection
        # times out instead of pinning a handler thread forever.
        self.timeout = self.server.daemon_ref.request_deadline
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are not worth a stderr line each

    def _send_json(
        self,
        payload: Dict[str, object],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, message: str, status: int, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_json({"error": message}, status=status, headers=headers)

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ---------------------------- routing ------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        daemon = self.server.daemon_ref
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["health"]:
                self._send_json(daemon.health())
            elif parts == ["jobs"]:
                self._send_json({"jobs": daemon.state.list_records()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(daemon.status(parts[1]))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                self._get_result(daemon, parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "progress":
                stream = parse_qs(url.query).get("stream", ["0"])[0] not in ("0", "")
                self._get_progress(daemon, parts[1], stream)
            else:
                self._error(f"no such endpoint: GET {url.path}", 404)
        except KeyError:
            self._error(f"unknown submission id {parts[1]!r}", 404)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        daemon = self.server.daemon_ref
        parts = [part for part in urlsplit(self.path).path.split("/") if part]
        try:
            if parts == ["jobs"] or parts == ["submit"]:
                payload = self._read_body()
                fields = payload.get("scenario", payload)
                interval = payload.get("checkpoint_interval")
                record = daemon.submit(fields, checkpoint_interval=interval)
                self._send_json(record, status=201)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._send_json(daemon.cancel(parts[1]))
            elif parts == ["shutdown"]:
                self._send_json({"status": "shutting down"})
                threading.Thread(target=daemon.stop, daemon=True).start()
            else:
                self._error(f"no such endpoint: POST {self.path}", 404)
        except QueueFullError as exc:
            # Explicit backpressure: the client should back off and retry.
            self._error(
                str(exc), 429, headers={"Retry-After": f"{exc.retry_after:.0f}"}
            )
        except KeyError:
            self._error(f"unknown submission id {parts[1]!r}", 404)
        except (ValueError, TypeError, UnknownVariantError) as exc:
            self._error(str(exc), 400)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    # --------------------------- endpoints ------------------------------ #
    def _get_result(self, daemon: GridfedDaemon, sid: str) -> None:
        record = daemon.state.load_record(sid)
        if record is None:
            raise KeyError(sid)
        status = record.get("status")
        if status != "completed":
            self._error(
                f"submission {sid} is {status}, no result yet"
                if status in _ACTIVE
                else f"submission {sid} is {status}: {record.get('error')}",
                409,
            )
            return
        summary = daemon.state.load_result_summary(sid)
        if summary is None:  # pragma: no cover - completed implies summary
            self._error(f"result summary for {sid} is missing", 500)
            return
        self._send_json({"id": sid, "status": status, "result": summary})

    def _get_progress(self, daemon: GridfedDaemon, sid: str, stream: bool) -> None:
        record = daemon.state.load_record(sid)
        if record is None:
            raise KeyError(sid)
        if not stream:
            progress = daemon.state.load_progress(sid) or {}
            self._send_json(
                {"id": sid, "status": record.get("status"), "progress": progress}
            )
            return
        # Streamed mode: JSON lines until the submission reaches a terminal
        # state (readable with any line-buffered HTTP client).
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def emit(payload: Dict[str, object]) -> None:
            line = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
            self.wfile.write(f"{len(line):X}\r\n".encode("ascii") + line + b"\r\n")
            self.wfile.flush()

        last = None
        while True:
            record = daemon.state.load_record(sid) or record
            status = record.get("status")
            progress = daemon.state.load_progress(sid) or {}
            payload = {"id": sid, "status": status, "progress": progress}
            if payload != last:
                emit(payload)
                last = payload
            if status in _TERMINAL or daemon._stopping.is_set():
                break
            time.sleep(0.1)
        self.wfile.write(b"0\r\n\r\n")
