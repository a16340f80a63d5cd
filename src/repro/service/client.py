"""A resilient stdlib HTTP client for the ``gridfed daemon`` endpoints.

:class:`DaemonClient` wraps :mod:`urllib.request` — no third-party HTTP
stack — and speaks the JSON protocol documented in
:mod:`repro.service.daemon`: submit a scenario, poll or stream its
progress, fetch the result summary, cancel, and shut the daemon down.
``examples/daemon_client.py`` shows the full round trip.

Resilience semantics (mirroring the simulation-side policy layer):

* transient failures — connection refused/reset, socket timeouts, HTTP 429
  (backpressure) and 5xx — are retried with capped, jittered exponential
  backoff; a 429's ``Retry-After`` header is honoured as the wait;
* a connection that stays down through every retry raises
  :class:`DaemonUnavailable` (a :class:`DaemonError` subclass), so callers
  can distinguish "daemon gone" from a protocol-level error;
* :meth:`DaemonClient.wait` survives a daemon kill + restart mid-wait: it
  keeps polling through :class:`DaemonUnavailable` windows until its own
  deadline, because the durable queue re-adopts in-flight submissions on
  the next daemon start;
* :meth:`DaemonClient.stream_progress` transparently reconnects a dropped
  stream (observations may repeat across a reconnect; each carries the full
  latest state, so consumers lose nothing).
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, Iterator, Optional, Union
from urllib import error, request

from repro.scenario.scenario import Scenario

__all__ = ["DaemonError", "DaemonUnavailable", "DaemonClient"]

#: HTTP statuses worth retrying: backpressure and transient server errors.
_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class DaemonError(RuntimeError):
    """An error response from the daemon (carries the HTTP status)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"daemon returned {status}: {message}")
        self.status = status


class DaemonUnavailable(DaemonError):
    """The daemon could not be reached at all (after every retry)."""

    def __init__(self, message: str):
        super().__init__(0, message)


class DaemonClient:
    """Client for one running ``gridfed daemon``.

    Parameters
    ----------
    base_url:
        The daemon's address, e.g. ``"http://127.0.0.1:8414"`` (printed by
        ``gridfed daemon`` on startup; also ``GridfedDaemon.address``).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts after a transient failure (connection error, timeout,
        429 or 5xx).  ``0`` disables retrying entirely.
    backoff_base, backoff_cap:
        Exponential backoff parameters: attempt ``n`` sleeps
        ``base * 2**n`` seconds (plus up to 50% jitter), capped at
        ``backoff_cap``; a 429's ``Retry-After`` header overrides the wait.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 4,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _backoff_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        if retry_after is not None:
            return min(max(retry_after, 0.0), self.backoff_cap)
        delay = self.backoff_base * (2.0**attempt)
        delay *= 1.0 + 0.5 * random.random()
        return min(delay, self.backoff_cap)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        retries: Optional[int] = None,
        prefer: Optional[str] = None,
    ) -> Dict[str, object]:
        data = None
        headers = {"Accept": "application/json"}
        if prefer is not None:
            headers["Prefer"] = prefer
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempts = (self.retries if retries is None else retries) + 1
        last_connection_error: Optional[Exception] = None
        for attempt in range(attempts):
            req = request.Request(
                self.base_url + path, data=data, headers=headers, method=method
            )
            retry_after: Optional[float] = None
            try:
                with request.urlopen(req, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except error.HTTPError as exc:
                try:
                    message = json.loads(exc.read().decode("utf-8")).get("error", "")
                except (ValueError, OSError):
                    message = exc.reason
                if exc.code not in _RETRYABLE_STATUSES or attempt == attempts - 1:
                    raise DaemonError(exc.code, str(message)) from None
                header = exc.headers.get("Retry-After") if exc.headers else None
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
                last_connection_error = None
            except (error.URLError, ConnectionError, TimeoutError, OSError) as exc:
                # Connection refused/reset, DNS failure, socket timeout: the
                # daemon may be restarting — back off and try again.
                if attempt == attempts - 1:
                    raise DaemonUnavailable(
                        f"{method} {path} failed after {attempts} attempt(s): {exc}"
                    ) from None
                last_connection_error = exc
            time.sleep(self._backoff_delay(attempt, retry_after))
        # Unreachable: every loop path returns or raises on the last attempt.
        raise DaemonUnavailable(
            f"{method} {path} failed: {last_connection_error}"
        )  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Liveness probe: worker count plus per-status job counts."""
        return self._request("GET", "/health")

    def jobs(self) -> list:
        """Every submission record the daemon knows about."""
        return self._request("GET", "/jobs")["jobs"]

    def submit(
        self,
        scenario: Union[Scenario, Dict[str, object]],
        checkpoint_interval: Optional[float] = None,
    ) -> str:
        """Submit a scenario; returns the submission id.

        A scenario already memoised in the daemon's persistent cache
        completes within this call (its record comes back ``completed`` with
        ``cached: true``).  A 429 (queue full) is retried with backoff,
        honouring the daemon's ``Retry-After``; the final 429 surfaces as a
        :class:`DaemonError` with ``status == 429``.
        """
        if isinstance(scenario, Scenario):
            from repro.service.daemon import scenario_to_fields

            fields: Dict[str, object] = scenario_to_fields(scenario)
        else:
            fields = dict(scenario)
        payload: Dict[str, object] = {"scenario": fields}
        if checkpoint_interval is not None:
            payload["checkpoint_interval"] = checkpoint_interval
        record = self._request("POST", "/jobs", payload)
        return str(record["id"])

    def status(self, sid: str) -> Dict[str, object]:
        """The submission record, including the latest progress snapshot."""
        return self._request("GET", f"/jobs/{sid}")

    def result(self, sid: str) -> Dict[str, object]:
        """The result summary of a completed submission (409 until then)."""
        return self._request("GET", f"/jobs/{sid}/result")["result"]

    def cancel(self, sid: str) -> Dict[str, object]:
        """Request cooperative cancellation; returns the updated record."""
        return self._request("POST", f"/jobs/{sid}/cancel")

    def shutdown(self) -> None:
        """Ask the daemon to shut down cleanly (in-flight runs requeue).

        Never retried: re-sending a shutdown to a daemon that is already
        going down only races its socket teardown.
        """
        try:
            self._request("POST", "/shutdown", retries=0)
        except (DaemonUnavailable, error.URLError, ConnectionError, OSError):
            pass  # the daemon may die before finishing the response

    # ------------------------------------------------------------------ #
    # Conveniences
    # ------------------------------------------------------------------ #
    def wait(
        self, sid: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict[str, object]:
        """Poll until the submission reaches a terminal state; return it.

        Each poll asks the daemon to hold its answer until the submission
        settles (``Prefer: wait``, for at most half the socket timeout), so
        a completion is seen when it happens, not up to ``poll`` seconds
        later.  An answer that comes back unsettled is followed by the
        usual ``poll``-second sleep.

        Survives a daemon kill + restart mid-wait: unreachable-daemon
        windows (:class:`DaemonUnavailable`) are absorbed and polling
        continues until ``timeout``, because the durable queue re-adopts
        in-flight submissions when the daemon comes back.
        """
        deadline = time.monotonic() + timeout
        record: Optional[Dict[str, object]] = None
        while True:
            try:
                hold = deadline - time.monotonic()
                if self.timeout is not None:
                    hold = min(hold, self.timeout / 2)
                record = self._request(
                    "GET", f"/jobs/{sid}", prefer=f"wait={max(int(hold), 0)}"
                )
                if record.get("status") in ("completed", "failed", "cancelled"):
                    return record
            except DaemonUnavailable:
                if time.monotonic() >= deadline:
                    raise
            if time.monotonic() >= deadline:
                status = record.get("status") if record else "unreachable"
                raise TimeoutError(
                    f"submission {sid} still {status} after {timeout:.0f}s"
                )
            time.sleep(poll)

    def stream_progress(self, sid: str) -> Iterator[Dict[str, object]]:
        """Yield streamed progress observations until the run terminates.

        Each item is ``{"id", "status", "progress"}``; the last one has a
        terminal status.  A dropped stream (daemon restarted, connection
        reset) is reconnected with backoff; observations may repeat across
        the reconnect, and each carries the full latest state.
        """
        attempts = self.retries + 1
        for attempt in range(attempts):
            req = request.Request(
                self.base_url + f"/jobs/{sid}/progress?stream=1",
                headers={"Accept": "application/x-ndjson"},
            )
            try:
                with request.urlopen(req, timeout=self.timeout) as response:
                    for line in response:
                        line = line.strip()
                        if line:
                            observation = json.loads(line.decode("utf-8"))
                            yield observation
                            if observation.get("status") in (
                                "completed",
                                "failed",
                                "cancelled",
                            ):
                                return
                return
            except error.HTTPError as exc:
                try:
                    message = json.loads(exc.read().decode("utf-8")).get("error", "")
                except (ValueError, OSError):
                    message = exc.reason
                raise DaemonError(exc.code, str(message)) from None
            except (error.URLError, ConnectionError, TimeoutError, OSError) as exc:
                if attempt == attempts - 1:
                    raise DaemonUnavailable(
                        f"progress stream for {sid} dropped after "
                        f"{attempts} attempt(s): {exc}"
                    ) from None
                time.sleep(self._backoff_delay(attempt, None))
