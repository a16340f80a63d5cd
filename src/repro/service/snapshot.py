"""Versioned, atomic snapshots of a live federation simulation.

A snapshot captures *everything* a run needs to continue byte-identically:
the :class:`~repro.sim.engine.Simulator` clock, sequence counter and pending
event heap, every entity (GFAs, LRMS queues, directory or
sharded directory, GridBank, MessageLog, transport state, fault-injector
state), every named RNG stream, and the global job/event id counters that
mid-run fault events consume.  The capture is a whole-object-graph pickle of
the :class:`~repro.core.federation.Federation`: all scheduled callbacks are
bound methods of entities inside that graph, so the pickle memo preserves
every shared reference (e.g. the directory indexes' shared level generator)
and a restored federation is indistinguishable from the original.

File format (version :data:`SNAPSHOT_FORMAT_VERSION`)::

    magic line        b"gridfed-snapshot\\n"
    header length     4 bytes, big endian
    header            JSON (format version, scenario hash, clock, ...)
    payload           pickle (federation, scenario, global counters)

The JSON header is readable without unpickling anything, so compatibility
guards (format version, scenario hash) fail fast *before* any code from the
payload runs, and status tooling can report progress without
paying the unpickle cost.

Writes are atomic: the bytes go to a temporary file in the target directory
which is fsynced and then ``os.replace``-d over the destination, so a reader
(or a resume after SIGKILL) only ever sees a complete snapshot.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import tempfile
from typing import Optional, Tuple

from repro.core.federation import Federation
from repro.scenario.scenario import Scenario
from repro.sim.events import event_counter_state, restore_event_counter
from repro.workload.job import JobStatus, job_counter_state, restore_job_counter

__all__ = [
    "PAR_CHECKPOINT_VERSION",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotMismatchError",
    "SnapshotHeader",
    "write_snapshot",
    "read_header",
    "load_snapshot",
    "write_shard_snapshot",
    "load_shard_snapshot",
    "write_par_state",
    "load_par_state",
]

#: Bump when the snapshot layout or the pickled object graph changes shape
#: incompatibly; resuming across versions fails fast instead of corrupting.
#: v2: the header lost its ``engine`` field, the simulator pickles one heap
#: and an int sequence counter, and user populations keep one pending
#: arrival under reserved sequence numbers.
SNAPSHOT_FORMAT_VERSION = 2

_MAGIC = b"gridfed-snapshot\n"


class SnapshotError(RuntimeError):
    """Raised when a snapshot cannot be written, read or parsed."""


class SnapshotMismatchError(SnapshotError):
    """Raised when a snapshot is valid but incompatible with the resume.

    Covers the two refusal cases: different snapshot format version and
    different scenario hash.  The message always says which side is which
    and what to do about it.
    """


@dataclasses.dataclass(frozen=True)
class SnapshotHeader:
    """The JSON-readable prefix of a snapshot file."""

    format_version: int
    scenario_hash: str
    scenario_summary: str
    sim_time: float
    events_processed: int
    pending_events: int
    jobs_total: int
    jobs_completed: int
    horizon: float

    @property
    def progress(self) -> float:
        """Fraction of the virtual-time horizon covered (clamped to [0, 1])."""
        if self.horizon <= 0:
            return 0.0
        return max(0.0, min(self.sim_time / self.horizon, 1.0))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "SnapshotHeader":
        try:
            fields = json.loads(blob)
            # An older format may carry fields this one dropped: keep the
            # known ones, so the version guard (not a parse error) refuses it.
            known = {field.name for field in dataclasses.fields(cls)}
            return cls(**{name: value for name, value in fields.items() if name in known})
        except (ValueError, TypeError, AttributeError) as exc:
            raise SnapshotError(f"corrupt snapshot header: {exc}") from None


def _build_header(federation: Federation, scenario: Scenario) -> SnapshotHeader:
    jobs = federation._all_jobs
    completed = sum(1 for job in jobs if job.status is JobStatus.COMPLETED)
    return SnapshotHeader(
        format_version=SNAPSHOT_FORMAT_VERSION,
        scenario_hash=scenario.scenario_hash(),
        scenario_summary=scenario.describe(),
        sim_time=federation.sim.now,
        events_processed=federation.sim.events_processed,
        pending_events=federation.sim.pending,
        jobs_total=len(jobs),
        jobs_completed=completed,
        horizon=federation.config.horizon,
    )


def write_snapshot(
    path: str | os.PathLike, federation: Federation, scenario: Scenario
) -> SnapshotHeader:
    """Atomically write a snapshot of a paused (between-events) federation.

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename; a crash at any point leaves
    either the previous snapshot or the new one, never a torn file.
    """
    path = os.fspath(path)
    header = _build_header(federation, scenario)
    payload = {
        "federation": federation,
        "scenario": scenario,
        "job_counter": job_counter_state(),
        "event_counter": event_counter_state(),
    }
    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    header_bytes = header.to_json().encode("utf-8")
    buffer.write(len(header_bytes).to_bytes(4, "big"))
    buffer.write(header_bytes)
    pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".snapshot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return header


def _read_preamble(handle) -> SnapshotHeader:
    magic = handle.read(len(_MAGIC))
    if magic != _MAGIC:
        raise SnapshotError(
            "not a gridfed snapshot (bad magic); expected a file written by "
            "write_snapshot / 'gridfed run --checkpoint'"
        )
    raw_length = handle.read(4)
    if len(raw_length) != 4:
        raise SnapshotError("truncated snapshot (header length missing)")
    length = int.from_bytes(raw_length, "big")
    header_bytes = handle.read(length)
    if len(header_bytes) != length:
        raise SnapshotError("truncated snapshot (incomplete header)")
    return SnapshotHeader.from_json(header_bytes.decode("utf-8"))


def read_header(path: str | os.PathLike) -> SnapshotHeader:
    """Read only the JSON header of a snapshot (no unpickling)."""
    try:
        with open(path, "rb") as handle:
            return _read_preamble(handle)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {os.fspath(path)!r}: {exc}") from None


def verify_compatible(
    header: SnapshotHeader,
    *,
    expected_scenario: Optional[Scenario] = None,
) -> None:
    """Refuse mismatched resumes *before* the payload is unpickled.

    Raises :class:`SnapshotMismatchError` with an actionable message on a
    format-version or scenario-hash mismatch.
    """
    if header.format_version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotMismatchError(
            f"snapshot format version {header.format_version} is not supported "
            f"by this build (which reads version {SNAPSHOT_FORMAT_VERSION}); "
            "re-run the original scenario from scratch with the current code, "
            "or resume with the gridfed version that wrote the snapshot"
        )
    if expected_scenario is not None:
        expected_hash = expected_scenario.scenario_hash()
        if expected_hash != header.scenario_hash:
            raise SnapshotMismatchError(
                "scenario mismatch: the snapshot was taken for scenario "
                f"{header.scenario_hash[:12]}… ({header.scenario_summary}) but "
                f"the resume requested {expected_hash[:12]}… "
                f"({expected_scenario.describe()}); resume without overriding "
                "scenario options, or start a fresh run for the new scenario"
            )


def load_snapshot(
    path: str | os.PathLike,
    *,
    expected_scenario: Optional[Scenario] = None,
    restore_counters: bool = True,
) -> Tuple[SnapshotHeader, Federation, Scenario]:
    """Load a snapshot, verify compatibility, and restore global counters.

    ``restore_counters=False`` skips re-installing the global job/event id
    counters — useful for read-only inspection of a snapshot while another
    run is in flight in the same process.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            header = _read_preamble(handle)
            verify_compatible(header, expected_scenario=expected_scenario)
            try:
                payload = pickle.load(handle)
            except Exception as exc:
                raise SnapshotError(
                    f"corrupt snapshot payload in {path!r}: {exc}"
                ) from None
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from None
    federation = payload["federation"]
    scenario = payload["scenario"]
    if restore_counters:
        restore_job_counter(payload["job_counter"])
        restore_event_counter(payload["event_counter"])
    return header, federation, scenario


# --------------------------------------------------------------------------- #
# Parallel-engine checkpoints (shard snapshots + coordinator state)
# --------------------------------------------------------------------------- #
#: Version of the parallel checkpoint layout (the coordinator-state payload
#: plus the per-shard snapshot fleet the supervisor restores a run from).
#: Bumped independently of :data:`SNAPSHOT_FORMAT_VERSION` — the shard files
#: themselves ride the ordinary snapshot format.  v2: shard harvests lost
#: their ``engine`` field and shards pickle the v2 simulator and populations.
PAR_CHECKPOINT_VERSION = 2

_PAR_MAGIC = b"gridfed-par-state\n"


def write_shard_snapshot(
    path: str | os.PathLike, federation, scenario: Scenario
) -> SnapshotHeader:
    """Snapshot one live :class:`~repro.par.shard.ShardFederation`.

    A shard federation is an ordinary :class:`Federation` (proxies, outbox
    and cross-shard bookkeeping included in its pickle graph), so the capture
    is the standard :func:`write_snapshot` — called *inside the worker
    process* so the shard's own global job/event id counters land in the
    payload.  The supervisor restores the file with :func:`load_shard_snapshot`
    in a fresh worker after killing a failed fleet.
    """
    return write_snapshot(path, federation, scenario)


def load_shard_snapshot(
    path: str | os.PathLike,
    *,
    expected_scenario: Optional[Scenario] = None,
):
    """Restore a shard federation snapshot inside a fresh worker process.

    Restores the worker-process global job/event counters along with the
    federation (each worker owns its own counter state), and verifies the
    scenario hash before unpickling — a restarted fleet must never mix
    snapshots from different runs.
    """
    header, federation, scenario = load_snapshot(
        path, expected_scenario=expected_scenario, restore_counters=True
    )
    return header, federation, scenario


def write_par_state(
    path: str | os.PathLike,
    *,
    scenario: Scenario,
    workers: int,
    window: float,
    payload: dict,
) -> None:
    """Atomically write the coordinator half of a parallel checkpoint.

    ``payload`` is the coordinator's boundary state: pending cross-shard
    traffic, pending load snapshots, per-shard next-event times, the next
    window start and the stats counters accumulated so far.  Everything is
    pickled behind a JSON guard header (checkpoint version, scenario hash,
    worker count, window), so :func:`load_par_state` can refuse a mismatched
    restore before any payload code runs.
    """
    path = os.fspath(path)
    header = {
        "par_checkpoint_version": PAR_CHECKPOINT_VERSION,
        "scenario_hash": scenario.scenario_hash(),
        "workers": int(workers),
        "window": float(window),
    }
    buffer = io.BytesIO()
    buffer.write(_PAR_MAGIC)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buffer.write(len(header_bytes).to_bytes(4, "big"))
    buffer.write(header_bytes)
    pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".par-state-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_par_state(
    path: str | os.PathLike,
    *,
    expected_scenario: Optional[Scenario] = None,
    expected_workers: Optional[int] = None,
) -> dict:
    """Load and verify the coordinator half of a parallel checkpoint.

    Raises :class:`SnapshotMismatchError` on a version, scenario-hash or
    worker-count mismatch and :class:`SnapshotError` on corruption — the
    supervisor treats either as "no usable checkpoint" and restarts the
    fleet from scratch instead.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_PAR_MAGIC))
            if magic != _PAR_MAGIC:
                raise SnapshotError(
                    f"{path!r} is not a parallel checkpoint state file (bad magic)"
                )
            raw_length = handle.read(4)
            if len(raw_length) != 4:
                raise SnapshotError("truncated parallel checkpoint (header length)")
            length = int.from_bytes(raw_length, "big")
            header_bytes = handle.read(length)
            if len(header_bytes) != length:
                raise SnapshotError("truncated parallel checkpoint (incomplete header)")
            try:
                header = json.loads(header_bytes.decode("utf-8"))
            except ValueError as exc:
                raise SnapshotError(f"corrupt parallel checkpoint header: {exc}") from None
            if header.get("par_checkpoint_version") != PAR_CHECKPOINT_VERSION:
                raise SnapshotMismatchError(
                    f"parallel checkpoint version {header.get('par_checkpoint_version')} "
                    f"is not supported (this build reads {PAR_CHECKPOINT_VERSION})"
                )
            if (
                expected_scenario is not None
                and expected_scenario.scenario_hash() != header.get("scenario_hash")
            ):
                raise SnapshotMismatchError(
                    "parallel checkpoint belongs to a different scenario "
                    f"({header.get('scenario_hash', '?')[:12]}…); restart from scratch"
                )
            if expected_workers is not None and header.get("workers") != expected_workers:
                raise SnapshotMismatchError(
                    f"parallel checkpoint was taken with {header.get('workers')} "
                    f"workers but the restart requested {expected_workers}; the "
                    "shard partition is a function of the worker count"
                )
            try:
                payload = pickle.load(handle)
            except Exception as exc:
                raise SnapshotError(
                    f"corrupt parallel checkpoint payload in {path!r}: {exc}"
                ) from None
    except OSError as exc:
        raise SnapshotError(f"cannot read parallel checkpoint {path!r}: {exc}") from None
    payload["header"] = header
    return payload
