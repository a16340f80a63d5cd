"""Versioned, atomic snapshots of a live federation simulation.

A snapshot captures *everything* a run needs to continue byte-identically:
the :class:`~repro.sim.engine.Simulator` clock, sequence counter and pending
event heap, every entity (GFAs, LRMS queues, directory, GridBank,
MessageLog, transport state, fault-injector state), every named RNG stream,
and the global job-id counter that mid-run load spikes consume.  The
capture is a whole-object-graph pickle of the
:class:`~repro.core.federation.Federation`: all scheduled callbacks are bound
methods of objects inside that graph, so the pickle memo preserves every
shared reference (e.g. the directory's rankings, held by its open query
sessions too) and a restored federation is indistinguishable from the
original.

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
from typing import Callable, Optional, Tuple, TypeVar

from repro.core.federation import Federation
from repro.scenario.scenario import Scenario
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
    "write_par_state",
    "load_par_state",
]

#: Bump when the snapshot layout or the pickled object graph changes shape
#: incompatibly; resuming across versions fails fast instead of corrupting.
#: v2: the header lost its ``engine`` field, the simulator pickles one heap
#: and an int sequence counter, and user populations keep one pending
#: arrival under reserved sequence numbers.  v3: each LRMS pickles its live
#: admission profile, queue tail and predicted starts in place of the
#: version-stamped profile cache.  v4: the message ledger is the transport's
#: slot-list ``MessageLog`` (no per-job, per-pair or per-type maps, no
#: observer hooks), and GFAs no longer hold a ``message_log``.  v5: each
#: LRMS's ``NodePool`` pickles its free nodes as sorted runs, a free-node
#: counter and each job's tuple of runs in place of per-node lists and sets.
#: v6: the directory keeps sorted ``(key, quote)`` lists in place of skip
#: lists, arrivals call ``submit_local_job`` without an event envelope, and
#: the payload carries no event-id counter.  v7: each LRMS pickles its last
#: admission estimate ``(job, now, start, runtime)`` and keeps a
#: ``(start, runtime)`` pair per predicted job in place of a start.  v8: the
#: directory pickles its per-probe query charge (``_query_charge``).  v9:
#: the simulator's heap holds ``(time, priority, seq, callback, args)``
#: tuples and a set of live seqs (no event handles, pool or pending
#: counter), and each LRMS keeps its finish event's seq in ``_running`` in
#: place of a ``_finish_events`` map.  v10: each LRMS pickles its free
#: processors as one int (``_free``) in place of a ``NodePool``.  v11: the
#: simulator pickles its arrival feed (times, items, callback and end seq),
#: which holds every arrival not yet fired, and user populations no longer
#: keep a reserved first seq (``_first_seq``).
SNAPSHOT_FORMAT_VERSION = 11

_MAGIC = b"gridfed-snapshot\n"
_WHAT = "gridfed snapshot"

T = TypeVar("T")


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
    done = JobStatus.COMPLETED  # one enum lookup, not one per job
    completed = sum(1 for job in jobs if job.status is done)
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


def _write_framed(path: str, magic: bytes, header_json: str, payload: dict) -> None:
    """Atomically write ``magic | header length | JSON header | pickle``.

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename; a crash at any point leaves
    either the previous file or the new one, never a torn file.
    """
    buffer = io.BytesIO()
    buffer.write(magic)
    header_bytes = header_json.encode("utf-8")
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


def _read_frame_header(handle, magic: bytes, what: str) -> str:
    """Read a framed file's magic and JSON header (never the payload)."""
    if handle.read(len(magic)) != magic:
        raise SnapshotError(f"not a {what} (bad magic)")
    raw_length = handle.read(4)
    if len(raw_length) != 4:
        raise SnapshotError(f"truncated {what} (header length missing)")
    length = int.from_bytes(raw_length, "big")
    header_bytes = handle.read(length)
    if len(header_bytes) != length:
        raise SnapshotError(f"truncated {what} (incomplete header)")
    try:
        return header_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"corrupt {what} header: {exc}") from None


def _read_framed(path: str, magic: bytes, what: str, parse: Callable[[str], T]) -> Tuple[T, dict]:
    """Read a framed file; ``parse`` checks the header before any unpickling."""
    try:
        with open(path, "rb") as handle:
            header = parse(_read_frame_header(handle, magic, what))
            try:
                payload = pickle.load(handle)
            except Exception as exc:
                raise SnapshotError(f"corrupt {what} payload in {path!r}: {exc}") from None
    except OSError as exc:
        raise SnapshotError(f"cannot read {what} {path!r}: {exc}") from None
    return header, payload


def write_snapshot(
    path: str | os.PathLike, federation: Federation, scenario: Scenario
) -> SnapshotHeader:
    """Atomically write a snapshot of a paused (between-events) federation.

    A parallel shard is an ordinary :class:`Federation` too: each worker
    snapshots its own shard, so the payload carries that worker's global
    job-id counter.
    """
    header = _build_header(federation, scenario)
    payload = {
        "federation": federation,
        "scenario": scenario,
        "job_counter": job_counter_state(),
    }
    _write_framed(os.fspath(path), _MAGIC, header.to_json(), payload)
    return header


def read_header(path: str | os.PathLike) -> SnapshotHeader:
    """Read only the JSON header of a snapshot (no unpickling)."""
    try:
        with open(path, "rb") as handle:
            return SnapshotHeader.from_json(_read_frame_header(handle, _MAGIC, _WHAT))
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
    """Load a snapshot, verify compatibility, and restore the job-id counter.

    ``restore_counters=False`` skips re-installing the global job-id
    counter — useful for read-only inspection of a snapshot while another
    run is in flight in the same process.
    """
    def parse(blob: str) -> SnapshotHeader:
        header = SnapshotHeader.from_json(blob)
        verify_compatible(header, expected_scenario=expected_scenario)
        return header

    header, payload = _read_framed(os.fspath(path), _MAGIC, _WHAT, parse)
    federation = payload["federation"]
    scenario = payload["scenario"]
    if restore_counters:
        restore_job_counter(payload["job_counter"])
    return header, federation, scenario


# --------------------------------------------------------------------------- #
# Parallel-engine checkpoints (shard snapshots + coordinator state)
# --------------------------------------------------------------------------- #
#: Version of the parallel checkpoint layout (the coordinator-state payload
#: plus the per-shard snapshot fleet the supervisor restores a run from).
#: Bumped independently of :data:`SNAPSHOT_FORMAT_VERSION` — the shard files
#: themselves ride the ordinary snapshot format.  v2: shard harvests lost
#: their ``engine`` field and shards pickle the v2 simulator and populations.
#: v3: shards pickle the v3 LRMS (live admission profiles).  v4: shards and
#: harvests pickle the v4 message ledger and transport stats.  v5: the
#: coordinator state records its scenario, so a fleet checkpoint can be
#: resumed without naming the scenario again, and the header's version key
#: is ``version``.  v6: shards pickle the v5 LRMS (node pools as runs).
#: v7: shards pickle the v6 snapshot graph (sorted-list directory, no event
#: envelope, no event-id counter).  v8: shards pickle the v7 LRMS (the
#: estimate record and ``(start, runtime)`` predictions).  v9: shards pickle
#: the v8 directory (its query charge).  v10: shards pickle the v9 simulator
#: and LRMS (plain heap tuples, live seqs, no event handles).  v11: shards
#: pickle the v10 LRMS (a free-processor count, no node pool).  v12: shards
#: pickle the v11 simulator and populations (the arrival feed, no reserved
#: first seq).
PAR_CHECKPOINT_VERSION = 12

_PAR_MAGIC = b"gridfed-par-state\n"
_PAR_WHAT = "parallel checkpoint state file"


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
    window start and the stats counters accumulated so far.  The scenario
    is pickled alongside it (so :func:`~repro.service.checkpoint.resume_run`
    can adopt it), behind a JSON guard header (checkpoint version, scenario
    hash, worker count, window), so :func:`load_par_state` can refuse a
    mismatched restore before any payload code runs.
    """
    header = {
        "version": PAR_CHECKPOINT_VERSION,
        "scenario_hash": scenario.scenario_hash(),
        "workers": int(workers),
        "window": float(window),
    }
    _write_framed(
        os.fspath(path),
        _PAR_MAGIC,
        json.dumps(header, sort_keys=True),
        {**payload, "scenario": scenario},
    )


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
    fleet from scratch instead.  The returned payload carries the parsed
    ``header`` and the ``scenario`` the checkpoint was written for.
    """

    def parse(blob: str) -> dict:
        try:
            header = json.loads(blob)
        except ValueError as exc:
            raise SnapshotError(f"corrupt parallel checkpoint header: {exc}") from None
        if header.get("version") != PAR_CHECKPOINT_VERSION:
            raise SnapshotMismatchError(
                f"parallel checkpoint version {header.get('version', 'unknown')} "
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
        return header

    header, payload = _read_framed(os.fspath(path), _PAR_MAGIC, _PAR_WHAT, parse)
    payload["header"] = header
    return payload
