"""Durable service mode: snapshots, checkpoint/resume, and the daemon.

The service layer sits on top of the scenario API (sim → net → core/p2p →
scenario → service) and adds three capabilities:

* :mod:`repro.service.snapshot` — versioned, atomic snapshots of a live
  federation (clock, event queue, entities, RNG streams, global counters)
  with fail-fast compatibility guards;
* :mod:`repro.service.checkpoint` — the step-boundary policy every run
  with a checkpoint or progress hook follows (periodic checkpoints,
  progress, cancellation), and byte-identical resume from the latest
  checkpoint, serial or sharded;
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — a long-lived
  ``gridfed daemon`` serving scenario submissions over local HTTP, with a
  disk-persistent memo cache (:mod:`repro.service.cache`) shared with
  :class:`~repro.scenario.runner.SweepRunner`.
"""

from repro.service.cache import CACHE_FORMAT_VERSION, PersistentResultCache
from repro.service.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    SNAPSHOT_FILENAME,
    CancelledRun,
    RunProgress,
    resume_run,
    snapshot_path,
)
from repro.service.client import DaemonClient, DaemonError, DaemonUnavailable
from repro.service.daemon import (
    DaemonState,
    GridfedDaemon,
    QueueFullError,
    scenario_from_fields,
    scenario_to_fields,
)
from repro.service.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotHeader,
    SnapshotMismatchError,
    load_snapshot,
    read_header,
    write_snapshot,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "PersistentResultCache",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "SNAPSHOT_FILENAME",
    "CancelledRun",
    "RunProgress",
    "resume_run",
    "snapshot_path",
    "DaemonClient",
    "DaemonError",
    "DaemonUnavailable",
    "DaemonState",
    "GridfedDaemon",
    "QueueFullError",
    "scenario_from_fields",
    "scenario_to_fields",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotHeader",
    "SnapshotMismatchError",
    "load_snapshot",
    "read_header",
    "write_snapshot",
]
