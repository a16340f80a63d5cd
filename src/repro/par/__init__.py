"""Conservative parallel-DES engine: shard the federation across cores.

The parallel engine partitions the federation's clusters (GFA + LRMS + event
streams) across N worker shards by a stable crc32 key of the cluster
name, runs each shard as an ordinary :class:`repro.sim.engine.
Simulator`, and synchronises the shards in **lookahead windows** derived from
the topology's minimum cross-shard link latency.  Cross-shard traffic (job
migrations, completion hand-backs, load snapshots) is serialised through a
pickle codec and injected at window boundaries with a deterministic merge
order, so the run is reproducible bit-for-bit — and the multiprocess backend
is provably equivalent to the in-process **serial-parity oracle**, which
executes the identical sharded model one shard at a time.

Scenarios the sharded model cannot represent faithfully (uniform zero-latency
topologies, fault plans, dynamic pricing, …) fall back to the plain serial
engine with a clear diagnostic; see :func:`repro.par.partition.plan_partition`
for the exact eligibility gate.

The multiprocess backend runs **supervised** by default: every pipe receive
carries a deadline and liveness check, worker death or hang raises a typed
:class:`~repro.par.engine.WorkerFailure`, and the supervisor restarts the
fleet from the last window-boundary consistent cut (or degrades to a serial
re-run) without changing a single output byte — see
:mod:`repro.par.supervisor`.
"""

from repro.par.engine import WorkerFailure
from repro.par.partition import PartitionPlan, plan_partition
from repro.par.runner import merge_results, try_parallel_run
from repro.par.stats import ParallelStats
from repro.par.supervisor import ParallelRunFailed, SupervisionConfig

__all__ = [
    "ParallelRunFailed",
    "ParallelStats",
    "PartitionPlan",
    "SupervisionConfig",
    "WorkerFailure",
    "merge_results",
    "plan_partition",
    "try_parallel_run",
]
