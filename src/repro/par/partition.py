"""Shard assignment, lookahead windows and the parallel eligibility gate.

Clusters are assigned to worker shards by a stable crc32 key of their name
(:func:`shard_for`), so ownership is a pure function of the cluster name and
the worker count — identical in the coordinator, in every worker process and
across runs.

The barrier window is derived from the topology's minimum **cross-shard**
link latency: within one window no shard can observe another shard's events,
so each shard may run its local event queue freely up to the window end (the
conservative-DES lookahead argument).  Cross-shard deliveries are quantised
to window boundaries — that quantisation *is* the sharded model, and the
serial-parity oracle executes exactly the same model in one process, which is
what makes the multiprocess backend testable bit-for-bit.  A zero-latency
topology (the paper's ``uniform`` fabric) offers no lookahead at all: the
sharded model cannot reproduce its synchronous hand-offs, so those scenarios
fall back to the serial engine with a diagnostic.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.net.topology import build_topology
from repro.scenario.scenario import Scenario
from repro.sim.rng import RandomStreams

__all__ = [
    "WINDOW_FLOOR_S",
    "PartitionPlan",
    "plan_partition",
    "sample_lookahead",
    "shard_assignment",
    "shard_for",
]

#: Minimum barrier window, in simulated seconds.  Real WAN/LAN latencies are
#: milliseconds, which would mean millions of (empty) barriers per simulated
#: day; the window is floored here and cross-shard deliveries quantise to its
#: boundaries.  The serial-parity oracle runs the identical quantised model,
#: so the floor trades *model* latency fidelity for barrier count — never
#: parallel-vs-oracle fidelity.  One minute against the two-day experiment
#: horizon keeps the added migration latency below the jobs' hour-scale
#: runtimes (~0.03% of the horizon) while holding the barrier count — the
#: process backend's per-window IPC bill — to ~2.9k per simulated run.
WINDOW_FLOOR_S = 60.0

#: Cluster-name sample size for the lookahead scan (the topologies are
#: homogeneous enough that scanning every pair of a 4096-cluster federation
#: would only rediscover the same site-level minima).
_LOOKAHEAD_SAMPLE = 64


def shard_for(gfa_name: str, shards: int) -> int:
    """The shard owning ``gfa_name`` (stable across processes and runs)."""
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    return zlib.crc32(gfa_name.encode("utf-8")) % shards


def shard_assignment(names: Sequence[str], workers: int) -> Dict[str, int]:
    """Owning shard of every cluster (stable across processes and runs)."""
    return {name: shard_for(name, workers) for name in names}


def sample_lookahead(topology, names: Sequence[str], assignment: Dict[str, int]) -> float:
    """Minimum link latency over sampled cross-shard cluster pairs.

    Returns ``inf`` when the sample contains no cross-shard pair (all sampled
    clusters hash onto one shard) — the caller treats that as ineligible.
    """
    sample = list(names)[:_LOOKAHEAD_SAMPLE]
    lookahead = math.inf
    for i, src in enumerate(sample):
        src_shard = assignment[src]
        for dst in sample[i + 1 :]:
            if assignment[dst] == src_shard:
                continue
            latency = topology.link(src, dst).latency_s
            if latency < lookahead:
                lookahead = latency
    return lookahead


@dataclass(frozen=True)
class PartitionPlan:
    """Outcome of the eligibility gate for one (scenario, workers) pair."""

    workers: int
    #: ``None`` = eligible; otherwise the human-readable fallback diagnostic.
    fallback_reason: Optional[str]
    #: Sampled minimum cross-shard link latency (0 when ineligible).
    lookahead_s: float = 0.0
    #: Barrier window (``max(lookahead, WINDOW_FLOOR_S)``; 0 when ineligible).
    window_s: float = 0.0
    #: Number of shards that own at least one cluster.
    occupied_shards: int = 0

    @property
    def eligible(self) -> bool:
        return self.fallback_reason is None


def _gate_reason(
    scenario: Scenario,
    *,
    explicit_inputs: bool,
    explicit_fault_plan: bool,
    validate: bool,
) -> Optional[str]:
    """The scenario-level half of the gate (no topology needed)."""
    if explicit_inputs:
        return "explicit specs/workload bypass the replicated shard build"
    if explicit_fault_plan or scenario.faults != "none":
        return "fault injection requires the serial engine"
    if validate:
        return "runtime validation requires the serial engine"
    if scenario.pricing != "static":
        return f"dynamic pricing ({scenario.pricing!r}) requires the serial engine"
    if scenario.agent != "default":
        return f"agent variant {scenario.agent!r} requires the serial engine"
    if scenario.resilience != "paper":
        return f"resilience policy {scenario.resilience!r} requires the serial engine"
    return None


def plan_partition(
    scenario: Scenario,
    workers: int,
    names: Sequence[str],
    *,
    explicit_inputs: bool = False,
    explicit_fault_plan: bool = False,
    validate: bool = False,
) -> PartitionPlan:
    """Decide whether (and how) a scenario can run on the parallel engine.

    ``names`` are the federation's cluster names in Table-1 order.  The
    topology probe builds a throwaway replica from a fresh
    :class:`~repro.sim.rng.RandomStreams` of the scenario's seed — a pure
    function of the seed, so it sees exactly the links every shard will see.
    """
    if workers < 2:
        return PartitionPlan(workers, "fewer than 2 workers requested")
    reason = _gate_reason(
        scenario,
        explicit_inputs=explicit_inputs,
        explicit_fault_plan=explicit_fault_plan,
        validate=validate,
    )
    if reason is not None:
        return PartitionPlan(workers, reason)
    assignment = shard_assignment(names, workers)
    occupied = len(set(assignment.values()))
    if occupied < 2:
        return PartitionPlan(
            workers, "all clusters hash onto one shard (nothing to parallelise)"
        )
    topology = build_topology(
        scenario.transport,
        list(names),
        rng=RandomStreams(scenario.seed).get("net/latency"),
    )
    lookahead = sample_lookahead(topology, names, assignment)
    if not math.isfinite(lookahead):
        return PartitionPlan(
            workers, "sampled clusters share one shard (no cross-shard links)"
        )
    if lookahead <= 0.0:
        return PartitionPlan(
            workers,
            f"topology {scenario.transport!r} has zero cross-shard latency "
            "(no conservative lookahead)",
        )
    window = max(lookahead, WINDOW_FLOOR_S)
    return PartitionPlan(
        workers,
        None,
        lookahead_s=lookahead,
        window_s=window,
        occupied_shards=occupied,
    )
