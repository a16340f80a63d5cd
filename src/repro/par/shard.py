"""One worker shard: a partial federation plus proxies for everyone else.

A :class:`ShardFederation` is an ordinary :class:`~repro.core.federation.
Federation` that *owns* only the clusters hashing onto its shard index.  Every
shard replicates the deterministic *static* preparation — specs, topology
build and a complete directory replica subscribed in specs order — so all
shards (and the coordinator's throwaway probes) draw the same random numbers
in the same order and hold identical static directory state.  Workload traces
are generated for owned clusters only (foreign clusters' job-id ranges are
consumed without materialising their jobs; per-cluster random streams make
the owned traces bit-identical to a full build).  Only the *dynamic*
entities differ:

* owned specs get a full :class:`ShardGFA` + LRMS + user population;
* foreign specs get a :class:`RemoteClusterProxy`, registered under the
  cluster's own name so the base GFA's negotiation path
  (``registry.lookup(quote.gfa_name)``) works unchanged.

A proxy answers admission enquiries in O(1) from the owner's last load
snapshot (plus a pending-acceptance bump so one window cannot dog-pile a
cluster), and turns accepted migrations into serialised
:class:`~repro.par.router.CrossShardMessage` records that the coordinator
injects at the next window boundary.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from dataclasses import dataclass, field

from repro.cluster.specs import ResourceSpec, execution_time
from repro.core.admission import TOO_WIDE, AdmissionDecision
from repro.core.federation import Federation, FederationConfig
from repro.core.gfa import GFAStatistics, GridFederationAgent
from repro.core.messages import MessageLog
from repro.core.users import UserPopulation
from repro.economy.bank import Transaction
from repro.net.transport import TransportStats
from repro.par.partition import shard_assignment
from repro.par.router import CrossShardMessage, MessageKind, decode_job, encode_job
from repro.scenario.scenario import Scenario
from repro.sim.rng import RandomStreams
from repro.workload.job import Job, JobStatus, reset_job_counter
from repro.workload.archive import build_federation_specs

__all__ = [
    "RemoteClusterProxy",
    "ShardFederation",
    "ShardGFA",
    "ShardHarvest",
    "StepReport",
    "build_shard_federation",
]

#: Terminal job state carried back to the origin shard by a JOB_FINAL.
_FINAL_FIELDS = (
    "status",
    "executed_on",
    "start_time",
    "finish_time",
    "cost_paid",
    "negotiation_rounds",
    "messages",
    "failure",
    "failed_time",
    "resubmissions",
)


#: A proxy's refusal reason, formatted only when read.
_SNAPSHOT_LATE = "snapshot estimate {:.1f} exceeds deadline {:.1f}"


class RemoteClusterProxy:
    """Stand-in for a cluster owned by another shard.

    Duck-typed against the slice of :class:`GridFederationAgent` the base
    negotiation path touches: ``name``, ``alive``, ``lrms``,
    ``handle_admission_request`` and ``receive_remote_job``.
    """

    __slots__ = ("name", "spec", "shard", "alive", "_tail", "_bump")

    #: No LRMS of its own: every enquiry is answered from the snapshot.
    lrms = None

    def __init__(self, name: str, spec: ResourceSpec, shard: "ShardFederation"):
        self.name = name
        self.spec = spec
        self.shard = shard
        #: The parallel gate excludes fault plans, so proxies never die.
        self.alive = True
        #: Absolute queue-free time from the owner's last load snapshot.
        self._tail = 0.0
        #: Unloaded node-time accepted here since that snapshot (decays to 0
        #: whenever a fresh snapshot arrives).
        self._bump = 0.0

    def update_load(self, tail: float) -> None:
        """Apply the owning shard's latest load snapshot."""
        self._tail = tail
        self._bump = 0.0

    def handle_admission_request(self, job: Job) -> AdmissionDecision:
        """O(1) snapshot admission (the proxy half of the negotiation)."""
        spec = self.spec
        if not spec.can_run(job):
            return AdmissionDecision(False, None, TOO_WIDE, job.num_processors, spec.num_processors)
        now = self.shard.sim.now
        runtime = execution_time(job, spec)
        estimate = max(now, self._tail) + self._bump + runtime
        deadline = job.absolute_deadline
        if deadline is not None and estimate > deadline + 1e-9:
            return AdmissionDecision(False, estimate, _SNAPSHOT_LATE, estimate, deadline)
        # Charge the job's share of the cluster so that several acceptances
        # within one window stack up instead of all seeing the same snapshot.
        self._bump += runtime * job.num_processors / spec.num_processors
        return AdmissionDecision(True, estimate, "snapshot admission granted")

    def receive_remote_job(self, job: Job, origin_gfa: str) -> None:
        """Queue the migrated job for cross-shard delivery to its owner."""
        self.shard.queue_remote_job(self.name, job, origin_gfa)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"RemoteClusterProxy({self.name!r}, shard={self.shard.shard_index})"


class ShardGFA(GridFederationAgent):
    """A GFA that hands finished foreign-origin jobs back across shards."""

    #: Owning shard; assigned right after construction by ``_build_member``.
    shard: "ShardFederation"

    def _on_lrms_completion(self, job: Job) -> None:
        # The base implementation pops the origin bookkeeping — capture it
        # first so the terminal state can be routed back to the origin shard.
        origin_gfa = self._remote_job_origins.get(job.job_id)
        super()._on_lrms_completion(job)
        if origin_gfa is not None and not self.shard.owns(origin_gfa):
            self.shard.queue_job_final(origin_gfa, job)


@dataclass
class StepReport:
    """What one shard did during one barrier window."""

    #: Events fired inside the window.
    fired: int
    #: Cross-shard messages emitted during the window.
    outbox: List[CrossShardMessage]
    #: Fresh load snapshots ``(cluster name, absolute queue-free time)`` for
    #: owned clusters whose LRMS state changed since the last barrier.
    loads: List[Tuple[str, float]]
    #: Timestamp of the shard's next pending event (``None`` = drained).
    next_time: Optional[float]


@dataclass
class ShardHarvest:
    """Everything one shard contributes to the merged result."""

    shard_index: int
    #: Origin-authoritative job replicas for the shard's owned clusters.
    jobs: List[Job]
    #: Per owned cluster: GFA statistics.
    stats: Dict[str, GFAStatistics]
    #: Per owned cluster: LRMS busy node-seconds.
    busy_node_seconds: Dict[str, float]
    message_log: MessageLog
    network: TransportStats
    #: GridBank ledger entries settled on this shard (empty outside ECONOMY).
    ledger: List[Transaction] = field(default_factory=list)
    events_processed: int = 0
    #: The shard's clock at harvest: the end of the last window it ran.
    sim_time: float = 0.0


class ShardFederation(Federation):
    """The partial federation owned by one worker shard."""

    def __init__(
        self,
        specs: Sequence[ResourceSpec],
        workload,
        config: FederationConfig,
        *,
        shard_index: int,
        workers: int,
        window: float,
    ):
        if not 0 <= shard_index < workers:
            raise ValueError(f"shard index {shard_index} outside [0, {workers})")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.shard_index = shard_index
        self.workers = workers
        self.window = window
        self._assignment = shard_assignment([spec.name for spec in specs], workers)
        self._proxies: Dict[str, RemoteClusterProxy] = {}
        self._outbox: List[CrossShardMessage] = []
        self._out_seq = 0
        #: Owned clusters whose LRMS changed since their last snapshot was
        #: published (maintained by an ``on_state_change`` hook, so a barrier
        #: never scans clusters that sat idle through the window).
        self._dirty_loads: set = set()
        super().__init__(specs, workload, config, ShardGFA)
        self.owned_specs: List[ResourceSpec] = [
            spec for spec in self.specs if self._assignment[spec.name] == shard_index
        ]
        #: Origin-authoritative replicas, for applying JOB_FINAL hand-backs.
        self._jobs_by_id: Dict[int, Job] = {
            job.job_id: job
            for spec in self.owned_specs
            for job in self.workload[spec.name]
        }

    # ------------------------------------------------------------------ #
    # Construction hook
    # ------------------------------------------------------------------ #
    def _build_member(self, spec: ResourceSpec) -> None:
        if self._assignment[spec.name] == self.shard_index:
            gfa = ShardGFA(
                sim=self.sim,
                registry=self.registry,
                spec=spec,
                transport=self.transport,
                mode=self.config.mode,
                directory=self.directory,
                bank=self.bank,
                lrms_policy=self.config.lrms_policy,
            )
            gfa.shard = self
            # A partial over a bound method (not a lambda): the hook must
            # survive pickling, because the supervisor snapshots live
            # ShardFederations for window-boundary restarts.
            gfa.lrms.on_state_change = functools.partial(self._mark_dirty, spec.name)
            self.gfas[spec.name] = gfa
            self.populations[spec.name] = UserPopulation(
                self.sim, gfa, self.workload[spec.name]
            )
            return
        # Foreign cluster: keep the directory replica identical to the serial
        # build by subscribing in specs order, then slot a proxy under the
        # cluster's name so base-GFA negotiation and migration resolve it
        # transparently.  The owning shard charges the subscribe message;
        # this replica copy charges none.
        self.message_log.register_gfa(spec.name)
        if self.directory is not None:
            self.directory.subscribe(spec.name, spec, replica=True)
        proxy = RemoteClusterProxy(spec.name, spec, self)
        self.registry.register(proxy)
        self._proxies[spec.name] = proxy

    # ------------------------------------------------------------------ #
    # Shard protocol (driven by the coordinator)
    # ------------------------------------------------------------------ #
    def owns(self, name: str) -> bool:
        """True iff this shard owns the named cluster."""
        return self._assignment[name] == self.shard_index

    def _mark_dirty(self, name: str) -> None:
        """LRMS state-change hook: republish this cluster's load snapshot."""
        self._dirty_loads.add(name)

    def queue_remote_job(self, dest_name: str, job: Job, origin_gfa: str) -> None:
        """Enqueue a migrated job for delivery to the owning shard."""
        self._enqueue(MessageKind.JOB_ARRIVAL, dest_name, origin_gfa, job)

    def queue_job_final(self, origin_gfa: str, job: Job) -> None:
        """Enqueue a finished remote job's state for its origin shard."""
        self._enqueue(MessageKind.JOB_FINAL, origin_gfa, job.executed_on or "", job)

    def _enqueue(self, kind: MessageKind, dest_name: str, origin_gfa: str, job: Job) -> None:
        now = self.sim.now
        window = self.window
        self._out_seq += 1
        self._outbox.append(
            CrossShardMessage(
                kind=kind,
                dest_shard=self._assignment[dest_name],
                dest_name=dest_name,
                origin_gfa=origin_gfa,
                origin_shard=self.shard_index,
                origin_seq=self._out_seq,
                send_time=now,
                # Quantise to the next barrier boundary: within the current
                # window no other shard may observe this message.
                deliver_time=(int(now // window) + 1) * window,
                payload=encode_job(job),
            )
        )

    def collect_loads(self) -> List[Tuple[str, float]]:
        """Fresh load snapshots for owned clusters that changed this window.

        The snapshot is the **absolute** queue-free time (``now`` plus the
        work-conserving :meth:`~repro.cluster.lrms.SpaceSharedLRMS.
        queue_tail_hint`), so a proxy holding a stale snapshot decays
        naturally as its own clock advances past the tail.  The hint is a
        lower bound on the time until all of the cluster's outstanding work
        drains, not on the exact FCFS tail (:meth:`~repro.cluster.lrms.
        SpaceSharedLRMS.expected_wait`), which it can exceed: a queued
        narrow job counts its whole runtime.  Publishing the exact tail
        instead would change the sharded model's fingerprints.
        """
        if not self._dirty_loads:
            return []
        now = self.sim.now
        gfas = self.gfas
        loads = [
            (name, now + gfas[name].lrms.queue_tail_hint())
            for name in sorted(self._dirty_loads)
        ]
        self._dirty_loads.clear()
        return loads

    def step(
        self,
        end: float,
        injections: Sequence[CrossShardMessage],
        loads: Sequence[Tuple[str, float]],
    ) -> StepReport:
        """Advance this shard through one barrier window ``[now, end)``.

        ``injections`` must already be in the canonical merge order — the
        engine assigns sequence numbers in iteration order, so the injected
        events inherit exactly the coordinator's deterministic ordering.
        """
        for name, tail in loads:
            self._proxies[name].update_load(tail)
        if injections:
            self.sim.schedule_at_many(
                (msg.deliver_time, self._deliver_cross, (msg,)) for msg in injections
            )
        fired = self.sim.run_window(end)
        outbox, self._outbox = self._outbox, []
        return StepReport(
            fired=fired,
            outbox=outbox,
            loads=self.collect_loads(),
            next_time=self.sim.next_event_time(),
        )

    def progress(self) -> Tuple[int, int, int, int]:
        """``(jobs, completed, events fired, events pending)`` over this
        shard's own jobs: a scan, asked for only at reporting boundaries."""
        jobs = self._jobs_by_id.values()
        done = JobStatus.COMPLETED  # one enum lookup, not one per job
        completed = sum(1 for job in jobs if job.status is done)
        return len(jobs), completed, self.sim.events_processed, self.sim.pending

    def _deliver_cross(self, msg: CrossShardMessage) -> None:
        job = decode_job(msg.payload)
        if msg.kind is MessageKind.JOB_ARRIVAL:
            self.gfas[msg.dest_name].receive_remote_job(job, origin_gfa=msg.origin_gfa)
        else:
            self._apply_job_final(job)

    def _apply_job_final(self, job: Job) -> None:
        """Overwrite the origin replica with the executing shard's terminal state."""
        local = self._jobs_by_id[job.job_id]
        for name in _FINAL_FIELDS:
            setattr(local, name, getattr(job, name))

    def harvest(self) -> ShardHarvest:
        """Everything this shard contributes to the merged result."""
        return ShardHarvest(
            shard_index=self.shard_index,
            jobs=[
                job for spec in self.owned_specs for job in self.workload[spec.name]
            ],
            stats={spec.name: self.gfas[spec.name].stats for spec in self.owned_specs},
            busy_node_seconds={
                spec.name: self.gfas[spec.name].lrms.busy_node_seconds
                for spec in self.owned_specs
            },
            message_log=self.message_log,
            network=self.transport.stats,
            ledger=self.bank.ledger() if self.bank is not None else [],
            events_processed=self.sim.events_processed,
            sim_time=self.sim.now,
        )


def build_shard_federation(
    scenario: Scenario, shard_index: int, workers: int, window: float
) -> ShardFederation:
    """Replicate the deterministic preparation and build one shard.

    Mirrors :func:`repro.scenario.runner.run_scenario`'s workload build
    exactly (fresh job counter, seeded streams, the provider's own
    thinning), so every shard — and the serial oracle — sees identical specs
    and job ids.  Providers that accept an ``only=`` keyword (the built-in
    ``archive``/``synthetic`` generators do) generate traces for the shard's
    *owned* clusters alone —
    foreign clusters' jobs are never materialised here, only their id ranges
    are consumed, since a shard touches a foreign job solely through the
    serialised copy the owning shard sends across.  Providers without the
    keyword fall back to the full replicated build.
    """
    # Imported here: repro.scenario.runner imports this package lazily, and a
    # module-level import would close the cycle at import time.
    import inspect

    from repro.scenario.registry import WORKLOAD_REGISTRY
    from repro.scenario.runner import resolve_resources

    archive = resolve_resources(scenario, None)
    specs = build_federation_specs(archive)
    provider = WORKLOAD_REGISTRY.get(scenario.workload)
    reset_job_counter()
    streams = RandomStreams(scenario.seed)
    assignment = shard_assignment([spec.name for spec in specs], workers)
    if "only" in inspect.signature(provider).parameters:
        owned = {name for name, shard in assignment.items() if shard == shard_index}
        workload = provider(scenario, streams, archive, only=owned)
    else:
        workload = provider(scenario, streams, archive)
    return ShardFederation(
        specs,
        workload,
        scenario.to_config(),
        shard_index=shard_index,
        workers=workers,
        window=window,
    )
