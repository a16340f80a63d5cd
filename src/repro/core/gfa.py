"""The Grid Federation Agent (GFA).

A GFA is the per-cluster resource management layer that couples the local
LRMS to the federation (Section 2.0.3).  It contains two functional units:

* the **distributed information manager** — publishes the cluster's quote to
  the shared federation directory and queries it for candidate clusters, and
* the **resource manager** — performs local superscheduling, admission control
  for incoming remote jobs, and manages execution of remote jobs on the local
  LRMS.

Negotiation between GFAs is synchronous in simulated time (the paper's remote
GFA "makes a decision immediately upon receiving a request"); every exchanged
negotiate / reply / job-submission / job-completion message rides the shared
:class:`~repro.net.transport.Transport`, which records it once in its
:class:`~repro.core.messages.MessageLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.cluster.lrms import SchedulingPolicy, SpaceSharedLRMS
from repro.cluster.specs import ResourceSpec, execution_cost
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.messages import MessageType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.resilience.policy import ResilienceManager
from repro.core.policies import SharingMode, rank_criterion_for
from repro.economy.bank import GridBank
from repro.net.transport import Transport
from repro.p2p.directory import DirectoryQuote, FederationDirectory
from repro.sim.engine import Simulator
from repro.sim.entity import EntityRegistry
from repro.workload.job import Job, JobStatus


@dataclass
class GFAStatistics:
    """Per-GFA workload processing statistics (Tables 2 and 3)."""

    submitted_local: int = 0
    accepted_local: int = 0
    migrated_out: int = 0
    remote_received: int = 0
    rejected: int = 0
    negotiations_sent: int = 0
    negotiations_refused: int = 0
    #: Enquiries that never received a reply (dead peer, lossy fault window,
    #: or datagram loss on a lossy transport topology); stays zero on the
    #: default uniform topology without a fault plan.
    negotiation_timeouts: int = 0
    #: Jobs re-entering superscheduling after their host crashed.
    resubmitted: int = 0

    @property
    def accepted_total(self) -> int:
        """Local jobs that found a home (locally or in the federation)."""
        return self.accepted_local + self.migrated_out

    @property
    def acceptance_rate(self) -> float:
        """Fraction of local jobs accepted (1.0 when nothing was submitted)."""
        if self.submitted_local == 0:
            return 1.0
        return self.accepted_total / self.submitted_local

    @property
    def rejection_rate(self) -> float:
        """Fraction of local jobs rejected."""
        if self.submitted_local == 0:
            return 0.0
        return self.rejected / self.submitted_local


class GridFederationAgent:
    """The per-cluster federation agent.

    The agent is named after its cluster and registers itself in the
    federation's registry, through which peers resolve it by that name.

    Parameters
    ----------
    sim, registry:
        Simulation engine and entity registry shared by the federation.
    spec:
        The cluster's resource description and quote.
    transport:
        The federation's shared message fabric; its ``log`` is the run's
        message ledger, in which the agent registers itself.
    directory:
        Shared federation directory (may be ``None`` in INDEPENDENT mode).
    bank:
        GridBank used to settle payments in ECONOMY mode (may be ``None``
        otherwise).
    mode:
        The :class:`~repro.core.policies.SharingMode` of the experiment.
    lrms_policy:
        Queueing policy of the local LRMS.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: EntityRegistry,
        spec: ResourceSpec,
        transport: Transport,
        mode: SharingMode = SharingMode.ECONOMY,
        directory: Optional[FederationDirectory] = None,
        bank: Optional[GridBank] = None,
        lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS,
    ):
        self.sim = sim
        self.name = spec.name
        self.registry = registry
        registry.register(self)
        self.spec = spec
        self.mode = mode
        self.directory = directory
        self.bank = bank
        self.transport = transport
        self.lrms = SpaceSharedLRMS(sim, spec, policy=lrms_policy, on_job_complete=self._on_lrms_completion)
        self.admission = AdmissionController(self.lrms)
        self.stats = GFAStatistics()
        #: origin GFA name of every remote job currently hosted here
        self._remote_job_origins: Dict[int, str] = {}
        # Fault state: untouched (and cost-free) unless an injector attaches.
        #: False while the cluster is crashed.
        self.alive: bool = True
        #: False while the cluster has gracefully left the federation.
        self.joined: bool = False
        #: The attached fault injector (None on the zero-fault path).
        self.faults: Optional["FaultInjector"] = None
        #: The attached resilience manager (None on the paper's bare path).
        self.resilience: Optional["ResilienceManager"] = None
        #: Closed ``(down_since, up_again)`` crash windows.
        self.downtime_intervals: List[Tuple[float, float]] = []
        self._down_since: Optional[float] = None
        transport.log.register_gfa(self.name)
        if mode is not SharingMode.INDEPENDENT:
            if directory is None:
                raise ValueError(f"{mode.value} mode requires a federation directory")
            directory.subscribe(self.name, spec)
            self.joined = True

    # ------------------------------------------------------------------ #
    # Local superscheduling (jobs submitted by the local user population)
    # ------------------------------------------------------------------ #
    def submit_local_job(self, job: Job) -> None:
        """Schedule a job submitted by this cluster's local user population."""
        if job.origin != self.name:
            raise ValueError(
                f"job {job.job_id} originates at {job.origin!r}, not at {self.name!r}"
            )
        self.stats.submitted_local += 1
        if not self.alive:
            # The cluster is down: its local users cannot reach their GFA, so
            # the submission is attributably lost to the fault.
            job.mark_failed(self.sim.now, f"origin cluster {self.name} down at submission")
            if self.faults is not None:
                self.faults.note_job_lost(job)
            return
        job.status = JobStatus.SUBMITTED
        self._dispatch_local(job)

    def resubmit_job(self, job: Job) -> None:
        """Re-run superscheduling for a job bounced back by a remote crash.

        The job keeps its identity, QoS parameters and message history but
        loses its placement; it may land locally, on a different remote
        cluster, or be rejected if its deadline is no longer attainable.
        """
        if not self.alive:
            job.mark_failed(self.sim.now, f"origin cluster {self.name} down at re-negotiation")
            if self.faults is not None:
                self.faults.note_job_lost(job)
            return
        self.stats.resubmitted += 1
        job.prepare_resubmission()
        self._dispatch_local(job)

    def _dispatch_local(self, job: Job) -> None:
        if self.mode is SharingMode.INDEPENDENT:
            self._schedule_independent(job)
        elif self.mode is SharingMode.FEDERATION:
            self._schedule_federation(job)
        else:
            self._schedule_economy(job)

    def _schedule_independent(self, job: Job) -> None:
        if self.spec.can_run(job) and self.lrms.can_meet_deadline(job):
            self._accept_locally(job)
        else:
            self._reject(job)

    def _schedule_federation(self, job: Job) -> None:
        if self.spec.can_run(job) and self.lrms.can_meet_deadline(job):
            self._accept_locally(job)
            return
        if not self.joined:
            # Departed from the federation: no directory, no remote candidates.
            self._reject(job)
            return
        # Online scheduling over remote resources in decreasing speed order.
        # The session resumes from the last matched rank on every probe, so
        # the whole negotiation sequence costs one forward sweep of the
        # directory instead of a fresh scan per round.
        if self.resilience is not None:
            self.resilience.evict_stale_quotes(self)
        session = self.directory.open_session(
            rank_criterion_for(job), min_processors=job.num_processors
        )
        for quote in session:
            job.negotiation_rounds += 1
            if quote.gfa_name == self.name:
                continue  # local feasibility was already ruled out
            if self.resilience is not None and not self.resilience.allow_candidate(
                self.name, quote.gfa_name
            ):
                continue  # circuit open: stop hammering a dead/flapping peer
            if self._negotiate(quote, job):
                self._migrate(quote, job)
                return
        self._reject(job)

    def _schedule_economy(self, job: Job) -> None:
        if not self.joined:
            # Departed: fall back to local-only scheduling under the same
            # budget/deadline admission the DBC loop would apply to "self".
            if (
                self.spec.can_run(job)
                and self.lrms.can_meet_deadline(job)
                and (
                    job.budget is None
                    or execution_cost(job, self.spec) <= job.budget + 1e-9
                )
            ):
                self._accept_locally(job)
            else:
                self._reject(job)
            return
        resilience = self.resilience
        if resilience is not None:
            resilience.evict_stale_quotes(self)
        session = self.directory.open_session(
            rank_criterion_for(job), min_processors=job.num_processors
        )
        # Per-job constants, read once for the whole DBC loop.
        name = self.name
        budget = job.budget
        limit = None if budget is None else budget + 1e-9
        for quote in session:
            job.negotiation_rounds += 1
            # Budget feasibility is checked from the published quote alone —
            # no message is needed to rule a candidate out on cost.
            if limit is not None and execution_cost(job, quote.spec) > limit:
                continue
            candidate = quote.gfa_name
            if candidate == name:
                if self.lrms.can_meet_deadline(job):
                    self._accept_locally(job)
                    return
                continue
            if resilience is not None and not resilience.allow_candidate(name, candidate):
                continue  # circuit open: stop hammering a dead/flapping peer
            if self._negotiate(quote, job):
                self._migrate(quote, job)
                return
        self._reject(job)

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #
    def _accept_locally(self, job: Job) -> None:
        self.stats.accepted_local += 1
        self.lrms.submit(job)

    def _reject(self, job: Job) -> None:
        self.stats.rejected += 1
        if self.resilience is not None:
            self.resilience.note_reject(job)
        job.mark_rejected()

    def _enquire(self, remote: "GridFederationAgent", job: Job) -> Optional[AdmissionDecision]:
        """Send one admission enquiry; ``None`` means the round trip timed out.

        The whole exchange rides the transport: the NEGOTIATE is always
        accounted (it was sent); the REPLY only when the round trip survives
        the peer's liveness, any active lossy fault window, and the link's
        datagram loss.  On a timeout against a dead peer the fault injector
        invalidates the stale directory quote so later query sessions skip
        it (lazy discovery).
        """
        self.stats.negotiations_sent += 1
        delivered = self.transport.roundtrip(
            self.name, remote.name, job, responder_alive=remote.alive
        )
        if not delivered:
            self.stats.negotiation_timeouts += 1
            if self.faults is not None:
                self.faults.note_negotiation_timeout(self, remote, job)
            if self.resilience is not None:
                # Bounded retry with seeded backoff; records the breaker
                # failure whether or not a retry eventually gets through.
                return self.resilience.on_enquiry_timeout(self, remote, job)
            return None
        if self.resilience is not None:
            self.resilience.note_success(self, remote.name)
        return remote.handle_admission_request(job)

    def _negotiate(self, quote: DirectoryQuote, job: Job) -> bool:
        """One-to-one admission-control negotiation with a remote GFA."""
        remote: GridFederationAgent = self.registry.lookup(quote.gfa_name)
        decision = self._enquire(remote, job)
        if decision is None:
            return False
        if not decision.accepted:
            self.stats.negotiations_refused += 1
        elif self.resilience is not None:
            self.resilience.note_accept(job)
        return decision.accepted

    def _migrate(self, quote: DirectoryQuote, job: Job) -> None:
        """Transfer the job to the accepting remote GFA (via the transport).

        The transport decides the transfer's fate: lost outright inside a
        lossy fault window, delayed by slow-network windows and by the
        topology's latency / bandwidth, or — on the default zero-latency
        path — handed over synchronously.
        """
        remote: GridFederationAgent = self.registry.lookup(quote.gfa_name)
        self.stats.migrated_out += 1
        fate, delay = self.transport.transfer(self.name, remote.name, job)
        if fate == "lost" and self.resilience is not None:
            # Re-send the transfer (bounded, backed off) before declaring
            # the job lost; a rescued transfer carries its accumulated
            # backoff as extra delivery delay.
            fate, delay = self.resilience.retry_migration(self, remote, job)
        if fate == "lost":
            job.mark_failed(
                self.sim.now,
                f"job-submission to {remote.name} lost in transit",
            )
            if self.faults is not None:
                self.faults.note_transit_loss(job)
            return
        if delay > 0.0:
            self.sim.schedule(delay, self._deliver_migrated, remote.name, job)
            return
        remote.receive_remote_job(job, origin_gfa=self.name)

    def _deliver_migrated(self, remote_name: str, job: Job) -> None:
        """Deliver a delayed job transfer (latency topologies, slow windows)."""
        remote: GridFederationAgent = self.registry.lookup(remote_name)
        if remote.alive:
            remote.receive_remote_job(job, origin_gfa=self.name)
        elif self.alive:
            # The accepting cluster died while the job was in transit:
            # bounce it back through superscheduling.
            if self.faults is not None:
                self.faults.note_renegotiation(job)
            self.resubmit_job(job)
        else:
            job.mark_failed(
                self.sim.now,
                f"in transit to {remote_name} when both endpoints went down",
            )
            if self.faults is not None:
                self.faults.note_job_lost(job)

    # ------------------------------------------------------------------ #
    # Remote-side resource management
    # ------------------------------------------------------------------ #
    def handle_admission_request(self, job: Job):
        """Answer an admission-control enquiry from another GFA."""
        return self.admission.evaluate(job)

    def receive_remote_job(self, job: Job, origin_gfa: str) -> None:
        """Accept a migrated job for execution on the local cluster."""
        self.stats.remote_received += 1
        self._remote_job_origins[job.job_id] = origin_gfa
        self.lrms.submit(job)

    def _on_lrms_completion(self, job: Job) -> None:
        """Settle accounts and notify the origin when a job finishes here."""
        # Background load injected by a fault plan (user_id < 0) occupies
        # nodes but has no paying user and no origin to notify.
        if self.mode is SharingMode.ECONOMY and self.bank is not None and job.user_id >= 0:
            cost = execution_cost(job, self.spec)
            job.cost_paid = cost
            self.bank.transfer(
                payer=f"user/{job.origin}/{job.user_id}",
                payee=f"owner/{self.name}",
                amount=cost,
                time=self.sim.now,
                memo=f"job {job.job_id}",
            )
        origin_gfa = self._remote_job_origins.pop(job.job_id, None)
        if origin_gfa is not None:
            self.transport.notify(self.name, origin_gfa, MessageType.JOB_COMPLETION, job)

    # ------------------------------------------------------------------ #
    # Fault interface (driven by :class:`repro.faults.injector.FaultInjector`)
    # ------------------------------------------------------------------ #
    def fail(self, time: float) -> List[Job]:
        """Crash this cluster and return every job that was hosted on it.

        The LRMS kills running and queued work; remote-job bookkeeping is
        cleared so no stray completion messages fire later.  The caller
        decides each returned job's fate (re-negotiation at its origin, or a
        fault-attributed failure).  The cluster's stale directory quote is
        *not* withdrawn here — peers discover the death through negotiation
        timeouts, exactly as a decentralised directory would.
        """
        if not self.alive:
            return []
        self.alive = False
        self._down_since = time
        killed = self.lrms.fail_all()
        for job in killed:
            self._remote_job_origins.pop(job.job_id, None)
        return killed

    def recover(self, time: float) -> None:
        """Bring a crashed cluster back up (empty LRMS, ready for work)."""
        if self.alive:
            return
        self.alive = True
        if self._down_since is not None:
            self.downtime_intervals.append((self._down_since, time))
        self._down_since = None

    def downtime(self, period: float) -> float:
        """Total seconds this cluster spent crashed within ``[0, period]``."""
        total = sum(end - start for start, end in self.downtime_intervals)
        if self._down_since is not None:
            total += max(period - self._down_since, 0.0)
        return total

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def incentive_earned(self) -> float:
        """Grid Dollars earned by this cluster's owner so far."""
        if self.bank is None:
            return 0.0
        return self.bank.earnings_of(f"owner/{self.name}")

    def utilisation(self, period: float) -> float:
        """Average resource utilisation over an observation period."""
        return self.lrms.utilisation(period)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"GridFederationAgent({self.name!r}, mode={self.mode.value})"
