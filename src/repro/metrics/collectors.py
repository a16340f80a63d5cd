"""Collectors: turn a FederationResult into the paper's tables and figures.

Every function takes a :class:`~repro.core.federation.FederationResult` and
returns plain dataclasses / dicts so that benchmarks, examples and the CLI can
render or post-process them without re-deriving anything from raw jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.specs import execution_cost, execution_time
from repro.core.federation import FederationResult
from repro.workload.job import Job, JobStatus


@dataclass(frozen=True)
class ResourceRow:
    """One row of the workload-processing tables (Tables 2 and 3)."""

    name: str
    utilisation: float
    total_jobs: int
    accepted_pct: float
    rejected_pct: float
    processed_locally: int
    migrated_to_federation: int
    remote_jobs_processed: int


@dataclass(frozen=True)
class QoSSummary:
    """Average response time and budget spent for one resource's local users."""

    name: str
    avg_response_time: float
    avg_budget_spent: float
    jobs_counted: int


@dataclass(frozen=True)
class MessageStats:
    """Min / average / max of a per-job or per-GFA message distribution."""

    minimum: float
    average: float
    maximum: float
    count: int


# --------------------------------------------------------------------------- #
# Tables 2 / 3 and Fig. 2, 4, 5, 6
# --------------------------------------------------------------------------- #
def resource_processing_table(result: FederationResult) -> List[ResourceRow]:
    """Per-resource workload processing statistics (Tables 2 and 3)."""
    rows: List[ResourceRow] = []
    for spec in result.specs:
        outcome = result.resources[spec.name]
        stats = outcome.stats
        total = stats.submitted_local
        rows.append(
            ResourceRow(
                name=spec.name,
                utilisation=outcome.utilisation,
                total_jobs=total,
                accepted_pct=100.0 * stats.acceptance_rate,
                rejected_pct=100.0 * stats.rejection_rate,
                processed_locally=stats.accepted_local,
                migrated_to_federation=stats.migrated_out,
                remote_jobs_processed=outcome.remote_jobs_processed,
            )
        )
    return rows


def average_acceptance_rate(result: FederationResult) -> float:
    """Average per-resource job acceptance rate (as reported in Section 3.7.1)."""
    rows = resource_processing_table(result)
    if not rows:
        return 100.0
    return sum(row.accepted_pct for row in rows) / len(rows)


def incentive_by_resource(result: FederationResult) -> Dict[str, float]:
    """Grid Dollars earned by every resource owner (Fig. 3a)."""
    return {name: outcome.incentive for name, outcome in result.resources.items()}


def remote_jobs_serviced(result: FederationResult) -> Dict[str, int]:
    """Remote jobs executed by every resource (Fig. 3b)."""
    return {name: outcome.remote_jobs_processed for name, outcome in result.resources.items()}


def rejected_by_resource(result: FederationResult) -> Dict[str, int]:
    """Jobs rejected per originating resource (Fig. 6)."""
    return {name: outcome.stats.rejected for name, outcome in result.resources.items()}


# --------------------------------------------------------------------------- #
# Figs. 7 and 8: end-user QoS satisfaction
# --------------------------------------------------------------------------- #
def _origin_spec(result: FederationResult, job: Job):
    for spec in result.specs:
        if spec.name == job.origin:
            return spec
    raise KeyError(job.origin)


def user_qos_summary(
    result: FederationResult,
    include_rejected: bool = False,
) -> List[QoSSummary]:
    """Average response time and budget spent per originating resource.

    ``include_rejected=False`` reproduces Fig. 7 (completed jobs only);
    ``include_rejected=True`` reproduces Fig. 8, where each rejected job is
    accounted with the response time and cost it *would* have had on its
    unloaded originating resource — exactly the paper's convention.
    """
    summaries: List[QoSSummary] = []
    for spec in result.specs:
        response_times: List[float] = []
        budgets: List[float] = []
        for job in result.jobs_of(spec.name):
            if job.status is JobStatus.COMPLETED:
                response_times.append(job.response_time)
                budgets.append(job.cost_paid if job.cost_paid is not None else 0.0)
            elif job.status is JobStatus.REJECTED and include_rejected:
                response_times.append(execution_time(job, spec))
                budgets.append(execution_cost(job, spec))
        count = len(response_times)
        summaries.append(
            QoSSummary(
                name=spec.name,
                avg_response_time=sum(response_times) / count if count else 0.0,
                avg_budget_spent=sum(budgets) / count if count else 0.0,
                jobs_counted=count,
            )
        )
    return summaries


def federation_wide_qos(result: FederationResult, include_rejected: bool = True) -> QoSSummary:
    """Average response time / budget over *all* users of the federation."""
    per_resource = user_qos_summary(result, include_rejected=include_rejected)
    total_jobs = sum(s.jobs_counted for s in per_resource)
    if total_jobs == 0:
        return QoSSummary(name="federation", avg_response_time=0.0, avg_budget_spent=0.0, jobs_counted=0)
    response = sum(s.avg_response_time * s.jobs_counted for s in per_resource) / total_jobs
    budget = sum(s.avg_budget_spent * s.jobs_counted for s in per_resource) / total_jobs
    return QoSSummary(
        name="federation",
        avg_response_time=response,
        avg_budget_spent=budget,
        jobs_counted=total_jobs,
    )


# --------------------------------------------------------------------------- #
# Figs. 9, 10, 11: message complexity
# --------------------------------------------------------------------------- #
def message_summary(result: FederationResult) -> Dict[str, Dict[str, int]]:
    """Local / remote / total message counts per GFA (Fig. 9)."""
    log = result.message_log
    summary: Dict[str, Dict[str, int]] = {}
    for spec in result.specs:
        counters = log.counters(spec.name)
        summary[spec.name] = {
            "local": counters.local,
            "remote": counters.remote,
            "total": counters.total,
        }
    return summary


def _distribution(values: List[float]) -> MessageStats:
    if not values:
        return MessageStats(minimum=0.0, average=0.0, maximum=0.0, count=0)
    return MessageStats(
        minimum=float(min(values)),
        average=float(sum(values) / len(values)),
        maximum=float(max(values)),
        count=len(values),
    )


def per_job_message_stats(result: FederationResult, include_message_free_jobs: bool = True) -> MessageStats:
    """Min / avg / max messages needed to schedule a job (Fig. 10).

    Jobs scheduled on their own origin cluster exchange no messages; they are
    included by default (the paper averages over all jobs in the system).
    """
    values = [float(job.messages) for job in result.jobs]
    if not include_message_free_jobs:
        values = [v for v in values if v > 0]
    return _distribution(values)


def per_gfa_message_stats(result: FederationResult) -> MessageStats:
    """Min / avg / max messages sent+received per GFA (Fig. 11)."""
    values = [float(result.message_log.counters(spec.name).total) for spec in result.specs]
    return _distribution(values)


def network_summary(result: FederationResult) -> Dict[str, object]:
    """Transport-level traffic accounting of one run.

    The counts here are *derived* from the traffic that actually crossed the
    message fabric (the transport records into the same MessageLog the Fig.
    9–11 collectors above read, so the data-plane totals reconcile); the
    control-plane entry exposes the directory traffic that the paper's
    accounting deliberately excludes.
    """
    net = result.network
    if net is None:
        return {}
    summary: Dict[str, object] = {
        "messages": net.messages,
        "volume_mb": net.volume_mb,
        "latency_s": net.latency_s,
        "timeouts": net.timeouts,
        "link_losses": net.link_losses,
        "transit_losses": net.transit_losses,
        "delayed_deliveries": net.delayed_deliveries,
        "directory_messages": net.control_messages,
    }
    if result.resilience is not None:
        summary["resilience"] = resilience_summary(result)
    return summary


# --------------------------------------------------------------------------- #
# Fault and SLA metrics (populated when a fault plan was active)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultMetrics:
    """Headline robustness numbers of one (possibly fault-ridden) run."""

    crashes: int
    departures: int
    load_spikes: int
    negotiation_timeouts: int
    renegotiations: int
    jobs_lost: int
    total_downtime: float
    #: Fraction of *completed* jobs that missed their deadline or budget.
    sla_violation_rate: float
    #: Fraction of all submitted jobs attributably lost to faults.
    loss_rate: float
    #: Retries attempted by the active resilience policy (0 without one).
    retries: int = 0
    #: Circuit-breaker trips of the active resilience policy.
    breaker_trips: int = 0
    #: Stale quotes aged out by the policy's TTL sweep.
    evicted_quotes: int = 0


def sla_violation_rate(result: FederationResult, include_lost: bool = False) -> float:
    """Fraction of jobs whose QoS (deadline/budget) was violated.

    Fault-free Grid-Federation runs keep this at zero by construction — the
    admission handshake guarantees deadlines and the DBC loop budgets; under
    churn, re-negotiated jobs may finish late or cost more, which is exactly
    the degradation this metric quantifies.

    ``include_lost=False`` (the default) is the paper-style view: violations
    over *completed* jobs only.  ``include_lost=True`` additionally counts
    every fault-lost job as a violation (a job that never came back certainly
    missed its SLA) — the robustness view the chaos-soak comparison uses,
    which is immune to the survivorship artifact where losing a job outright
    *improves* the completed-only rate.
    """
    completed = result.completed_jobs()
    violated = sum(1 for job in completed if not job.qos_satisfied)
    denominator = len(completed)
    if include_lost:
        lost = len(result.failed_jobs())
        violated += lost
        denominator += lost
    if denominator == 0:
        return 0.0
    return violated / denominator


def resilience_summary(result: FederationResult) -> Dict[str, object]:
    """The resilience-policy counters of one run (empty without a policy)."""
    report = result.resilience
    if report is None:
        return {}
    return {
        "policy": report.policy,
        "retries": report.retries,
        "retry_successes": report.retry_successes,
        "breaker_trips": report.breaker_trips,
        "breaker_skips": report.breaker_skips,
        "hedges": report.hedges,
        "hedged_wins": report.hedged_wins,
        "evicted_quotes": report.evicted_quotes,
        "backoff_wait_s": report.backoff_wait_s,
        "open_circuits": report.open_circuits,
    }


def downtime_by_resource(result: FederationResult) -> Dict[str, float]:
    """Seconds each cluster spent crashed (empty mapping when fault-free)."""
    if result.faults is None:
        return {}
    return dict(result.faults.downtime)


def fault_metrics(result: FederationResult) -> FaultMetrics:
    """Collect the robustness summary (all-zero for fault-free runs)."""
    report = result.faults
    resilience = result.resilience
    total_jobs = len(result.jobs)
    lost = len(result.failed_jobs())
    return FaultMetrics(
        crashes=report.crashes if report else 0,
        departures=report.departures if report else 0,
        load_spikes=report.load_spikes if report else 0,
        negotiation_timeouts=report.negotiation_timeouts if report else 0,
        renegotiations=report.renegotiations if report else 0,
        jobs_lost=lost,
        total_downtime=report.total_downtime if report else 0.0,
        sla_violation_rate=sla_violation_rate(result),
        loss_rate=lost / total_jobs if total_jobs else 0.0,
        retries=resilience.retries if resilience else 0,
        breaker_trips=resilience.breaker_trips if resilience else 0,
        evicted_quotes=resilience.evicted_quotes if resilience else 0,
    )


def job_migration_counts(result: FederationResult) -> Dict[str, Dict[str, int]]:
    """Locally-processed vs migrated job counts per resource (Figs. 2b and 5)."""
    out: Dict[str, Dict[str, int]] = {}
    for spec in result.specs:
        stats = result.resources[spec.name].stats
        out[spec.name] = {
            "total": stats.submitted_local,
            "local": stats.accepted_local,
            "migrated": stats.migrated_out,
            "remote_processed": result.resources[spec.name].remote_jobs_processed,
            "rejected": stats.rejected,
        }
    return out
