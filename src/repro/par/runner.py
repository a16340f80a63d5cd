"""Dispatch, execution and result merging for the parallel engine.

:func:`try_parallel_run` is the single entry point the scenario runner calls:
it evaluates the eligibility gate, runs the sharded engine when the scenario
qualifies, and merges the per-shard harvests back into one ordinary
:class:`~repro.core.federation.FederationResult` — the same type, carrying
the same accounting, as a serial run.  On an ineligible scenario it returns
``(None, stats)`` with the fallback diagnostic so the caller can continue on
the serial path and attach the record to its result.  Fleet checkpoints,
progress reports and cancellation follow the run's
:class:`~repro.service.checkpoint.BoundaryPolicy`, the same one the scenario
runner drives a serial run with.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.federation import FederationResult, ResourceOutcome
from repro.core.messages import MessageLog
from repro.core.policies import SharingMode
from repro.economy.bank import GridBank
from repro.net.transport import TransportStats
from repro.par.engine import ParallelSimulator
from repro.par.partition import plan_partition
from repro.par.shard import ShardHarvest
from repro.par.stats import ParallelStats
from repro.par.supervisor import ParallelRunFailed, SupervisionConfig, discard_fleet_checkpoint
from repro.scenario.scenario import Scenario
from repro.workload.archive import build_federation_specs
from repro.workload.job import JobStatus

__all__ = ["merge_results", "try_parallel_run"]


def merge_results(
    scenario: Scenario, harvests: List[ShardHarvest], stats: ParallelStats
) -> FederationResult:
    """Fold per-shard harvests into one federation-wide result.

    Everything merged here is either origin-authoritative (each job's
    terminal state lives on exactly one shard after the JOB_FINAL hand-back)
    or recorded exactly once across shards (messages, transport traffic,
    bank transfers), so the merge is a pure combination — no reconciliation.
    """
    # Imported lazily for the same cycle reason as in build_shard_federation.
    from repro.scenario.runner import resolve_resources

    config = scenario.to_config()
    specs = build_federation_specs(resolve_resources(scenario, None))

    jobs = sorted(
        (job for harvest in harvests for job in harvest.jobs),
        key=lambda job: job.job_id,
    )
    last_finish = max(
        (job.finish_time for job in jobs if job.finish_time is not None),
        default=config.horizon,
    )
    observation_period = max(config.horizon, last_finish)

    message_log = MessageLog()
    network = TransportStats()
    for harvest in harvests:
        message_log.merge_from(harvest.message_log)
        network.merge_from(harvest.network)

    bank: Optional[GridBank] = None
    if config.mode is SharingMode.ECONOMY:
        bank = GridBank()
        # Per-shard transaction ids overlap; replay every ledger through one
        # fresh bank in the canonical (time, shard, local id) order so the
        # merged ledger is deterministic and balances simply add up.
        entries = sorted(
            (
                (txn.time, harvest.shard_index, txn.transaction_id, txn)
                for harvest in harvests
                for txn in harvest.ledger
            ),
            key=lambda entry: entry[:3],
        )
        for _, _, _, txn in entries:
            bank.transfer(
                payer=txn.payer,
                payee=txn.payee,
                amount=txn.amount,
                time=txn.time,
                memo=txn.memo,
            )

    remote_counts: Dict[str, int] = {}
    for job in jobs:
        if (
            job.status is JobStatus.COMPLETED
            and job.executed_on is not None
            and job.executed_on != job.origin
        ):
            remote_counts[job.executed_on] = remote_counts.get(job.executed_on, 0) + 1

    stats_by_name: Dict[str, object] = {}
    busy_by_name: Dict[str, float] = {}
    for harvest in harvests:
        stats_by_name.update(harvest.stats)
        busy_by_name.update(harvest.busy_node_seconds)

    resources: Dict[str, ResourceOutcome] = {}
    for spec in specs:
        counters = message_log.counters(spec.name)
        resources[spec.name] = ResourceOutcome(
            spec=spec,
            stats=stats_by_name[spec.name],
            utilisation=busy_by_name[spec.name]
            / (spec.num_processors * observation_period),
            incentive=bank.earnings_of(f"owner/{spec.name}") if bank is not None else 0.0,
            remote_jobs_processed=remote_counts.get(spec.name, 0),
            local_messages=counters.local,
            remote_messages=counters.remote,
        )

    return FederationResult(
        config=config,
        specs=specs,
        jobs=jobs,
        resources=resources,
        message_log=message_log,
        bank=bank,
        directory=None,
        observation_period=observation_period,
        events_processed=sum(harvest.events_processed for harvest in harvests),
        network=network,
        parallel=stats,
    )


def try_parallel_run(
    scenario: Scenario,
    *,
    workers: int,
    backend: str = "process",
    profile_dir: Optional[str] = None,
    explicit_inputs: bool = False,
    explicit_fault_plan: bool = False,
    validate: bool = False,
    supervision: Optional[SupervisionConfig] = None,
    boundary: Optional[object] = None,
) -> Tuple[Optional[FederationResult], ParallelStats]:
    """Run a scenario on the parallel engine if it qualifies.

    Returns ``(result, stats)`` on a sharded run, or ``(None, stats)`` with
    ``stats.fallback_reason`` set when the scenario must run serially —
    either because the gate declined it, or because a supervised run
    exhausted its restart budget and degraded (``stats.degraded`` set, with
    the last :class:`~repro.par.engine.WorkerFailure` in
    ``stats.failure_detail``).  With ``supervision.degrade`` disabled,
    restart exhaustion raises :class:`ParallelRunFailed` instead.

    ``supervision=None`` runs the multiprocess backend under the default
    :class:`SupervisionConfig`.  ``boundary`` is the run's
    :class:`~repro.service.checkpoint.BoundaryPolicy` (fleet checkpoints,
    progress, cancellation; the ``process`` backend only), which
    :func:`~repro.scenario.runner.run_scenario` passes down; ``None`` runs
    one uninterrupted window loop.  A degraded run deletes its fleet
    checkpoint, so a resume finds the serial re-run's own checkpoint.
    """
    # Imported here: repro.scenario.runner imports this package lazily.
    from repro.scenario.runner import resolve_resources

    specs = build_federation_specs(resolve_resources(scenario, None))
    plan = plan_partition(
        scenario,
        workers,
        [spec.name for spec in specs],
        explicit_inputs=explicit_inputs,
        explicit_fault_plan=explicit_fault_plan,
        validate=validate,
    )
    if not plan.eligible:
        return None, ParallelStats(
            requested_workers=workers, fallback_reason=plan.fallback_reason
        )
    if supervision is None:
        supervision = SupervisionConfig()
    simulator = ParallelSimulator(
        scenario,
        workers,
        plan.window_s,
        lookahead=plan.lookahead_s,
        backend=backend,
        profile_dir=profile_dir,
        supervision=supervision,
        boundary=boundary,
    )
    try:
        harvests, stats = simulator.run()
    except ParallelRunFailed as failed:
        if not supervision.degrade:
            raise
        if boundary is not None and boundary.checkpoint_dir is not None:
            # The caller's serial re-run checkpoints into the same
            # directory, and a fleet checkpoint left there would win a resume.
            discard_fleet_checkpoint(boundary.checkpoint_dir)
        stats = failed.stats
        stats.degraded = True
        stats.fallback_reason = (
            f"supervised parallel run exhausted {failed.attempts} restart "
            f"attempt(s); degraded to serial ({failed.failure.summary()})"
        )
        return None, stats
    result = merge_results(scenario, harvests, stats)
    if boundary is not None:
        boundary.finish(result, max(harvest.sim_time for harvest in harvests))
    return result, stats
