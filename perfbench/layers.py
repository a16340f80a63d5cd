"""Which public names the traced run wraps, and the per-layer metrics.

The layers are the modules of the ``repro`` package.  Each entry of
:data:`SPANS` names a public callable where its caller looks it up, the span
it records and the self-time bucket its exclusive time lands in.  Counts that
the program already keeps on its result (events, negotiations, transport and
parallel-engine accounting) are read from the result instead of re-counted.

Every metric in :data:`PER_LAYER` is printed on every workload; a layer that
does not run on a workload reads 0.  A layer whose wrapped names are all gone,
or whose result fields cannot be read, reads 0 as well and is listed as
unmeasured.
"""

from __future__ import annotations

import os
import statistics
from typing import Callable, Dict, List, Sequence, Set, Tuple

from spans import Tracer, union_seconds

__all__ = ["PER_LAYER", "install", "layer_metrics", "unmeasured_layers"]


def _standing(acc, args) -> None:
    """Largest event population seen when a simulator starts running."""
    pending = getattr(args[0], "pending", 0)
    if pending > acc.extra["sim.standing_events"]:
        acc.extra["sim.standing_events"] = pending


def _jobs_generated(acc, args, result) -> None:
    acc.extra["workload.jobs_generated"] += len(result)


def _snapshot_bytes(acc, args, result) -> None:
    try:
        acc.extra["service.snapshot_bytes"] += os.path.getsize(args[0])
    except (OSError, IndexError, TypeError):
        pass


def _cache_hit(acc, args, result) -> None:
    acc.extra["service.cache_hits"] += 1


#: (where it is looked up, span name, self-time bucket, options)
SPANS: Sequence[Tuple[str, str, str, dict]] = (
    ("repro.cluster.lrms:SpaceSharedLRMS.estimate_completion_time", "cluster.estimate", "cluster", {}),
    ("repro.cluster.lrms:SpaceSharedLRMS.submit", "cluster.submit", "cluster", {}),
    ("repro.cluster.profile:AvailabilityProfile.__init__", "cluster.profile_build", "cluster", {}),
    ("repro.workload.generator:SyntheticTraceGenerator.generate", "workload.generate", "workload",
     {"on_exit": _jobs_generated}),
    ("repro.sim.engine:Simulator.run", "sim.run", "sim", {"on_enter": _standing}),
    ("repro.sim.engine:Simulator.run_window", "sim.run_window", "sim", {"on_enter": _standing}),
    ("repro.core.federation:Federation.__init__", "core.build", "core.build", {}),
    ("repro.core.federation:Federation.collect", "core.collect", "core.collect", {}),
    ("repro.core.gfa:GridFederationAgent.submit_local_job", "core.schedule", "core.schedule", {}),
    ("repro.core.gfa:GridFederationAgent.handle_admission_request", "core.admission", "core.schedule", {}),
    ("repro.p2p.directory:FederationDirectory.open_session", "p2p.session", "p2p", {}),
    ("repro.p2p.directory:DirectoryQuerySession.kth", "p2p.probe", "p2p", {}),
    ("repro.net.transport:Transport.roundtrip", "net.roundtrip", "net", {}),
    ("repro.net.transport:Transport.transfer", "net.transfer", "net", {}),
    ("repro.net.transport:Transport.notify", "net.notify", "net", {}),
    ("repro.economy.bank:GridBank.transfer", "economy.transfer", "economy", {}),
    # The in-process shard handle: "spawn" builds a shard, "wait" runs its
    # window, so par.wait_s is shard compute rather than barrier waiting.
    ("repro.par.engine:OracleShardHandle.__init__", "par.spawn", "par", {}),
    ("repro.par.engine:OracleShardHandle.start", "par.start", "par", {}),
    ("repro.par.engine:OracleShardHandle.step_begin", "par.dispatch", "par", {}),
    ("repro.par.engine:OracleShardHandle.step_finish", "par.wait", "par", {}),
    ("repro.par.engine:OracleShardHandle.harvest_finish", "par.harvest", "par", {}),
    ("repro.par.runner:merge_results", "par.merge", "par", {}),
    ("repro.service.daemon:GridfedDaemon.submit", "service.submit", "service", {"keep_samples": True}),
    ("repro.service.daemon:GridfedDaemon.status", "service.status", "service", {}),
    ("repro.service.daemon:GridfedDaemon.health", "service.health", "service", {}),
    ("repro.service.daemon:execute_submission", "service.execute", "service", {}),
    ("repro.service.daemon:DaemonState.load_record", "service.load_record", "service", {}),
    ("repro.service.checkpoint:write_snapshot", "service.snapshot", "service",
     {"on_exit": _snapshot_bytes}),
    ("repro.service.cache:PersistentResultCache.__getitem__", "service.cache_read", "service",
     {"on_exit": _cache_hit}),
    ("repro.service.cache:PersistentResultCache.__setitem__", "service.cache_write", "service", {}),
)

#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER: Sequence[Tuple[str, str]] = (
    ("cluster.estimates", "count"),
    ("cluster.estimate_s", "s"),
    ("cluster.profile_builds", "count"),
    ("cluster.profile_reuse_ratio", "ratio"),
    ("cluster.submits", "count"),
    ("cluster.submit_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.jobs_generated", "count"),
    ("workload.jobs", "count"),
    ("sim.events", "count"),
    ("sim.standing_events", "count"),
    ("sim.self_s", "s"),
    ("core.build_s", "s"),
    ("core.collect_s", "s"),
    ("core.negotiations", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.rounds_per_job", "ratio"),
    ("core.schedule_self_s", "s"),
    ("p2p.sessions", "count"),
    ("p2p.probes", "count"),
    ("p2p.probe_s", "s"),
    ("net.messages", "count"),
    ("net.roundtrips", "count"),
    ("net.roundtrip_s", "s"),
    ("net.delayed", "count"),
    ("net.timeouts", "count"),
    ("economy.transfers", "count"),
    ("economy.transfer_s", "s"),
    ("par.windows", "count"),
    ("par.cross_messages", "count"),
    ("par.cross_mb", "MB"),
    ("par.load_updates", "count"),
    ("par.imbalance", "ratio"),
    ("par.spawn_s", "s"),
    ("par.dispatch_s", "s"),
    ("par.wait_s", "s"),
    ("par.harvest_s", "s"),
    ("par.restarts", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_growth", "ratio"),
    ("service.records_read", "count"),
    ("service.snapshots", "count"),
    ("service.snapshot_s", "s"),
    ("service.snapshot_mb", "MB"),
    ("service.cache_hits", "count"),
    ("service.cache_read_s", "s"),
    ("service.cache_write_s", "s"),
    ("service.health_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced name; names that are gone are recorded, not fatal."""
    for where, span, bucket, options in SPANS:
        tracer.span(where, span, bucket, **options)


def unmeasured_layers(tracer: Tracer, unreadable: Set[str]) -> List[str]:
    """Layers none of whose wrapped names exist any more, plus ``unreadable``."""
    wanted: Dict[str, List[str]] = {}
    for where, span, _bucket, _options in SPANS:
        wanted.setdefault(span.split(".", 1)[0], []).append(where)
    missing = set(tracer.unmeasured)
    gone = {layer for layer, names in wanted.items() if all(name in missing for name in names)}
    return sorted(gone | unreadable)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: dict,
    results: Sequence[object],
    *,
    wall_s: float,
    window: Tuple[float, float],
    unreadable: Set[str],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric but ``trace.overhead_pct``.

    ``totals`` are the tracer's span totals; ``results`` are the federation
    results the traced operation produced (one for a simulation workload, one
    per fresh daemon run); ``window`` is the timed region, used to clip the
    coverage of top-level spans.  A layer whose result fields cannot be read
    is added to ``unreadable`` and reads 0.
    """
    calls = totals["calls"]
    total = totals["total"]
    self_s = totals["self_s"]
    extra = totals["extra"]

    def from_results(layer: str, read: Callable[[object], float]) -> float:
        try:
            return float(sum(read(result) for result in results))
        except (AttributeError, TypeError, KeyError, ValueError):
            unreadable.add(layer)
            return 0.0

    def negotiations(field: str) -> Callable[[object], float]:
        return lambda r: sum(getattr(o.stats, field) for o in r.resources.values())

    jobs = from_results("workload", lambda r: len(r.jobs))
    sent = from_results("core", negotiations("negotiations_sent"))
    refused = from_results("core", negotiations("negotiations_refused"))
    timeouts = from_results("core", negotiations("negotiation_timeouts"))
    rounds = from_results("core", lambda r: sum(job.negotiation_rounds for job in r.jobs))
    par = [r.parallel for r in results if getattr(r, "parallel", None) is not None]

    def par_sum(field: str) -> float:
        try:
            return float(sum(getattr(p, field) for p in par))
        except (AttributeError, TypeError):
            unreadable.add("par")
            return 0.0

    worker_events = [events for p in par for events in (getattr(p, "worker_events", None) or [])]
    start, end = window
    clipped = [(max(a, start), min(b, end)) for a, b in totals["top"] if b > start and a < end]
    submits = [duration for _start, duration in sorted(totals["samples"].get("service.submit", []))]

    metrics = {
        "cluster.estimates": calls["cluster.estimate"],
        "cluster.estimate_s": total["cluster.estimate"],
        "cluster.profile_builds": calls["cluster.profile_build"],
        "cluster.profile_reuse_ratio": (
            max(0.0, 1.0 - _ratio(calls["cluster.profile_build"], calls["cluster.estimate"]))
            if calls["cluster.estimate"] else 0.0
        ),
        "cluster.submits": calls["cluster.submit"],
        "cluster.submit_s": total["cluster.submit"],
        "workload.generate_s": total["workload.generate"],
        "workload.jobs_generated": extra["workload.jobs_generated"],
        "workload.jobs": jobs,
        "sim.events": from_results("sim", lambda r: r.events_processed),
        "sim.standing_events": extra["sim.standing_events"],
        "sim.self_s": self_s["sim"],
        "core.build_s": total["core.build"],
        "core.collect_s": total["core.collect"],
        "core.negotiations": sent,
        "core.accept_ratio": _ratio(sent - refused - timeouts, sent),
        "core.rounds_per_job": _ratio(rounds, jobs),
        "core.schedule_self_s": self_s["core.schedule"],
        "p2p.sessions": calls["p2p.session"],
        "p2p.probes": calls["p2p.probe"],
        "p2p.probe_s": total["p2p.probe"],
        "net.messages": from_results("net", lambda r: r.network.messages),
        "net.roundtrips": calls["net.roundtrip"],
        "net.roundtrip_s": total["net.roundtrip"],
        "net.delayed": from_results("net", lambda r: r.network.delayed_deliveries),
        "net.timeouts": from_results("net", lambda r: r.network.timeouts),
        "economy.transfers": calls["economy.transfer"],
        "economy.transfer_s": total["economy.transfer"],
        "par.windows": par_sum("windows"),
        "par.cross_messages": par_sum("cross_messages"),
        "par.cross_mb": par_sum("cross_volume_mb"),
        "par.load_updates": par_sum("load_updates"),
        "par.imbalance": (
            max(worker_events) / statistics.fmean(worker_events)
            if worker_events and sum(worker_events) else 0.0
        ),
        "par.spawn_s": total["par.spawn"] + total["par.start"],
        "par.dispatch_s": total["par.dispatch"],
        "par.wait_s": total["par.wait"],
        "par.harvest_s": total["par.harvest"] + total["par.merge"],
        "par.restarts": par_sum("restarts"),
        "service.submit_ms_p50": 1000.0 * statistics.median(submits) if submits else 0.0,
        "service.submit_growth": (
            statistics.fmean(submits[-10:]) / statistics.fmean(submits[:10])
            if len(submits) >= 20 else 0.0
        ),
        "service.records_read": calls["service.load_record"],
        "service.snapshots": calls["service.snapshot"],
        "service.snapshot_s": total["service.snapshot"],
        "service.snapshot_mb": extra["service.snapshot_bytes"] / 1e6,
        "service.cache_hits": extra["service.cache_hits"],
        "service.cache_read_s": total["service.cache_read"],
        "service.cache_write_s": total["service.cache_write"],
        "service.health_s": total["service.health"],
        "trace.unattributed_pct": 100.0 * max(0.0, 1.0 - union_seconds(clipped) / wall_s),
    }
    return {name: float(value) for name, value in metrics.items()}
