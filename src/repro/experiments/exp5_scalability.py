"""Experiment 5 — message complexity with respect to system size (Figs. 10-11).

The federation is scaled from 10 to 50 resources by replicating the Table 1
clusters (each replica keeps its template's capacity, speed, price and
workload calibration).  For every (system size, population profile) point the
experiment records the min / average / max number of messages per job and per
GFA.

:func:`scalability_sweep` expands the size × profile grid through
:class:`repro.scenario.SweepRunner` (optionally in parallel, with
memoisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.federation import FederationResult
from repro.core.policies import SharingMode
from repro.metrics.collectors import MessageStats, per_gfa_message_stats, per_job_message_stats
from repro.scenario import Scenario, SweepRunner

#: System sizes studied in the paper (the Java simulator could not go beyond 50).
DEFAULT_SYSTEM_SIZES: Tuple[int, ...] = (10, 20, 30, 40, 50)

#: Profiles plotted in Figs. 10 and 11 (subset of the Experiment 3 sweep).
DEFAULT_SCALABILITY_PROFILES: Tuple[int, ...] = (0, 30, 50, 70, 100)


@dataclass(frozen=True)
class ScalabilityPoint:
    """Message-complexity statistics of one (system size, profile) run."""

    system_size: int
    oft_pct: int
    per_job: MessageStats
    per_gfa: MessageStats
    total_messages: int
    jobs: int


def _scalability_point(result: FederationResult, size: int, oft_pct: int) -> ScalabilityPoint:
    return ScalabilityPoint(
        system_size=size,
        oft_pct=oft_pct,
        per_job=per_job_message_stats(result),
        per_gfa=per_gfa_message_stats(result),
        total_messages=result.message_log.total_messages,
        jobs=len(result.jobs),
    )


def scalability_sweep(
    system_sizes: Sequence[int] = DEFAULT_SYSTEM_SIZES,
    profiles: Sequence[int] = DEFAULT_SCALABILITY_PROFILES,
    seed: int = 42,
    thin: int = 3,
    workers: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[Tuple[int, int], ScalabilityPoint]:
    """Sweep system sizes and population profiles.

    Parameters
    ----------
    system_sizes:
        Number of resources in the federation at each point (replicating the
        Table 1 clusters round-robin).
    profiles:
        OFT percentages to evaluate at each size.
    thin:
        Keep every ``thin``-th job of every resource.  The default (3) keeps
        the size-50 runs tractable on a laptop while preserving the relative
        load of every resource; ``thin=1`` reproduces the full workload.
    workers:
        Worker processes (``None`` or 1 = serial); parallel and serial
        execution produce identical results.
    runner:
        Optional pre-built :class:`SweepRunner` whose memoisation cache makes
        incremental sweeps (more sizes, more profiles) only run new points.

    Returns
    -------
    dict
        Mapping ``(system size, OFT %) -> ScalabilityPoint``.
    """
    runner = SweepRunner(workers=workers) if runner is None else runner
    base = Scenario(mode=SharingMode.ECONOMY, seed=seed, thin=thin)
    scenarios = runner.sweep(base, sizes=system_sizes, profiles=profiles)
    sweep = runner.run(scenarios, workers=workers)
    points: Dict[Tuple[int, int], ScalabilityPoint] = {}
    for scenario, result in sweep:
        size = int(scenario.system_size)
        oft_pct = int(round(scenario.oft_fraction * 100))
        points[(size, oft_pct)] = _scalability_point(result, size, oft_pct)
    return points


def scalability_rows(
    points: Dict[Tuple[int, int], ScalabilityPoint],
) -> Tuple[List[str], List[List[object]]]:
    """Flatten scalability points into printable rows (Figs. 10 and 11)."""
    headers = [
        "System size",
        "OFT %",
        "Min msg/job",
        "Avg msg/job",
        "Max msg/job",
        "Min msg/GFA",
        "Avg msg/GFA",
        "Max msg/GFA",
        "Total messages",
    ]
    rows: List[List[object]] = []
    for (size, oft_pct), point in sorted(points.items()):
        rows.append(
            [
                size,
                oft_pct,
                point.per_job.minimum,
                point.per_job.average,
                point.per_job.maximum,
                point.per_gfa.minimum,
                point.per_gfa.average,
                point.per_gfa.maximum,
                point.total_messages,
            ]
        )
    return headers, rows
