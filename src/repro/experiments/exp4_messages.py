"""Experiment 4 — message complexity with respect to jobs (Fig. 9).

The experiment re-uses the Experiment 3 population-profile sweep and counts,
per GFA, the negotiate / reply / job-submission / job-completion messages
exchanged to schedule jobs, classified as *local* (scheduling the GFA's own
users' jobs) or *remote* (work done for other sites' jobs).

The counts are *derived from actual traffic*: every inter-GFA message rides
the federation's :class:`~repro.net.transport.Transport`, which records it
once in its :class:`~repro.core.messages.MessageLog` (``result.message_log``)
— nothing is instrumented at the call sites.  ``result.network`` carries the
transport's link-level tallies (volume, latency, timeouts, losses), and
:func:`repro.metrics.collectors.network_summary` exposes them, directory
control-plane fan-out included.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import DEFAULT_PROFILES
from repro.experiments.exp3_economy import ProfileSweepResult, economy_sweep
from repro.metrics.collectors import message_summary
from repro.workload.archive import ArchiveResource


def run_experiment_4(
    profiles: Sequence[int] = DEFAULT_PROFILES,
    seed: int = 42,
    resources: Optional[Sequence[ArchiveResource]] = None,
    thin: int = 1,
    sweep: Optional[ProfileSweepResult] = None,
) -> ProfileSweepResult:
    """Run (or reuse) the profile sweep whose message counts Fig. 9 reports.

    Pass a previously computed ``sweep`` to avoid re-simulating — Experiment 4
    measures the same runs as Experiment 3, just through a different lens.

    .. deprecated:: 2.0
       Use :func:`repro.experiments.economy_sweep` instead.
    """
    warnings.warn(
        "run_experiment_4() is deprecated; use repro.experiments."
        "economy_sweep(...) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    if sweep is not None:
        return sweep
    return economy_sweep(profiles=profiles, seed=seed, resources=resources, thin=thin)


def message_complexity_rows(
    sweep: ProfileSweepResult,
) -> Tuple[List[str], List[List[object]], Dict[int, int]]:
    """Build the Fig. 9 data: per-GFA local/remote messages and federation totals.

    Returns
    -------
    (headers, rows, totals)
        ``rows`` holds one row per (profile, resource) with local / remote /
        total message counts; ``totals`` maps each OFT percentage to the total
        message count across the federation (Fig. 9c).
    """
    headers = ["OFT %", "Resource", "Local messages", "Remote messages", "Total"]
    rows: List[List[object]] = []
    totals: Dict[int, int] = {}
    for oft_pct, result in sweep:
        summary = message_summary(result)
        for name, counts in summary.items():
            rows.append([oft_pct, name, counts["local"], counts["remote"], counts["total"]])
        totals[oft_pct] = result.message_log.total_messages
    return headers, rows, totals
