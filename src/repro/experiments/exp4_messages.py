"""Experiment 4 — message complexity with respect to jobs (Fig. 9).

The experiment re-uses the Experiment 3 population-profile sweep
(:func:`~repro.experiments.exp3_economy.economy_sweep`) and counts,
per GFA, the negotiate / reply / job-submission / job-completion messages
exchanged to schedule jobs, classified as *local* (scheduling the GFA's own
users' jobs) or *remote* (work done for other sites' jobs).

The counts are *derived from actual traffic*: every inter-GFA message rides
the federation's :class:`~repro.net.transport.Transport`, which records it
once in its :class:`~repro.core.messages.MessageLog` (``result.message_log``)
— nothing is instrumented at the call sites.  ``result.network`` carries the
transport's link-level tallies (volume, latency, timeouts, losses), and
:func:`repro.metrics.collectors.network_summary` exposes them, directory
control-plane traffic included.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.exp3_economy import ProfileSweepResult
from repro.metrics.collectors import message_summary


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
