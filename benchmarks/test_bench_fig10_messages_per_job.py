"""Figure 10 — min / average / max messages per job vs system size.

Paper shape: the average number of messages needed to schedule a job grows
slowly (far sub-linearly) with the system size, OFC scheduling needs fewer
messages per job than OFT, and the per-job *maximum* grows much faster than
the average (some jobs probe a large share of the federation).
"""

from __future__ import annotations

from repro.experiments import economy_profile_scenario
from repro.metrics.report import render_table
from repro.scenario import run_scenario
from repro.workload.archive import replicate_resources


def test_bench_fig10_messages_per_job(benchmark, bench_scalability):
    benchmark.pedantic(
        lambda: run_scenario(
            economy_profile_scenario(0, seed=42, thin=12), resources=replicate_resources(10)
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for (size, oft_pct), point in sorted(bench_scalability.items()):
        rows.append(
            [size, oft_pct, point.per_job.minimum, point.per_job.average, point.per_job.maximum]
        )
    print()
    print(
        render_table(
            ["System size", "OFT %", "Min msg/job", "Avg msg/job", "Max msg/job"],
            rows,
            title="Figure 10 — message complexity per job vs system size",
        )
    )

    sizes = sorted({size for size, _ in bench_scalability})
    smallest, largest = sizes[0], sizes[-1]
    # Shape 1: OFC needs no more messages per job than OFT at every size.
    for size in sizes:
        assert (
            bench_scalability[(size, 0)].per_job.average
            <= bench_scalability[(size, 100)].per_job.average + 1e-9
        )
    # Shape 2: the average grows sub-linearly with the system size.
    growth = largest / smallest
    avg_growth = (
        bench_scalability[(largest, 100)].per_job.average
        / max(bench_scalability[(smallest, 100)].per_job.average, 1e-9)
    )
    assert avg_growth < growth
    benchmark.extra_info["avg_msgs_per_job"] = {
        f"n={size},oft={oft}": round(point.per_job.average, 2)
        for (size, oft), point in sorted(bench_scalability.items())
    }
