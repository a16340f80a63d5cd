"""Figure 6 — number of jobs rejected per resource during economy scheduling.

Paper shape: rejections are concentrated on a few origins and stay a small
fraction of the total workload for every population profile (the federation
absorbs most of the load that individual resources would have turned away).
"""

from __future__ import annotations

from repro.experiments import economy_profile_scenario
from repro.metrics.collectors import rejected_by_resource
from repro.metrics.report import render_table
from repro.scenario import run_scenario


def test_bench_fig6_rejections_profile(benchmark, bench_sweep):
    benchmark.pedantic(
        lambda: run_scenario(economy_profile_scenario(0, seed=42, thin=12)),
        rounds=1,
        iterations=1,
    )

    rows = []
    totals = {}
    for oft_pct, result in bench_sweep:
        rejected = rejected_by_resource(result)
        totals[oft_pct] = sum(rejected.values())
        for name in result.resource_names():
            rows.append([oft_pct, name, rejected[name]])
    print()
    print(
        render_table(
            ["OFT %", "Resource", "Jobs rejected"],
            rows,
            title="Figure 6 — jobs rejected vs population profile",
        )
    )
    print(
        render_table(
            ["OFT %", "Total rejected", "Total jobs"],
            [[k, v, len(bench_sweep[k].jobs)] for k, v in sorted(totals.items())],
            title="Federation-wide rejections",
        )
    )

    # Shape: rejections remain a small fraction of the workload under economy
    # scheduling for every profile.
    for oft_pct, result in bench_sweep:
        assert totals[oft_pct] <= 0.25 * len(result.jobs)
    benchmark.extra_info["total_rejected_by_profile"] = {str(k): v for k, v in totals.items()}
