"""Figure 5 — job processing characteristics (local vs migrated) per profile.

Paper shape: the cheapest resource (LANL Origin) keeps most of its own jobs
under OFC-heavy profiles but exports more of them as its users switch to OFT;
the fastest resource (NASA iPSC) shows the opposite, retaining more local work
as OFT grows.
"""

from __future__ import annotations

from repro.experiments import economy_profile_scenario
from repro.metrics.collectors import job_migration_counts
from repro.metrics.report import render_table
from repro.scenario import run_scenario


def test_bench_fig5_job_migration_profile(benchmark, bench_sweep):
    benchmark.pedantic(
        lambda: run_scenario(economy_profile_scenario(70, seed=42, thin=12)),
        rounds=1,
        iterations=1,
    )

    rows = []
    for oft_pct, result in bench_sweep:
        migration = job_migration_counts(result)
        for name in result.resource_names():
            data = migration[name]
            rows.append(
                [oft_pct, name, data["total"], data["local"], data["migrated"], data["remote_processed"]]
            )
    print()
    print(
        render_table(
            ["OFT %", "Resource", "Local jobs", "Processed locally", "Migrated", "Remote processed"],
            rows,
            title="Figure 5 — job processing characteristic vs population profile",
        )
    )

    # Shape: the most cost-efficient resource exports more of its own jobs as
    # its local users turn into OFT seekers.
    ofc_migrated = job_migration_counts(bench_sweep[0])["LANL Origin"]["migrated"]
    oft_migrated = job_migration_counts(bench_sweep[100])["LANL Origin"]["migrated"]
    assert oft_migrated >= ofc_migrated
    benchmark.extra_info["lanl_origin_migrated_ofc_vs_oft"] = [ofc_migrated, oft_migrated]
