"""Figure 11 — min / average / max messages per GFA vs system size.

Paper shape: the average per-GFA message count grows with system size but far
more slowly than the federation itself, OFT populations load the GFAs with
more traffic than OFC ones, and the max/min spread widens with size (popular
resources become message hot-spots).
"""

from __future__ import annotations

from repro.experiments import economy_profile_scenario
from repro.metrics.report import render_table
from repro.scenario import run_scenario
from repro.workload.archive import replicate_resources


def test_bench_fig11_messages_per_gfa(benchmark, bench_scalability):
    benchmark.pedantic(
        lambda: run_scenario(
            economy_profile_scenario(100, seed=42, thin=12), resources=replicate_resources(10)
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for (size, oft_pct), point in sorted(bench_scalability.items()):
        rows.append(
            [size, oft_pct, point.per_gfa.minimum, point.per_gfa.average, point.per_gfa.maximum]
        )
    print()
    print(
        render_table(
            ["System size", "OFT %", "Min msg/GFA", "Avg msg/GFA", "Max msg/GFA"],
            rows,
            title="Figure 11 — message complexity per GFA vs system size",
        )
    )

    sizes = sorted({size for size, _ in bench_scalability})
    for size in sizes:
        ofc = bench_scalability[(size, 0)].per_gfa
        oft = bench_scalability[(size, 100)].per_gfa
        # Shape 1: OFT traffic per GFA is at least as heavy as OFC traffic.
        assert oft.average >= ofc.average * 0.9
        # Shape 2: the hot-spot (max) is well above the average — some GFAs
        # are far more popular than others.
        assert oft.maximum >= oft.average
    benchmark.extra_info["avg_msgs_per_gfa"] = {
        f"n={size},oft={oft}": round(point.per_gfa.average, 1)
        for (size, oft), point in sorted(bench_scalability.items())
    }
