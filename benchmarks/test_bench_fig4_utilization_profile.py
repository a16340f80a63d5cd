"""Figure 4 — average resource utilisation vs user population profile.

Paper shape: under 100 % OFC the cost-effective clusters carry the load while
the fast, expensive ones (NASA iPSC, SDSC SP2, KTH SP2) sit largely idle;
as the OFT share grows the load spreads and every resource sees utilisation.
"""

from __future__ import annotations

from repro.experiments import economy_profile_scenario
from repro.metrics.report import render_table
from repro.scenario import run_scenario


def test_bench_fig4_utilization_profile(benchmark, bench_sweep):
    benchmark.pedantic(
        lambda: run_scenario(economy_profile_scenario(50, seed=42, thin=12)),
        rounds=1,
        iterations=1,
    )

    rows = []
    for oft_pct, result in bench_sweep:
        for name in result.resource_names():
            rows.append([oft_pct, name, 100.0 * result.resources[name].utilisation])
    print()
    print(
        render_table(
            ["OFT %", "Resource", "Utilisation %"],
            rows,
            title="Figure 4 — average resource utilisation vs population profile",
        )
    )

    # Shape: the fastest resource (NASA iPSC) is busier when everybody seeks
    # OFT than when everybody seeks OFC; the cheapest (LANL Origin) shows the
    # opposite trend.
    all_ofc, all_oft = bench_sweep[0], bench_sweep[100]
    assert (
        all_oft.resources["NASA iPSC"].utilisation
        >= all_ofc.resources["NASA iPSC"].utilisation
    )
    assert (
        all_ofc.resources["LANL Origin"].utilisation
        >= all_oft.resources["LANL Origin"].utilisation * 0.5
    )
    benchmark.extra_info["profiles"] = list(bench_sweep.profiles())
