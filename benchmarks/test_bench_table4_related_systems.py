"""Table 4 — superscheduling technique comparison (qualitative).

Regenerates the paper's related-systems comparison and, as the quantitative
counterpart, measures how fast the federation directory answers the ranked
queries that differentiate the Grid-Federation (decentralised directory,
coordinated, user-centric) from broadcast- and centralised-index systems.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.catalogue import RELATED_SYSTEMS, related_systems_rows
from repro.metrics.report import render_table
from repro.p2p import FederationDirectory, RankCriterion
from repro.workload.archive import build_federation_specs, replicate_resources


def test_bench_table4_related_systems(benchmark):
    specs = build_federation_specs(replicate_resources(50))

    def query_workload():
        directory = FederationDirectory(rng=np.random.default_rng(0))
        for i, spec in enumerate(specs):
            directory.subscribe(f"GFA-{i}", spec)
        hits = 0
        for rank in range(1, 11):
            for criterion in (RankCriterion.CHEAPEST, RankCriterion.FASTEST):
                if directory.open_session(criterion).kth(rank) is not None:
                    hits += 1
        return directory, hits

    directory, hits = benchmark.pedantic(query_workload, rounds=3, iterations=1)

    headers, rows = related_systems_rows()
    print()
    print(render_table(headers, rows, title="Table 4 — superscheduling technique comparison"))
    print(
        f"Directory of {len(specs)} resources answered {directory.query_count} ranked queries "
        f"({directory.measured_overlay_hops} overlay hops, "
        f"{directory.assumed_query_messages} messages under the paper's O(log n) assumption)."
    )

    assert hits == 20
    assert len(RELATED_SYSTEMS) == 10
    benchmark.extra_info["overlay_hops"] = directory.measured_overlay_hops
