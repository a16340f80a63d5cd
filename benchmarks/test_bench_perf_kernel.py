"""Hot-path kernel benchmarks — the measured performance trajectory.

The paper assumes an ``O(log n)`` directory and never times it; these
benchmarks measure the scheduling hot path directly:

* resumable query sessions vs the legacy full-scan directory path (the
  headline: >= 5x at 64 clusters, growing with system size),
* raw event-kernel throughput of the slotted/tuple-heap simulator,
* the full Table-3 federation run end to end under both query modes, with the
  byte-identical-output guarantee re-asserted via result fingerprints.

Run with ``pytest benchmarks/test_bench_perf_kernel.py -m benchmarks``; the
JSON trajectory is produced by ``gridfed bench`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro.metrics.report import render_table
from repro.perf import (
    bench_directory_queries,
    bench_event_kernel,
    bench_table3,
)

#: Micro-bench scale used here (kept small enough for the bench session while
#: still covering the >= 64-cluster regime the speedup claim is made at).
SIZES = (16, 64, 128)
PROBE_JOBS = 40


def test_bench_directory_query_speedup(benchmark):
    rows = benchmark.pedantic(
        lambda: bench_directory_queries(SIZES, PROBE_JOBS, repeats=2),
        rounds=1,
        iterations=1,
    )

    print()
    print(
        render_table(
            ["Clusters", "Probes", "Scan ms", "Session ms", "Cached ms", "Speedup"],
            [
                [
                    r["clusters"],
                    r["probes"],
                    1e3 * r["scan_s"],
                    1e3 * r["session_s"],
                    1e3 * r["cached_s"],
                    r["speedup_session"],
                ]
                for r in rows
            ],
            title="Directory rank queries — legacy scan vs resumable session",
        )
    )

    for row in rows:
        # Correctness first: all three strategies answered identically.
        assert row["results_identical"], row
        benchmark.extra_info[f"speedup_session_{row['clusters']}"] = round(
            row["speedup_session"], 2
        )
    # The acceptance bar: >= 5x at 64+ clusters (typically 10-30x here).
    for row in rows:
        if row["clusters"] >= 64:
            assert row["speedup_session"] >= 5.0, (
                f"session speedup at {row['clusters']} clusters regressed to "
                f"{row['speedup_session']:.1f}x (< 5x)"
            )


def test_bench_event_kernel_throughput(benchmark):
    result = benchmark.pedantic(
        lambda: bench_event_kernel(100_000, repeats=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"Event kernel: {result['events_fired']} events in "
        f"{result['seconds']:.3f}s ({result['events_per_s']:,.0f} events/s)"
    )
    benchmark.extra_info["events_per_s"] = round(result["events_per_s"])
    # Far below any real machine's capability; guards against pathological
    # regressions (e.g. pending turning O(n) again) without timing flakiness.
    assert result["events_per_s"] > 10_000


def test_bench_table3_end_to_end(benchmark):
    rows = benchmark.pedantic(
        lambda: bench_table3(thin=2, repeats=1), rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["Clusters", "Jobs", "Scan s", "Session s", "Speedup", "Identical"],
            [
                [
                    r["clusters"],
                    r["jobs"],
                    r["scan_s"],
                    r["session_s"],
                    r["speedup"],
                    "yes" if r["outputs_identical"] else "NO",
                ]
                for r in rows
            ],
            title="Table-3 federation run — legacy scan vs session query mode",
        )
    )
    for row in rows:
        # The fast path must never change the experiment's answers.
        assert row["outputs_identical"], row
        benchmark.extra_info[f"speedup_{row['clusters']}"] = round(row["speedup"], 3)
