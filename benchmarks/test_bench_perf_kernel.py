"""Hot-path kernel benchmarks — the measured performance trajectory.

The paper assumes an ``O(log n)`` directory and never times it; these
benchmarks measure the scheduling hot path directly:

* resumable query sessions vs the version-stamped ranking cache, on
  identical probe plans that both must answer identically,
* raw event-kernel throughput of the slotted/tuple-heap simulator,
* the full Table-3 federation run end to end, with its result fingerprint.

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
#: still reaching 128 clusters).
SIZES = (16, 64, 128)
PROBE_JOBS = 40


def test_bench_directory_queries(benchmark):
    rows = benchmark.pedantic(
        lambda: bench_directory_queries(SIZES, PROBE_JOBS, repeats=2),
        rounds=1,
        iterations=1,
    )

    print()
    print(
        render_table(
            ["Clusters", "Probes", "Session ms", "Cached ms"],
            [
                [r["clusters"], r["probes"], 1e3 * r["session_s"], 1e3 * r["cached_s"]]
                for r in rows
            ],
            title="Directory rank queries — resumable session vs ranking cache",
        )
    )

    for row in rows:
        # Correctness first: both strategies answered identically.
        assert row["results_identical"], row
        benchmark.extra_info[f"session_ms_{row['clusters']}"] = round(
            1e3 * row["session_s"], 3
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
            ["Clusters", "Jobs", "Events", "Seconds"],
            [[r["clusters"], r["jobs"], r["events"], r["session_s"]] for r in rows],
            title="Table-3 federation run end to end",
        )
    )
    for row in rows:
        assert row["jobs"] > 0 and row["events"] > 0, row
        benchmark.extra_info[f"fingerprint_{row['clusters']}"] = row["fingerprint"][:16]
