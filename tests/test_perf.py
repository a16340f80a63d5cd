"""Tests for the ``gridfed bench`` measurement functions at toy sizes.

Timings are not checked here.  What is checked is the fields of each row and
the answers and fingerprints the rows carry, which the report and its
baseline comparison rely on.
"""

from __future__ import annotations

from repro.core.policies import SharingMode
from repro.perf import bench_directory_queries, bench_table3
from repro.scenario import Scenario, result_fingerprint, run_scenario


def test_directory_query_strategies_answer_identically():
    rows = bench_directory_queries(sizes=(8, 40), probe_jobs=25)
    assert [row["clusters"] for row in rows] == [8, 40]
    for row in rows:
        assert set(row) == {
            "clusters",
            "probe_jobs",
            "probes",
            "session_s",
            "cached_s",
            "results_identical",
        }
        assert row["results_identical"] is True
        assert row["probes"] >= row["probe_jobs"] == 25


def test_table3_rows_carry_the_run_fingerprint():
    rows = bench_table3(thin=40, system_sizes=(None, 16))
    assert [row["clusters"] for row in rows] == [8, 16]
    for row, size in zip(rows, (None, 16)):
        assert set(row) == {"clusters", "thin", "jobs", "events", "session_s", "fingerprint"}
        direct = run_scenario(
            Scenario(mode=SharingMode.FEDERATION, seed=42, thin=40, system_size=size)
        )
        assert row["jobs"] == len(direct.jobs)
        assert row["events"] == direct.events_processed
        assert row["fingerprint"] == result_fingerprint(direct)
