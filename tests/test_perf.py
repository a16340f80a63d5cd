"""Tests for the ``gridfed bench`` measurement functions and its gate.

Timings are not checked here.  What is checked is the fields of each row
(the ``key``, ``seconds`` and ``problem`` every row carries, and the
answers and fingerprints that describe its run), and the gate's verdict on
synthetic report/baseline pairs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cli import _load_baseline
from repro.core.policies import SharingMode
from repro.perf import (
    REPORT_SCHEMA,
    _tracked_timings,
    bench_directory_queries,
    bench_economy,
    bench_parallel_engine,
    bench_service,
    bench_table3,
    bench_workload,
    render_comparison,
    render_report,
)
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.sim import RandomStreams
from repro.workload.archive import ARCHIVE_RESOURCES, build_workload, replicate_resources
from repro.workload.job import reset_job_counter

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_baseline.json"

#: The tracked keys of the checked-in smoke baseline.
BASELINE_KEYS = {
    "directory_query/16x200/session_s",
    "directory_query/64x200/session_s",
    "event_kernel/30000/seconds",
    "table3/8@thin4/session_s",
    "resilience/8@thin4/noop_s",
    "par/64@thin4/w1/seconds",
    "par/64@thin4/w2/seconds",
    "service/10@thin30/seconds",
}

#: The three fields every row carries and the gate reads.
ROW_CONTRACT = {"key", "seconds", "problem"}


def test_directory_query_rows_time_sessions():
    rows = bench_directory_queries(sizes=(8, 40), probe_jobs=25)
    assert [row["key"] for row in rows] == ["8x25/session_s", "40x25/session_s"]
    assert [row["probes"] for row in rows] == [34, 99]
    for row in rows:
        assert set(row) == ROW_CONTRACT | {"clusters", "probe_jobs", "probes"}
        assert row["problem"] is None and row["seconds"] > 0
        assert row["probes"] >= row["probe_jobs"] == 25


def test_table3_rows_carry_the_run_fingerprint():
    rows = bench_table3(thin=40, system_sizes=(None, 16))
    assert [row["key"] for row in rows] == ["8@thin40/session_s", "16@thin40/session_s"]
    for row, size in zip(rows, (None, 16)):
        assert set(row) == ROW_CONTRACT | {"clusters", "thin", "jobs", "events", "fingerprint"}
        assert row["problem"] is None
        direct = run_scenario(
            Scenario(mode=SharingMode.FEDERATION, seed=42, thin=40, system_size=size)
        )
        assert row["jobs"] == len(direct.jobs)
        assert row["events"] == direct.events_processed
        assert row["fingerprint"] == result_fingerprint(direct)


def test_economy_rows_carry_rounds_and_the_run_fingerprint():
    rows = bench_economy(system_sizes=(16, 32), repeats=2)
    assert [row["key"] for row in rows] == ["16@thin32/seconds", "32@thin32/seconds"]
    for row, size in zip(rows, (16, 32)):
        assert set(row) == ROW_CONTRACT | {
            "clusters", "thin", "jobs", "rounds_per_job", "us_per_job", "messages",
            "fingerprint",
        }
        assert row["problem"] is None and row["seconds"] > 0
        direct = run_scenario(
            Scenario(
                mode=SharingMode.ECONOMY, oft_fraction=0.3, system_size=size, thin=32,
                transport="two-tier-wan", seed=42,
            )
        )
        assert (row["clusters"], row["thin"], row["jobs"]) == (size, 32, len(direct.jobs))
        rounds = sum(job.negotiation_rounds for job in direct.jobs)
        assert row["rounds_per_job"] == rounds / len(direct.jobs)
        assert row["us_per_job"] == 1e6 * row["seconds"] / len(direct.jobs)
        assert row["messages"] == direct.network.messages
        assert row["fingerprint"] == result_fingerprint(direct)


def test_workload_rows_carry_the_jobs_digest():
    rows = bench_workload(thin=40, repeats=2, system_sizes=(None, 16))
    assert [row["key"] for row in rows] == ["8@thin40/build_s", "16@thin40/build_s"]
    for row, resources in zip(rows, (ARCHIVE_RESOURCES, replicate_resources(16))):
        assert set(row) == ROW_CONTRACT | {"clusters", "thin", "jobs", "fingerprint"}
        assert row["problem"] is None and row["seconds"] > 0
        reset_job_counter()
        workload = build_workload(RandomStreams(42), resources, thin=40)
        digest = hashlib.sha256()
        for name, jobs in workload.items():
            digest.update(repr(name).encode("utf-8"))
            for job in jobs:
                digest.update(repr(vars(job)).encode("utf-8"))
        assert row["clusters"] == len(workload) and row["thin"] == 40
        assert row["jobs"] == sum(len(jobs) for jobs in workload.values())
        assert row["fingerprint"] == digest.hexdigest()


def test_a_parallel_row_that_fell_back_reports_it():
    """The uniform topology has no lookahead, so the two-worker row runs
    serially, and says so in its ``problem``."""
    (row,) = bench_parallel_engine(
        size=8, thin=40, worker_counts=(2,), topology="uniform"
    )
    assert row["key"] == "8@thin40/w2/seconds"
    assert "fell back to the serial path" in row["problem"]
    assert row["windows"] is None


def test_service_row_runs_fresh_daemon_submissions():
    (row,) = bench_service(runs=2, thin=40)
    assert row["key"] == "2@thin40/seconds"
    assert set(row) == ROW_CONTRACT | {"runs", "thin", "plain_s", "overhead"}
    assert row["problem"] is None
    assert row["seconds"] > 0 and row["plain_s"] > 0
    assert row["overhead"] == row["seconds"] / row["plain_s"]


@pytest.mark.parametrize(
    "outcome, problem",
    [
        ({"status": "failed", "error": "boom"}, "job-000001 ended failed: boom"),
        (
            {"status": "completed", "fingerprint": "0" * 64},
            "job-000001's fingerprint differs from its plain run's",
        ),
    ],
    ids=["failed", "fingerprint"],
)
def test_a_service_row_reports_a_wrong_record(monkeypatch, outcome, problem):
    import repro.service.daemon as daemon_module

    def execute(state_dir, sid, checkpoint_interval):
        daemon_module._update_record(daemon_module.DaemonState(state_dir), sid, **outcome)

    monkeypatch.setattr(daemon_module, "execute_submission", execute)
    (row,) = bench_service(runs=1, thin=40)
    assert row["problem"] == problem


# --------------------------------------------------------------------------- #
# The gate on synthetic report/baseline pairs
# --------------------------------------------------------------------------- #
def _row(key, seconds, problem=None):
    return {"key": key, "seconds": seconds, "problem": problem}


def _report(*rows, scale="smoke"):
    return {"schema": REPORT_SCHEMA, "scale": scale, "seed": 42, "rows": list(rows)}


def _status(table, key):
    """The status cell of ``key``'s line in a rendered comparison table."""
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] == key:
            return cells[-1]
    raise AssertionError(f"{key} not in table:\n{table}")


TABLE3 = "table3/8@thin4/session_s"
PAR2 = "par/64@thin4/w2/seconds"
NOOP = "resilience/8@thin4/noop_s"


class TestGate:
    @pytest.mark.parametrize(
        "current, base, status",
        [(0.05, 0.02, "ok"), (0.07, 0.02, "FAIL"), (9.0, 0.005, "noise")],
        ids=["ok", "fail", "noise"],
    )
    def test_timing_status(self, current, base, status):
        report = _report(_row(TABLE3, current), _row(PAR2, 1.0))
        baseline = _report(_row(TABLE3, base), _row(PAR2, 1.0))
        table, problems = render_comparison(report, baseline)
        assert _status(table, TABLE3) == status
        assert _status(table, PAR2) == "ok"
        if status == "FAIL":
            assert problems == [
                f"{TABLE3}: {current:.4f}s exceeds 3.0x baseline ({base:.4f}s)"
            ]
            assert "(FAIL)" in table.splitlines()[0]
        else:
            assert problems == []
            assert "(pass)" in table.splitlines()[0]

    def test_max_regression_sets_the_gate(self):
        report = _report(_row(TABLE3, 0.05))
        baseline = _report(_row(TABLE3, 0.02))
        assert render_comparison(report, baseline, max_regression=3.0)[1] == []
        table, problems = render_comparison(report, baseline, max_regression=2.0)
        assert _status(table, TABLE3) == "FAIL"
        assert len(problems) == 1 and "exceeds 2.0x" in problems[0]

    def test_new_and_absent_rows_are_listed_not_gated(self):
        report = _report(_row(TABLE3, 0.02), _row(PAR2, 99.0))
        baseline = _report(_row(TABLE3, 0.02), _row(NOOP, 0.02))
        table, problems = render_comparison(report, baseline)
        assert problems == []
        assert _status(table, PAR2) == "new"
        assert _status(table, NOOP) == "absent"
        assert _status(table, TABLE3) == "ok"

    @pytest.mark.parametrize(
        "key, problem, fragment",
        [
            (PAR2, "fell back to the serial path", "fell back"),
            (PAR2, "process and oracle backends diverged", "oracle"),
            (NOOP, "paper and inert-policy runs diverged", "inert-policy"),
        ],
        ids=["par-fallback", "oracle-process", "paper-noop"],
    )
    def test_a_failed_check_fails_regardless_of_timing(self, key, problem, fragment):
        baseline = _report(_row(TABLE3, 0.02), _row(key, 1.0))
        report = _report(_row(TABLE3, 0.02), _row(key, 0.5, problem=problem))
        table, problems = render_comparison(report, baseline)
        assert len(problems) == 1 and fragment in problems[0]
        assert "(FAIL)" in table.splitlines()[0]
        # A new row's failed check fails too: there is no timing to excuse it.
        _, problems = render_comparison(report, _report(_row(TABLE3, 0.02)))
        assert len(problems) == 1 and fragment in problems[0]

    def test_a_failed_check_marks_its_row(self):
        baseline = _report(_row(TABLE3, 0.02), _row(NOOP, 0.02))
        report = _report(_row(TABLE3, 0.02), _row(NOOP, 0.02, problem="diverged"))
        table, problems = render_comparison(report, baseline)
        assert problems == [f"{NOOP}: diverged"]
        assert _status(table, NOOP) == "FAIL"
        assert _status(table, TABLE3) == "ok"

    def test_no_comparable_metrics_is_an_error(self):
        report = _report(_row("table3/32@thin1/session_s", 1.0), scale="full")
        baseline = _report(_row(TABLE3, 0.02))
        table, problems = render_comparison(report, baseline)
        assert len(problems) == 1
        assert problems[0].startswith("no comparable metrics")
        assert "'full'" in problems[0] and "'smoke'" in problems[0]
        assert _status(table, TABLE3) == "absent"

    def test_noise_only_overlap_is_not_comparable(self):
        report = _report(_row(TABLE3, 5.0))
        baseline = _report(_row(TABLE3, 0.005))
        _, problems = render_comparison(report, baseline)
        assert len(problems) == 1 and problems[0].startswith("no comparable metrics")


class TestCheckedInBaseline:
    def test_loads_under_the_report_schema_with_the_seven_keys(self):
        baseline = _load_baseline(str(BASELINE))
        assert baseline["schema"] == REPORT_SCHEMA
        assert baseline["scale"] == "smoke"
        assert set(_tracked_timings(baseline)) == BASELINE_KEYS

    def test_passes_its_own_gate_and_renders(self):
        baseline = _load_baseline(str(BASELINE))
        table, problems = render_comparison(baseline, baseline)
        assert problems == []
        report = render_report(baseline)
        for key in BASELINE_KEYS:
            assert _status(table, key) in ("ok", "noise")
            assert _status(report, key) == "ok"


class TestRenderReport:
    def test_one_line_per_row_with_its_check(self):
        report = _report(
            _row(TABLE3, 0.0123),
            _row(PAR2, 4.5, problem="process and oracle backends diverged"),
        )
        report["rows"][0]["session_s"] = "not read"
        text = render_report(report)
        assert "smoke scale, seed 42" in text.splitlines()[0]
        assert _status(text, TABLE3) == "ok"
        assert _status(text, PAR2) == "process and oracle backends diverged"
        assert "0.0123" in text and "4.5000" in text
        assert "not read" not in text
