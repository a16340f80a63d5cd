"""Tests for metric collectors and report rendering."""

from __future__ import annotations

import pytest

from repro.core import FederationConfig, SharingMode
from repro.metrics.collectors import (
    average_acceptance_rate,
    federation_wide_qos,
    incentive_by_resource,
    job_migration_counts,
    message_summary,
    per_gfa_message_stats,
    per_job_message_stats,
    rejected_by_resource,
    remote_jobs_serviced,
    resource_processing_table,
    user_qos_summary,
)
from repro.metrics.report import render_table, to_csv
from repro.scenario import run_scenario, scenario_from_config
from repro.sim import RandomStreams
from repro.workload import build_federation_specs, build_workload
from repro.workload.archive import ARCHIVE_RESOURCES
from repro.workload.job import JobStatus


@pytest.fixture(scope="module")
def result():
    resources = ARCHIVE_RESOURCES[:4]
    specs = build_federation_specs(resources)
    workload = {n: jobs[::4] for n, jobs in build_workload(RandomStreams(5), resources).items()}
    config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.3, seed=3)
    return run_scenario(scenario_from_config(config), specs=specs, workload=workload)


class TestResourceTable:
    def test_one_row_per_resource_in_table1_order(self, result):
        rows = resource_processing_table(result)
        assert [r.name for r in rows] == [s.name for s in result.specs]

    def test_row_percentages_consistent(self, result):
        for row in resource_processing_table(result):
            assert row.accepted_pct + row.rejected_pct == pytest.approx(100.0)
            assert row.processed_locally + row.migrated_to_federation <= row.total_jobs
            assert 0.0 <= row.utilisation <= 1.0

    def test_average_acceptance_rate_bounds(self, result):
        rate = average_acceptance_rate(result)
        assert 0.0 <= rate <= 100.0

    def test_migration_counts_match_rows(self, result):
        counts = job_migration_counts(result)
        rows = {r.name: r for r in resource_processing_table(result)}
        for name, data in counts.items():
            assert data["local"] == rows[name].processed_locally
            assert data["migrated"] == rows[name].migrated_to_federation
            assert data["local"] + data["migrated"] + data["rejected"] == data["total"]


class TestEconomyCollectors:
    def test_incentive_sums_to_total(self, result):
        incentives = incentive_by_resource(result)
        assert sum(incentives.values()) == pytest.approx(result.total_incentive())

    def test_remote_jobs_serviced_matches_job_records(self, result):
        serviced = remote_jobs_serviced(result)
        for name, count in serviced.items():
            actual = sum(
                1
                for j in result.completed_jobs()
                if j.executed_on == name and j.origin != name
            )
            assert count == actual

    def test_rejections_by_resource_match_jobs(self, result):
        rejected = rejected_by_resource(result)
        for name, count in rejected.items():
            assert count == sum(1 for j in result.jobs_of(name) if j.status is JobStatus.REJECTED)


class TestQoSSummaries:
    def test_excluding_rejected_counts_only_completed(self, result):
        for summary in user_qos_summary(result, include_rejected=False):
            completed = [j for j in result.jobs_of(summary.name) if j.status is JobStatus.COMPLETED]
            assert summary.jobs_counted == len(completed)
            if completed:
                assert summary.avg_response_time > 0

    def test_including_rejected_counts_all_jobs(self, result):
        for summary in user_qos_summary(result, include_rejected=True):
            assert summary.jobs_counted == len(result.jobs_of(summary.name))

    def test_federation_wide_average_is_weighted(self, result):
        overall = federation_wide_qos(result, include_rejected=True)
        assert overall.jobs_counted == len(result.jobs)
        per_resource = user_qos_summary(result, include_rejected=True)
        manual = sum(s.avg_response_time * s.jobs_counted for s in per_resource) / overall.jobs_counted
        assert overall.avg_response_time == pytest.approx(manual)


class TestMessageCollectors:
    def test_message_summary_totals(self, result):
        summary = message_summary(result)
        assert sum(v["local"] for v in summary.values()) == result.message_log.total_messages
        assert sum(v["remote"] for v in summary.values()) == result.message_log.total_messages

    def test_per_job_stats_bounds(self, result):
        stats = per_job_message_stats(result)
        assert stats.count == len(result.jobs)
        assert stats.minimum <= stats.average <= stats.maximum
        busy_only = per_job_message_stats(result, include_message_free_jobs=False)
        assert busy_only.minimum >= 2  # at least one negotiate/reply exchange

    def test_per_gfa_stats_average(self, result):
        stats = per_gfa_message_stats(result)
        assert stats.count == len(result.specs)
        # Each message touches exactly two GFAs.
        assert stats.average * stats.count == pytest.approx(2 * result.message_log.total_messages)


class TestReportRendering:
    def test_render_table_alignment_and_title(self):
        text = render_table(["a", "bbbb"], [[1, 2.5], ["x", 12345678.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5
        # Scientific notation for very large floats.
        assert "1.235e+07" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_to_csv_roundtrip_structure(self):
        csv = to_csv(["x", "y"], [[1, 2.0], [3, 4.5]])
        lines = csv.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1].startswith("1,")
        assert len(lines) == 3

    def test_to_csv_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            to_csv(["a"], [[1, 2]])
