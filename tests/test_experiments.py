"""Tests for the experiment scenarios and sweeps (reduced-scale runs).

The experiments are exercised with a thinned workload and a resource subset so the
suite stays fast; the full-scale reproduction lives in benchmarks/ and
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core.policies import SharingMode
from repro.experiments import (
    economy_profile_scenario,
    economy_sweep,
    experiment_1_scenario,
    experiment_2_scenario,
    scalability_sweep,
)
from repro.experiments.common import default_workload
from repro.experiments.exp4_messages import message_complexity_rows
from repro.experiments.exp5_scalability import scalability_rows
from repro.metrics.collectors import average_acceptance_rate
from repro.scenario import run_scenario
from repro.workload.archive import ARCHIVE_RESOURCES
from repro.workload.job import reset_job_counter

SMALL = ARCHIVE_RESOURCES[:4]
THIN = 6


class TestThinning:
    def test_default_workload_keeps_every_nth_job(self):
        reset_job_counter()
        full = default_workload(seed=1, resources=SMALL)
        reset_job_counter()
        thinned = default_workload(seed=1, resources=SMALL, thin=3)
        assert set(thinned) == set(full)
        for name in full:
            assert [(j.job_id, j.submit_time, j.length_mi) for j in thinned[name]] == [
                (j.job_id, j.submit_time, j.length_mi) for j in full[name][::3]
            ]

    def test_thin_must_be_positive(self):
        with pytest.raises(ValueError):
            default_workload(seed=1, resources=SMALL, thin=0)


class TestExperiment1And2:
    def test_experiment1_runs_in_independent_mode(self):
        result = run_scenario(experiment_1_scenario(seed=2, thin=THIN), resources=SMALL)
        assert result.config.mode is SharingMode.INDEPENDENT
        assert result.message_log.total_messages == 0
        assert len(result.jobs) > 0

    def test_experiment2_runs_in_federation_mode_without_a_bank(self):
        result = run_scenario(experiment_2_scenario(seed=2, thin=THIN), resources=SMALL)
        assert result.config.mode is SharingMode.FEDERATION
        assert result.bank is None
        assert len(result.jobs) > 0

    def test_experiment2_improves_acceptance_over_experiment1(self):
        ind = run_scenario(experiment_1_scenario(seed=2, thin=2), resources=SMALL)
        fed = run_scenario(experiment_2_scenario(seed=2, thin=2), resources=SMALL)
        assert average_acceptance_rate(fed) >= average_acceptance_rate(ind)
        # Federated sharing actually moves jobs around.
        assert sum(o.stats.migrated_out for o in fed.resources.values()) > 0


class TestExperiment3:
    def test_profile_sweep_contains_requested_profiles(self):
        sweep = economy_sweep(profiles=(0, 100), seed=2, resources=SMALL, thin=THIN)
        assert sweep.profiles() == (0, 100)
        assert len(sweep) == 2
        for oft_pct, result in sweep:
            assert result.config.mode is SharingMode.ECONOMY
            assert result.config.oft_fraction == pytest.approx(oft_pct / 100.0)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            economy_profile_scenario(150, thin=THIN)

    def test_economy_profile_run_keeps_its_oft_fraction(self):
        result = run_scenario(economy_profile_scenario(30, seed=2, thin=THIN), resources=SMALL)
        assert result.config.mode is SharingMode.ECONOMY
        assert result.config.oft_fraction == pytest.approx(0.3)

    def test_economy_run_generates_incentives(self):
        result = run_scenario(economy_profile_scenario(30, seed=2, thin=THIN), resources=SMALL)
        assert result.total_incentive() > 0
        assert result.bank is not None


class TestExperiment4:
    def test_message_rows_cover_every_profile_and_resource(self):
        sweep = economy_sweep(profiles=(0, 100), seed=2, resources=SMALL, thin=THIN)
        headers, rows, totals = message_complexity_rows(sweep)
        assert len(headers) == 5
        assert len(rows) == 2 * len(SMALL)
        assert set(totals) == {0, 100}
        for oft_pct, result in sweep:
            assert totals[oft_pct] == result.message_log.total_messages


class TestExperiment5:
    def test_scalability_points_and_rows(self):
        points = scalability_sweep(system_sizes=(10,), profiles=(0, 100), seed=2, thin=25)
        assert set(points) == {(10, 0), (10, 100)}
        for point in points.values():
            assert point.system_size == 10
            assert point.jobs > 0
            assert point.per_job.minimum <= point.per_job.average <= point.per_job.maximum
        headers, rows = scalability_rows(points)
        assert len(rows) == 2
        assert len(headers) == len(rows[0])

    def test_replicated_federation_larger_than_base(self):
        points = scalability_sweep(system_sizes=(10,), profiles=(100,), seed=2, thin=25)
        base_jobs = sum(len(jobs) for jobs in default_workload(seed=2, thin=25).values())
        assert points[(10, 100)].jobs > base_jobs
