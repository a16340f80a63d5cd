"""Tests for QoS fabrication (budgets, deadlines, strategies — Eqs. 7-8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import ResourceSpec, execution_cost, execution_time
from repro.sim import RandomStreams
from repro.workload.archive import build_federation_specs, build_workload
from repro.workload.job import Job, QoSStrategy
from repro.workload.qos import assign_qos, assign_strategies, strategy_counts


def spec_map():
    return {s.name: s for s in build_federation_specs()}


def small_workload(seed=0):
    streams = RandomStreams(seed)
    workload = build_workload(streams)
    # Keep the test fast: a slice of two resources is enough.
    return workload["KTH SP2"][:40] + workload["NASA iPSC"][:40]


class TestAssignQoS:
    def test_budget_and_deadline_are_twice_origin_cost_and_time(self):
        specs = spec_map()
        jobs = small_workload()
        assign_qos(jobs, specs)
        for job in jobs:
            origin = specs[job.origin]
            assert job.budget == pytest.approx(2.0 * execution_cost(job, origin))
            assert job.deadline == pytest.approx(2.0 * execution_time(job, origin))

    def test_custom_factors(self):
        specs = spec_map()
        jobs = small_workload()
        assign_qos(jobs, specs, budget_factor=3.0, deadline_factor=1.5)
        for job in jobs[:10]:
            origin = specs[job.origin]
            assert job.budget == pytest.approx(3.0 * execution_cost(job, origin))
            assert job.deadline == pytest.approx(1.5 * execution_time(job, origin))

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            assign_qos([], spec_map(), budget_factor=0.0)
        with pytest.raises(ValueError):
            assign_qos([], spec_map(), deadline_factor=-1.0)

    def test_unknown_origin_raises(self):
        job = Job(origin="nowhere", user_id=0, submit_time=0.0, num_processors=1, length_mi=1e3)
        with pytest.raises(KeyError):
            assign_qos([job], spec_map())

    def test_values_are_the_model_functions_bits(self):
        """The one-pass loop gives exactly Eqs. 7-8 of the model functions,
        also when consecutive jobs come from different origins."""
        specs = spec_map()
        jobs = small_workload()
        jobs = [job for pair in zip(jobs[:40], jobs[40:]) for job in pair]
        assign_qos(jobs, specs, budget_factor=3.0, deadline_factor=1.5)
        for job in jobs:
            origin = specs[job.origin]
            assert job.budget == 3.0 * execution_cost(job, origin)
            assert job.deadline == 1.5 * execution_time(job, origin)

    def test_job_wider_than_its_origin_raises(self):
        job = Job(origin="KTH SP2", user_id=0, submit_time=0.0, num_processors=101, length_mi=1e3)
        with pytest.raises(ValueError, match="needs 101 processors but KTH SP2 only has 100"):
            assign_qos([job], spec_map())
        assert job.budget is None and job.deadline is None

    def test_qos_always_feasible_on_unloaded_origin(self):
        """With factor-2 deadlines, the origin can always meet the deadline when
        idle — the basis of the paper's acceptance criterion."""
        specs = spec_map()
        jobs = small_workload()
        assign_qos(jobs, specs)
        for job in jobs:
            origin = specs[job.origin]
            assert execution_time(job, origin) <= job.deadline
            assert execution_cost(job, origin) <= job.budget


class TestAssignStrategies:
    @pytest.mark.parametrize("oft_fraction", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_fraction_of_users_is_respected(self, oft_fraction):
        jobs = small_workload()
        assignment = assign_strategies(jobs, oft_fraction, np.random.default_rng(0))
        users = list(assignment)
        oft_users = [u for u, s in assignment.items() if s is QoSStrategy.OFT]
        expected = round(oft_fraction * len({u.split("/")[0] for u in users} and users))
        # Per-origin rounding means the global fraction can deviate slightly;
        # allow one user of slack per origin.
        origins = {u.split("/")[0] for u in users}
        assert abs(len(oft_users) - oft_fraction * len(users)) <= len(origins)

    def test_all_jobs_of_a_user_share_the_strategy(self):
        jobs = small_workload()
        assign_strategies(jobs, 0.5, np.random.default_rng(1))
        by_user = {}
        for job in jobs:
            key = (job.origin, job.user_id)
            by_user.setdefault(key, set()).add(job.strategy)
        assert all(len(strategies) == 1 for strategies in by_user.values())

    def test_extreme_fractions(self):
        jobs = small_workload()
        assign_strategies(jobs, 0.0, np.random.default_rng(2))
        assert all(j.strategy is QoSStrategy.OFC for j in jobs)
        assign_strategies(jobs, 1.0, np.random.default_rng(2))
        assert all(j.strategy is QoSStrategy.OFT for j in jobs)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            assign_strategies(small_workload(), 1.5, np.random.default_rng(0))

    def test_assignment_is_deterministic_given_rng(self):
        jobs_a = small_workload()
        jobs_b = small_workload()
        a = assign_strategies(jobs_a, 0.4, np.random.default_rng(9))
        b = assign_strategies(jobs_b, 0.4, np.random.default_rng(9))
        assert a == b

    def test_strategy_counts_helper(self):
        jobs = small_workload()
        assign_strategies(jobs, 0.5, np.random.default_rng(3))
        counts = strategy_counts(jobs)
        assert counts[QoSStrategy.OFT] + counts[QoSStrategy.OFC] == len(jobs)
        assert counts[QoSStrategy.NONE] == 0

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_every_job_gets_a_strategy(self, fraction):
        jobs = small_workload()
        assign_strategies(jobs, fraction, np.random.default_rng(11))
        assert all(j.strategy in (QoSStrategy.OFT, QoSStrategy.OFC) for j in jobs)
