"""Tests for ResourceSpec and the paper's cost/time model (Eqs. 1-4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import (
    ResourceSpec,
    communication_time,
    compute_time,
    execution_cost,
    execution_time,
    feasible_execution_cost,
    feasible_execution_time,
    transfer_volume_gb,
)
from repro.workload.job import Job


def make_spec(**overrides) -> ResourceSpec:
    defaults = dict(name="test", num_processors=64, mips=800.0, bandwidth_gbps=2.0, price=4.0)
    defaults.update(overrides)
    return ResourceSpec(**defaults)


def make_job(**overrides) -> Job:
    defaults = dict(
        origin="test",
        user_id=0,
        submit_time=0.0,
        num_processors=8,
        length_mi=64_000.0,
        comm_data_gb=10.0,
    )
    defaults.update(overrides)
    return Job(**defaults)


class TestResourceSpecValidation:
    def test_valid_spec(self):
        spec = make_spec()
        assert spec.num_processors == 64
        assert spec.can_run(make_job(num_processors=64))
        assert not spec.can_run(make_job(num_processors=65))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_processors", 0),
            ("mips", 0.0),
            ("mips", -1.0),
            ("bandwidth_gbps", 0.0),
            ("price", -0.1),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_spec(**{field: value})

    def test_spec_is_frozen(self):
        spec = make_spec()
        with pytest.raises(AttributeError):
            spec.price = 10.0  # type: ignore[misc]


class TestModelEquations:
    def test_compute_time_eq2(self):
        # l / (mu * p) = 64000 / (800 * 8) = 10 s
        assert compute_time(make_job(), make_spec()) == pytest.approx(10.0)

    def test_communication_time_eq2(self):
        # Gamma / gamma_m = 10 Gb / 2 Gb/s = 5 s
        assert communication_time(make_job(), make_spec()) == pytest.approx(5.0)

    def test_execution_time_is_sum(self):
        job, spec = make_job(), make_spec()
        assert execution_time(job, spec) == pytest.approx(
            compute_time(job, spec) + communication_time(job, spec)
        )

    def test_execution_cost_eq4(self):
        # c_m * l / (mu * p) = 4.0 * 10 s = 40 Grid Dollars
        assert execution_cost(make_job(), make_spec()) == pytest.approx(40.0)

    def test_cost_ignores_communication(self):
        """Eq. 4 charges only for compute time, not data transfer."""
        cheap_comm = make_job(comm_data_gb=0.0)
        heavy_comm = make_job(comm_data_gb=500.0)
        spec = make_spec()
        assert execution_cost(cheap_comm, spec) == pytest.approx(execution_cost(heavy_comm, spec))

    def test_transfer_volume_eq1(self):
        assert transfer_volume_gb(alpha=3.0, origin_bandwidth_gbps=2.0) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            transfer_volume_gb(-1.0, 2.0)
        with pytest.raises(ValueError):
            transfer_volume_gb(1.0, 0.0)

    def test_infeasible_placement_raises(self):
        small = make_spec(num_processors=4)
        with pytest.raises(ValueError):
            compute_time(make_job(num_processors=8), small)

    def test_feasible_variants_return_inf(self):
        small = make_spec(num_processors=4)
        job = make_job(num_processors=8)
        assert feasible_execution_time(job, small) == math.inf
        assert feasible_execution_cost(job, small) == math.inf

    def test_spec_convenience_wrappers(self):
        job, spec = make_job(), make_spec()
        assert spec.compute_time(job) == compute_time(job, spec)
        assert spec.execution_time(job) == execution_time(job, spec)
        assert spec.execution_cost(job) == execution_cost(job, spec)


class TestModelRelationships:
    def test_faster_cluster_is_faster_and_pricier_under_static_quotes(self):
        """With Eq. 5-6 pricing, faster clusters cost more per second but the
        total cost of a fixed job is identical (cost = c/mu_max * l / p)."""
        slow = make_spec(name="slow", mips=600.0, price=(5.3 / 930.0) * 600.0)
        fast = make_spec(name="fast", mips=930.0, price=5.3)
        job = make_job(comm_data_gb=0.0)
        assert execution_time(job, fast) < execution_time(job, slow)
        assert execution_cost(job, fast) == pytest.approx(execution_cost(job, slow))

    @given(
        length=st.floats(min_value=1e3, max_value=1e9),
        procs=st.integers(min_value=1, max_value=64),
        mips=st.floats(min_value=100.0, max_value=2000.0),
        price=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_and_time_are_positive_and_scale_with_length(self, length, procs, mips, price):
        spec = make_spec(mips=mips, price=price)
        job = make_job(length_mi=length, num_processors=procs, comm_data_gb=0.0)
        bigger = make_job(length_mi=length * 2, num_processors=procs, comm_data_gb=0.0)
        assert execution_time(job, spec) > 0
        assert execution_cost(job, spec) > 0
        assert execution_time(bigger, spec) == pytest.approx(2 * execution_time(job, spec))
        assert execution_cost(bigger, spec) == pytest.approx(2 * execution_cost(job, spec))

    @given(procs=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    @settings(max_examples=20, deadline=None)
    def test_more_processors_never_slow_down_compute(self, procs):
        spec = make_spec()
        one = make_job(num_processors=1, comm_data_gb=0.0)
        many = make_job(num_processors=procs, comm_data_gb=0.0)
        assert compute_time(many, spec) <= compute_time(one, spec)


def parent_compute_time(job, spec):
    if not spec.can_run(job):
        raise ValueError(
            f"job {job.job_id} needs {job.num_processors} processors but "
            f"{spec.name} only has {spec.num_processors}"
        )
    return job.length_mi / (spec.mips * job.num_processors)


def parent_communication_time(job, spec):
    return job.comm_data_gb / spec.bandwidth_gbps


def parent_execution_time(job, spec):
    """``execution_time`` as the two calls it folds (copied)."""
    return parent_compute_time(job, spec) + parent_communication_time(job, spec)


class TestExecutionTimeOracle:
    """``execution_time`` in one call against the two calls it folds."""

    @given(
        length=st.floats(min_value=1.0, max_value=1e12),
        procs=st.integers(min_value=1, max_value=128),
        cluster=st.integers(min_value=1, max_value=64),
        mips=st.floats(min_value=1.0, max_value=5000.0),
        bandwidth=st.floats(min_value=0.01, max_value=100.0),
        comm=st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=300, deadline=None)
    def test_execution_time_is_compute_plus_communication_bit_for_bit(
        self, length, procs, cluster, mips, bandwidth, comm
    ):
        spec = make_spec(num_processors=cluster, mips=mips, bandwidth_gbps=bandwidth)
        job = make_job(length_mi=length, num_processors=procs, comm_data_gb=comm)
        if procs > cluster:
            with pytest.raises(ValueError) as raised:
                execution_time(job, spec)
            with pytest.raises(ValueError) as expected:
                parent_execution_time(job, spec)
            assert str(raised.value) == str(expected.value)
            with pytest.raises(ValueError) as raised:
                compute_time(job, spec)
            assert str(raised.value) == str(expected.value)
            return
        assert execution_time(job, spec) == parent_execution_time(job, spec)
        assert compute_time(job, spec) == parent_compute_time(job, spec)
