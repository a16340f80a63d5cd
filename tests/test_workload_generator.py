"""Tests for the synthetic workload generator and archive calibration."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.workload.archive import (
    ARCHIVE_RESOURCES,
    TWO_DAYS,
    ArchiveResource,
    archive_by_name,
    build_federation_specs,
    build_workload,
    combined_workload,
    replicate_resources,
)
from repro.workload.generator import (
    SyntheticTraceGenerator,
    WorkloadParameters,
    group_replicas,
    merge_workloads,
)
from repro.workload.job import (
    Job,
    advance_job_counter,
    job_counter_state,
    reset_job_counter,
    restore_job_counter,
)


def make_params(**overrides) -> WorkloadParameters:
    defaults = dict(
        resource_name="test",
        num_jobs=200,
        horizon=TWO_DAYS,
        offered_load=0.6,
        max_processors=128,
        mips=900.0,
        bandwidth_gbps=2.0,
    )
    defaults.update(overrides)
    return WorkloadParameters(**defaults)


def reference_generate(params: WorkloadParameters, rng: np.random.Generator) -> List[Job]:
    """The full trace of one resource, one scalar step per job.

    A self-contained copy of the generator's algorithm as it stood when it
    ran one resource at a time on 1-D arrays: the same ten draws in the same
    order, then the arrival clip and sort, the processor widths, the capped
    and water-filled runtimes and the per-job products.  It calls nothing of
    the generator's, so a change there cannot move the oracle with it.  Every
    job takes the next id from the global counter as it is constructed.
    """
    n = params.num_jobs
    seconds_per_day = 86_400.0
    n_days = max(math.ceil(params.horizon / seconds_per_day), 1)
    is_daytime = rng.random(n) < params.day_fraction
    day_index = rng.integers(0, n_days, size=n)
    day_window = (params.workday_end_hour - params.workday_start_hour) * 3600.0
    day_offsets = params.workday_start_hour * 3600.0 + rng.random(n) * day_window
    night_offsets = rng.random(n) * seconds_per_day
    submit_times = day_index * seconds_per_day + np.where(is_daytime, day_offsets, night_offsets)
    submit_times = np.sort(np.minimum(submit_times, params.horizon - 1e-6))

    largest_job = max(params.max_processors * params.max_job_fraction, 2.0)
    max_power = max(math.floor(math.log2(largest_job)), 1)
    serial = rng.random(n) < params.serial_fraction
    powers = rng.integers(1, max_power + 1, size=n)
    odd = rng.random(n) < 0.1
    jitter = rng.integers(1, 4, size=n)
    processors = []
    for is_serial, power, is_odd, nudge in zip(serial, powers, odd, jitter):
        count = 1 if is_serial else 2 ** int(power)
        if is_odd and not is_serial:
            count = max(count - int(nudge), 1)
        processors.append(min(count, params.max_processors))
    processors = np.array(processors, dtype=np.int64)

    cap = params.max_runtime_fraction * params.horizon
    raw = rng.lognormal(mean=params.mean_log_runtime, sigma=params.sigma_log_runtime, size=n)
    raw = np.minimum(raw, cap)
    target = params.offered_load * params.max_processors * params.horizon
    runtimes = np.minimum(raw * (target / float(np.sum(raw * processors))), cap)
    for _ in range(8):
        node_seconds = runtimes * processors
        current = float(np.sum(node_seconds))
        if current >= target * 0.999:
            break
        free = runtimes < cap
        free_node_seconds = float(np.sum(node_seconds[free]))
        if free_node_seconds <= 0:
            break
        scale = 1.0 + (target - current) / free_node_seconds
        runtimes[free] = np.minimum(runtimes[free] * scale, cap)
    runtimes = np.maximum(runtimes, 1.0)
    user_ids = rng.integers(0, params.num_users, size=n)

    jobs: List[Job] = []
    for submit, procs, runtime, user in zip(submit_times, processors, runtimes, user_ids):
        compute_share = (1.0 - params.comm_fraction) * runtime
        comm_share = params.comm_fraction * runtime
        length_mi = compute_share * params.mips * procs
        comm_data_gb = comm_share * params.bandwidth_gbps
        jobs.append(
            Job(
                origin=params.resource_name,
                user_id=int(user),
                submit_time=float(submit),
                num_processors=int(procs),
                length_mi=float(length_mi),
                comm_data_gb=float(comm_data_gb),
            )
        )
    jobs.sort(key=lambda j: j.submit_time)
    return jobs


def reference_build(
    streams: RandomStreams,
    resources: List[ArchiveResource],
    horizon: float = TWO_DAYS,
    only: Optional[Set[str]] = None,
    thin: int = 1,
) -> Dict[str, List[Job]]:
    """``build_workload`` one resource at a time through the oracle: each
    generated resource's full trace, sliced; a skipped one's id range
    consumed."""
    workload: Dict[str, List[Job]] = {}
    for res in resources:
        params = res.workload_parameters(horizon)
        if only is not None and res.name not in only:
            advance_job_counter(params.num_jobs)
            workload[res.name] = []
        else:
            workload[res.name] = reference_generate(
                params, streams.get(f"workload/{res.name}")
            )[::thin]
    return workload


def job_fields(jobs: List[Job]) -> List[dict]:
    """Every field of every job, with each value's type next to it."""
    return [{name: (type(v), v) for name, v in vars(job).items()} for job in jobs]


class TestWorkloadParameters:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_jobs", 0),
            ("horizon", 0.0),
            ("offered_load", 0.0),
            ("max_processors", 0),
            ("comm_fraction", 1.0),
            ("comm_fraction", -0.1),
            ("num_users", 0),
            ("serial_fraction", 1.5),
            ("day_fraction", -0.2),
            ("mips", 0.0),
            ("mips", -850.0),
            ("workday_start_hour", -1.0),
            ("workday_end_hour", 25.0),
            ("workday_end_hour", 8.0),
            pytest.param(
                {"workday_start_hour": 18.0, "workday_end_hour": 8.0}, None, id="inverted-workday"
            ),
        ],
    )
    def test_invalid_parameters_rejected(self, field, value):
        overrides = field if isinstance(field, dict) else {field: value}
        with pytest.raises(ValueError):
            make_params(**overrides)


class TestGenerator:
    def test_generates_requested_number_of_jobs(self):
        gen = SyntheticTraceGenerator(make_params(num_jobs=123), np.random.default_rng(0))
        jobs = gen.generate()
        assert len(jobs) == 123

    def test_jobs_sorted_by_submit_time_within_horizon(self):
        params = make_params()
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(0)).generate()
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        assert all(0.0 <= t < params.horizon for t in times)

    def test_processor_counts_within_cluster_size(self):
        params = make_params(max_processors=64)
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(1)).generate()
        assert all(1 <= j.num_processors <= 64 for j in jobs)

    def test_offered_load_calibration(self):
        """Total requested node-seconds matches offered_load within sampling noise."""
        params = make_params(offered_load=0.7, num_jobs=400)
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(2)).generate()
        node_seconds = sum(
            (j.length_mi / (params.mips * j.num_processors) + j.comm_data_gb / params.bandwidth_gbps)
            * j.num_processors
            for j in jobs
        )
        target = params.offered_load * params.max_processors * params.horizon
        # Rescaling is applied to the compute+comm total, so the match is tight
        # up to the per-job one-second floor.
        assert node_seconds == pytest.approx(target, rel=0.05)

    def test_comm_share_is_ten_percent_of_origin_runtime(self):
        params = make_params(comm_fraction=0.1)
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(3)).generate()
        for job in jobs[:50]:
            compute = job.length_mi / (params.mips * job.num_processors)
            comm = job.comm_data_gb / params.bandwidth_gbps
            total = compute + comm
            assert comm == pytest.approx(0.1 * total, rel=1e-6)

    def test_determinism_given_same_rng_seed(self):
        params = make_params()
        a = SyntheticTraceGenerator(params, np.random.default_rng(42)).generate()
        b = SyntheticTraceGenerator(params, np.random.default_rng(42)).generate()
        assert [(j.submit_time, j.num_processors, j.length_mi) for j in a] == [
            (j.submit_time, j.num_processors, j.length_mi) for j in b
        ]

    def test_user_ids_within_population(self):
        params = make_params(num_users=7)
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(4)).generate()
        assert all(0 <= j.user_id < 7 for j in jobs)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_every_job_is_valid_for_any_seed(self, seed):
        params = make_params(num_jobs=50)
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(seed)).generate()
        for job in jobs:
            assert job.length_mi > 0
            assert job.comm_data_gb >= 0
            assert 1 <= job.num_processors <= params.max_processors
            assert 0 <= job.submit_time < params.horizon


class TestThinnedGeneration:
    """``generate(thin)`` builds only the kept jobs, exactly as the full trace has them."""

    @given(
        num_jobs=st.integers(min_value=1, max_value=500),
        max_processors=st.integers(min_value=1, max_value=2048),
        overrides=st.sampled_from([{}] + [res.workload_overrides for res in ARCHIVE_RESOURCES]),
        horizon=st.sampled_from([4 * 3600.0, 6 * 3600.0, 86_400.0, TWO_DAYS, 3.5 * 86_400.0]),
        offered_load=st.floats(min_value=0.05, max_value=3.0),
        comm_fraction=st.sampled_from([0.0, 0.1, 0.35]),
        mips=st.sampled_from([630.0, 850.0, 930.0]),
        bandwidth_gbps=st.sampled_from([1.0, 1.6, 4.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        first_id=st.integers(min_value=1, max_value=10**6),
        thin=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_thinned_trace_equals_every_nth_job_of_the_reference(
        self, num_jobs, max_processors, overrides, horizon, offered_load,
        comm_fraction, mips, bandwidth_gbps, seed, first_id, thin,
    ):
        params = make_params(
            num_jobs=num_jobs,
            max_processors=max_processors,
            horizon=horizon,
            offered_load=offered_load,
            comm_fraction=comm_fraction,
            mips=mips,
            bandwidth_gbps=bandwidth_gbps,
            **overrides,
        )
        restore_job_counter(first_id)
        reference = reference_generate(params, np.random.default_rng(seed))
        reference_next_id = job_counter_state()
        restore_job_counter(first_id)
        jobs = SyntheticTraceGenerator(params, np.random.default_rng(seed)).generate(thin)

        assert job_counter_state() == reference_next_id == first_id + num_jobs
        assert jobs == reference[::thin]
        assert job_fields(jobs) == job_fields(reference[::thin])

    @given(
        only=st.sets(st.sampled_from([res.name for res in replicate_resources(12)])),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        thin=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_thinned_partial_build_keeps_the_full_build_ids(self, only, seed, thin):
        resources = replicate_resources(12)
        reset_job_counter()
        full = build_workload(RandomStreams(seed), resources)
        full_next_id = job_counter_state()
        reset_job_counter()
        thinned = build_workload(RandomStreams(seed), resources, only=only, thin=thin)

        assert job_counter_state() == full_next_id
        assert set(thinned) == set(full)
        for name, jobs in thinned.items():
            expected = full[name][::thin] if name in only else []
            assert job_fields(jobs) == job_fields(expected)

    @pytest.mark.parametrize("thin", [0, -3])
    def test_thin_below_one_is_rejected(self, thin):
        generator = SyntheticTraceGenerator(make_params(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="thin"):
            generator.generate(thin)

    def test_build_constructs_only_the_jobs_it_returns(self, monkeypatch):
        constructed = []
        original = Job.__post_init__

        def counting_post_init(job):
            constructed.append(job.job_id)
            original(job)

        monkeypatch.setattr(Job, "__post_init__", counting_post_init)
        workload = build_workload(RandomStreams(42), thin=8)
        returned = [job.job_id for jobs in workload.values() for job in jobs]

        assert sorted(constructed) == sorted(returned)
        assert len(returned) == sum(len(range(0, r.two_day_jobs, 8)) for r in ARCHIVE_RESOURCES)


class TestReplicaGroups:
    """Generators joined by ``group_replicas`` give what they give alone."""

    @staticmethod
    def params(count: int, num_jobs: int) -> List[WorkloadParameters]:
        # Two kinds of resource, interleaved: two replica groups.
        return [
            make_params(resource_name=f"r{i}", num_jobs=num_jobs, offered_load=(0.6, 1.7)[i % 2])
            for i in range(count)
        ]

    @pytest.mark.parametrize("count, num_jobs, thin", [(2, 200, 1), (40, 333, 8), (25, 817, 3)])
    def test_members_equal_lone_generators_in_any_call_order(self, count, num_jobs, thin):
        params = self.params(count, num_jobs)
        order = list(range(count))
        np.random.default_rng(count).shuffle(order)
        restore_job_counter(1)
        alone = {
            i: SyntheticTraceGenerator(params[i], np.random.default_rng(i)).generate(thin)
            for i in order
        }
        restore_job_counter(1)
        members = [SyntheticTraceGenerator(p, np.random.default_rng(i)) for i, p in enumerate(params)]
        group_replicas(members)
        grouped = {i: members[i].generate(thin) for i in order}

        for i in order:
            assert job_fields(grouped[i]) == job_fields(alone[i])

    @given(
        count=st.integers(min_value=2, max_value=30),
        num_jobs=st.integers(min_value=1, max_value=300),
        max_processors=st.integers(min_value=1, max_value=2048),
        overrides=st.sampled_from([{}] + [res.workload_overrides for res in ARCHIVE_RESOURCES]),
        horizon=st.sampled_from([4 * 3600.0, 6 * 3600.0, 86_400.0, TWO_DAYS]),
        offered_load=st.floats(min_value=0.05, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        thin=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_replicas_equal_lone_generators(
        self, count, num_jobs, max_processors, overrides, horizon, offered_load, seed, thin
    ):
        params = [
            make_params(
                resource_name=f"r{i}",
                num_jobs=num_jobs,
                max_processors=max_processors,
                horizon=horizon,
                offered_load=offered_load,
                **overrides,
            )
            for i in range(count)
        ]
        order = np.random.default_rng(seed).permutation(count).tolist()
        restore_job_counter(1)
        alone = {
            i: SyntheticTraceGenerator(params[i], np.random.default_rng([seed, i])).generate(thin)
            for i in order
        }
        restore_job_counter(1)
        members = [
            SyntheticTraceGenerator(p, np.random.default_rng([seed, i])) for i, p in enumerate(params)
        ]
        group_replicas(members)
        for i in order:
            assert job_fields(members[i].generate(thin)) == job_fields(alone[i])

    def test_equal_values_of_another_type_stay_apart(self):
        """``128`` and ``128.0`` compare equal but give float widths."""
        params = [make_params(resource_name="a"), make_params(resource_name="b", max_processors=128.0)]
        restore_job_counter(1)
        alone = [SyntheticTraceGenerator(p, np.random.default_rng(0)).generate(3) for p in params]
        restore_job_counter(1)
        members = [SyntheticTraceGenerator(p, np.random.default_rng(0)) for p in params]
        group_replicas(members)
        assert [job_fields(m.generate(3)) for m in members] == [job_fields(jobs) for jobs in alone]

    def test_a_member_generates_once_per_sampling_at_its_thin(self):
        members = [
            SyntheticTraceGenerator(p, np.random.default_rng(i))
            for i, p in enumerate(self.params(4, 50)[::2])
        ]
        group_replicas(members)
        members[0].generate(4)
        with pytest.raises(RuntimeError, match="once"):
            members[0].generate(4)
        with pytest.raises(ValueError, match="thin"):
            members[1].generate(5)
        assert len(members[1].generate(4)) == 13
        # Every row was taken, so the next call samples both streams afresh.
        assert len(members[0].generate(4)) == 13


class TestBuildMatchesTheOracle:
    """``build_workload`` equals the per-resource oracle job for job.

    Replicated federations put resources whose parameters differ only in
    name side by side (groups of 1 at 8 clusters, 2 at 16, 16 at 128, 17 and
    20 beyond); ``only=`` subsets thin those groups out.
    """

    SIX_HOURS = 6 * 3600.0

    @pytest.mark.parametrize(
        "size, horizon, thin, only_every, seed",
        [
            (8, SIX_HOURS, 1, None, 42),
            (8, TWO_DAYS, 30, None, 43),
            (16, 4 * 3600.0, 3, None, 44),
            (16, TWO_DAYS, 8, 3, 42),
            (20, SIX_HOURS, 8, 2, 7),
            (128, TWO_DAYS, 8, None, 42),
            (128, SIX_HOURS, 1, 5, 50),
            (136, 4 * 3600.0, 30, 2, 51),
            (160, TWO_DAYS, 3, None, 52),
        ],
    )
    def test_build_equals_the_per_resource_oracle(self, size, horizon, thin, only_every, seed):
        resources = replicate_resources(size)
        only = None if only_every is None else {r.name for r in resources[::only_every]}
        restore_job_counter(11)
        expected = reference_build(RandomStreams(seed), resources, horizon, only, thin)
        expected_next_id = job_counter_state()
        restore_job_counter(11)
        workload = build_workload(RandomStreams(seed), resources, horizon, only, thin)

        assert job_counter_state() == expected_next_id
        assert list(workload) == list(expected)
        for name, jobs in workload.items():
            assert job_fields(jobs) == job_fields(expected[name]), name
        if horizon == self.SIX_HOURS and thin == 1:
            # The golden fingerprints' horizon: most arrivals clip to its end.
            clipped = [j for jobs in expected.values() for j in jobs if j.submit_time == horizon - 1e-6]
            assert len(clipped) > sum(len(jobs) for jobs in expected.values()) // 2


    def test_a_repeated_name_draws_its_stream_in_resource_order(self):
        """A name that comes back draws from the same stream: the later
        entry's jobs follow the earlier's draws even when its replicas
        were sampled before the earlier entry's turn."""
        kth, sdsc = archive_by_name()["KTH SP2"], archive_by_name()["SDSC SP2"]
        resources = [
            dataclasses.replace(kth, name="first"),
            dataclasses.replace(sdsc, name="second"),
            dataclasses.replace(kth, name="second"),
        ]
        restore_job_counter(1)
        expected = reference_build(RandomStreams(5), resources, thin=2)
        expected_next_id = job_counter_state()
        restore_job_counter(1)
        workload = build_workload(RandomStreams(5), resources, thin=2)

        assert job_counter_state() == expected_next_id
        assert list(workload) == list(expected) == ["first", "second"]
        for name, jobs in workload.items():
            assert job_fields(jobs) == job_fields(expected[name]), name


class TestMerge:
    def test_merge_sorts_by_submit_time(self):
        a = SyntheticTraceGenerator(make_params(resource_name="A"), np.random.default_rng(0)).generate()
        b = SyntheticTraceGenerator(make_params(resource_name="B"), np.random.default_rng(1)).generate()
        merged = merge_workloads([a, b])
        assert len(merged) == len(a) + len(b)
        times = [j.submit_time for j in merged]
        assert times == sorted(times)


class TestArchive:
    def test_eight_resources_match_table1(self):
        assert len(ARCHIVE_RESOURCES) == 8
        by_name = archive_by_name()
        assert by_name["CTC SP2"].processors == 512
        assert by_name["LANL Origin"].processors == 2048
        assert by_name["NASA iPSC"].mips == pytest.approx(930.0)
        assert by_name["SDSC SP2"].quote == pytest.approx(5.24)
        assert by_name["LANL CM5"].bandwidth_gbps == pytest.approx(1.0)

    def test_two_day_job_counts_match_table2(self):
        counts = {r.name: r.two_day_jobs for r in ARCHIVE_RESOURCES}
        assert counts == {
            "CTC SP2": 417,
            "KTH SP2": 163,
            "LANL CM5": 215,
            "LANL Origin": 817,
            "NASA iPSC": 535,
            "SDSC Par96": 189,
            "SDSC Blue": 215,
            "SDSC SP2": 111,
        }

    def test_build_federation_specs(self):
        specs = build_federation_specs()
        assert len(specs) == 8
        names = [s.name for s in specs]
        assert names[0] == "CTC SP2"
        assert all(s.price > 0 for s in specs)

    def test_build_workload_counts_and_origins(self):
        workload = build_workload(RandomStreams(7))
        assert set(workload) == {r.name for r in ARCHIVE_RESOURCES}
        for res in ARCHIVE_RESOURCES:
            jobs = workload[res.name]
            assert len(jobs) == res.two_day_jobs
            assert all(j.origin == res.name for j in jobs)
            assert all(j.num_processors <= res.processors for j in jobs)

    def test_partial_build_is_bit_identical_for_generated_resources(self):
        """``only=`` skips foreign generation but preserves ids and draws.

        The parallel engine's shard build relies on this: a shard generating
        just its owned clusters must produce jobs identical — ids included —
        to the full replicated build.
        """
        keep = {"KTH SP2", "SDSC SP2"}
        reset_job_counter()
        full = build_workload(RandomStreams(7))
        full_next_id = job_counter_state()
        reset_job_counter()
        partial = build_workload(RandomStreams(7), only=keep)
        partial_next_id = job_counter_state()

        assert partial_next_id == full_next_id  # skipped ranges consumed
        for name, jobs in partial.items():
            if name not in keep:
                assert jobs == []
                continue
            assert [j.job_id for j in jobs] == [j.job_id for j in full[name]]
            assert [
                (j.origin, j.user_id, j.submit_time, j.num_processors, j.length_mi)
                for j in jobs
            ] == [
                (j.origin, j.user_id, j.submit_time, j.num_processors, j.length_mi)
                for j in full[name]
            ]

    def test_build_workload_is_reproducible(self):
        a = build_workload(RandomStreams(3))["KTH SP2"]
        b = build_workload(RandomStreams(3))["KTH SP2"]
        assert [(j.submit_time, j.length_mi) for j in a] == [(j.submit_time, j.length_mi) for j in b]

    def test_combined_workload_is_sorted(self):
        workload = build_workload(RandomStreams(1))
        combined = combined_workload(workload)
        assert len(combined) == sum(len(v) for v in workload.values())
        times = [j.submit_time for j in combined]
        assert times == sorted(times)

    def test_replicate_resources_for_scalability_experiment(self):
        replicated = replicate_resources(20)
        assert len(replicated) == 20
        names = [r.name for r in replicated]
        assert len(set(names)) == 20  # unique names
        assert names[:8] == [r.name for r in ARCHIVE_RESOURCES]
        assert names[8].startswith("CTC SP2 #2")
        # Replicas preserve capacity and pricing of their template.
        assert replicated[8].processors == replicated[0].processors
        assert replicated[8].quote == replicated[0].quote

    def test_replicate_requires_positive_count(self):
        with pytest.raises(ValueError):
            replicate_resources(0)
