"""Unit tests for the conservative parallel engine's building blocks.

The partition layer (shard assignment, lookahead sampling, the eligibility
gate), the cross-shard message codec and — the load-bearing property — the
deterministic per-window merge order: any batch of cross-shard injections,
sorted by the canonical ``(deliver_time, origin_shard, origin_seq)`` key and
scheduled through :meth:`~repro.sim.engine.Simulator.schedule_at_many`, must
fire in exactly the order a single serial event queue would have produced.
The end-to-end parity guarantees built on these pieces live in
``test_par_parity.py``.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import build_topology
from repro.p2p.sharded import shard_for
from repro.par import ParallelStats, plan_partition
from repro.par.engine import ParallelSimulator
from repro.par.partition import WINDOW_FLOOR_S, sample_lookahead, shard_assignment
from repro.par.router import (
    CrossShardMessage,
    MessageKind,
    decode_job,
    encode_job,
    sort_injections,
)
from repro.scenario import Scenario, run_scenario
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.archive import build_federation_specs, replicate_resources

NAMES = [spec.name for spec in build_federation_specs(replicate_resources(16))]

#: A shape the engine accepts: nonzero cross-shard latency, default variants.
ELIGIBLE = Scenario(
    workload="synthetic", horizon=4 * 3600.0, thin=40, seed=42, transport="two-tier-wan"
)


class TestPartition:
    def test_assignment_matches_directory_shard_function(self):
        assignment = shard_assignment(NAMES, 4)
        assert assignment == {name: shard_for(name, 4) for name in NAMES}
        assert set(assignment.values()) <= set(range(4))

    def test_assignment_occupies_multiple_shards(self):
        # 16 clusters over 2 shards: the crc32 key must actually split them.
        assert len(set(shard_assignment(NAMES, 2).values())) == 2

    def test_lookahead_is_minimum_cross_shard_latency(self):
        assignment = shard_assignment(NAMES, 2)
        topology = build_topology(
            "two-tier-wan", NAMES, rng=RandomStreams(42).get("net/latency")
        )
        lookahead = sample_lookahead(topology, NAMES, assignment)
        expected = min(
            topology.link(a, b).latency_s
            for i, a in enumerate(NAMES)
            for b in NAMES[i + 1 :]
            if assignment[a] != assignment[b]
        )
        assert lookahead == expected
        assert lookahead > 0.0

    def test_lookahead_inf_when_sample_is_single_shard(self):
        topology = build_topology(
            "two-tier-wan", NAMES, rng=RandomStreams(42).get("net/latency")
        )
        assignment = {name: 0 for name in NAMES}
        assert math.isinf(sample_lookahead(topology, NAMES, assignment))


class TestEligibilityGate:
    def test_eligible_two_tier_wan(self):
        plan = plan_partition(ELIGIBLE, 2, NAMES)
        assert plan.eligible
        assert plan.fallback_reason is None
        assert plan.lookahead_s > 0.0
        assert plan.window_s == max(plan.lookahead_s, WINDOW_FLOOR_S)
        assert plan.occupied_shards == 2

    def test_uniform_topology_rejected(self):
        plan = plan_partition(ELIGIBLE.replace(transport="uniform"), 2, NAMES)
        assert not plan.eligible
        assert "zero cross-shard latency" in plan.fallback_reason

    def test_fewer_than_two_workers_rejected(self):
        assert not plan_partition(ELIGIBLE, 1, NAMES).eligible
        assert not plan_partition(ELIGIBLE, 0, NAMES).eligible

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            (dict(explicit_inputs=True), "explicit specs/workload"),
            (dict(explicit_fault_plan=True), "fault injection"),
            (dict(validate=True), "validation"),
            (dict(checkpointing=True), "checkpoint"),
        ],
    )
    def test_run_level_gates(self, kwargs, needle):
        plan = plan_partition(ELIGIBLE, 2, NAMES, **kwargs)
        assert not plan.eligible
        assert needle in plan.fallback_reason

    @pytest.mark.parametrize(
        "replace, needle",
        [
            (dict(faults="chaos"), "fault injection"),
            (dict(keep_message_records=True), "per-message records"),
            (dict(pricing="demand"), "dynamic pricing"),
            (dict(agent="broadcast"), "agent variant"),
            (dict(resilience="noop"), "resilience policy"),
        ],
    )
    def test_scenario_level_gates(self, replace, needle):
        plan = plan_partition(ELIGIBLE.replace(**replace), 2, NAMES)
        assert not plan.eligible
        assert needle in plan.fallback_reason

    def test_single_occupied_shard_rejected(self):
        plan = plan_partition(ELIGIBLE, 2, [NAMES[0]])
        assert not plan.eligible
        assert "one shard" in plan.fallback_reason


class TestRouterCodec:
    def test_job_roundtrips_as_a_copy(self):
        from repro.workload.job import Job

        job = Job(
            origin="SDSC SP2",
            user_id=1,
            submit_time=5.0,
            num_processors=4,
            length_mi=100.0,
        )
        clone = decode_job(encode_job(job))
        assert clone is not job
        assert (clone.job_id, clone.origin, clone.num_processors) == (
            job.job_id,
            job.origin,
            job.num_processors,
        )

    def test_sort_injections_canonical_order(self):
        def msg(deliver, shard, seq):
            return CrossShardMessage(
                kind=MessageKind.JOB_ARRIVAL,
                dest_shard=0,
                dest_name="x",
                origin_gfa="y",
                origin_shard=shard,
                origin_seq=seq,
                send_time=0.0,
                deliver_time=deliver,
                payload=b"",
            )

        messages = [msg(60.0, 1, 0), msg(30.0, 1, 2), msg(30.0, 0, 5), msg(30.0, 1, 1)]
        ordered = sort_injections(messages)
        assert [(m.deliver_time, m.origin_shard, m.origin_seq) for m in ordered] == [
            (30.0, 0, 5),
            (30.0, 1, 1),
            (30.0, 1, 2),
            (60.0, 1, 0),
        ]


#: Random cross-shard schedules: per message a window slot, origin shard and
#: per-shard sequence number (deduplicated — one shard never emits the same
#: sequence number twice).
_plans = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),  # deliver window index
        st.integers(min_value=0, max_value=3),  # origin shard
        st.integers(min_value=0, max_value=50),  # origin sequence
    ),
    min_size=1,
    max_size=60,
    unique_by=lambda t: (t[1], t[2]),
)


class TestMergeOrderOracle:
    """Hypothesis oracle: a window's injections, sorted canonically and fed
    through ``schedule_at_many``, fire in exactly the serial queue's order."""

    @given(plan=_plans)
    @settings(max_examples=60, deadline=None)
    def test_injection_batch_replays_in_canonical_order(self, plan):
        window = 30.0
        messages = [
            CrossShardMessage(
                kind=MessageKind.JOB_ARRIVAL,
                dest_shard=0,
                dest_name="x",
                origin_gfa="y",
                origin_shard=shard,
                origin_seq=seq,
                send_time=0.0,
                deliver_time=slot * window,
                payload=b"",
            )
            for slot, shard, seq in plan
        ]
        ordered = sort_injections(messages)
        expected = [(m.origin_shard, m.origin_seq) for m in ordered]
        sim = Simulator()
        fired = []
        sim.schedule_at_many(
            (m.deliver_time, fired.append, ((m.origin_shard, m.origin_seq),))
            for m in ordered
        )
        sim.run()
        assert fired == expected


class TestParallelStats:
    def test_worker_shares_and_describe(self):
        stats = ParallelStats(
            requested_workers=2,
            workers=2,
            backend="process",
            window_s=30.0,
            windows=10,
            cross_messages=4,
            cross_volume_mb=0.5,
            worker_events=[30, 10],
        )
        assert stats.ran_parallel
        assert stats.worker_shares() == [0.75, 0.25]
        text = stats.describe()
        assert "2 workers (process)" in text
        assert "10 windows" in text

    def test_fallback_describe(self):
        stats = ParallelStats(requested_workers=4, fallback_reason="because")
        assert not stats.ran_parallel
        assert "serial fallback" in stats.describe()
        assert "because" in stats.describe()


class TestShardBuild:
    """The owned-only shard build must tile the full job-id space exactly."""

    def test_shards_partition_the_serial_workload(self):
        from repro.par.shard import build_shard_federation
        from repro.scenario.registry import WORKLOAD_REGISTRY
        from repro.scenario.runner import resolve_resources
        from repro.workload.archive import thin_workload
        from repro.workload.job import reset_job_counter

        archive = resolve_resources(ELIGIBLE, None)
        provider = WORKLOAD_REGISTRY.get(ELIGIBLE.workload)
        reset_job_counter()
        serial = thin_workload(
            provider(ELIGIBLE, RandomStreams(ELIGIBLE.seed), archive), ELIGIBLE.thin
        )
        serial_ids = {
            name: [j.job_id for j in jobs] for name, jobs in serial.items()
        }

        seen: dict = {}
        for shard_index in range(2):
            shard = build_shard_federation(ELIGIBLE, shard_index, 2, 60.0)
            for spec in shard.specs:
                jobs = shard.workload[spec.name]
                if shard.owns(spec.name):
                    # Owned traces carry the exact serial ids (and only them).
                    assert [j.job_id for j in jobs] == serial_ids[spec.name]
                    assert spec.name not in seen
                    seen[spec.name] = True
                else:
                    # Foreign traces are never materialised on this shard.
                    assert jobs == []
        assert set(seen) == set(serial_ids)

    @pytest.mark.parametrize("shard_index", [0, 1])
    def test_shard_start_queues_one_arrival_per_owned_population(self, shard_index):
        """Shards build their populations like the serial federation does, so
        each owned, non-empty population holds exactly one pending arrival."""
        from repro.core.users import UserPopulation
        from repro.par.shard import build_shard_federation

        shard = build_shard_federation(ELIGIBLE, shard_index, 2, 60.0)
        shard.start()
        arrivals = {}
        for _time, _priority, _seq, event in shard.sim._heap:
            callback = event.callback
            if getattr(callback, "__func__", None) is UserPopulation._submit:
                arrivals[callback.__self__.gfa_name] = (
                    arrivals.get(callback.__self__.gfa_name, 0) + 1
                )
        owned = {spec.name for spec in shard.owned_specs if shard.workload[spec.name]}
        assert owned
        assert arrivals == {name: 1 for name in owned}


class TestSimulatorValidation:
    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2 workers"):
            ParallelSimulator(ELIGIBLE, 1, 30.0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelSimulator(ELIGIBLE, 2, 30.0, backend="threads")


class TestRunnerDispatch:
    def test_run_scenario_attaches_fallback_stats(self):
        scenario = ELIGIBLE.replace(transport="uniform")
        with pytest.warns(RuntimeWarning, match="parallel engine unavailable"):
            result = run_scenario(scenario, workers=2)
        assert result.parallel is not None
        assert not result.parallel.ran_parallel
        assert "zero cross-shard latency" in result.parallel.fallback_reason

    def test_scenario_parallel_field_dispatches(self):
        result = run_scenario(ELIGIBLE.replace(parallel=2))
        assert result.parallel is not None
        assert result.parallel.ran_parallel
        assert result.parallel.workers == 2

    def test_workers_argument_overrides_scenario_field(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_scenario(ELIGIBLE.replace(parallel=2), workers=1)
        assert result.parallel is None  # 1 worker = the plain serial path

    def test_hash_transparent_for_trivial_worker_counts(self):
        base = Scenario()
        assert base.replace(parallel=1).scenario_hash() == base.scenario_hash()
        assert base.replace(parallel=4).scenario_hash() != base.scenario_hash()
