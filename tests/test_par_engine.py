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

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import build_topology
from repro.par import ParallelStats, plan_partition
from repro.par.engine import ParallelSimulator
from repro.par.partition import (
    WINDOW_FLOOR_S,
    sample_lookahead,
    shard_assignment,
    shard_for,
)
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
    def test_shard_for_is_stable_and_bounded(self):
        for shards in (1, 2, 4, 7):
            for i in range(32):
                shard = shard_for(f"GFA-{i}", shards)
                assert 0 <= shard < shards
                assert shard == shard_for(f"GFA-{i}", shards)

    def test_shard_for_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shard_for("A", 0)

    def test_assignment_matches_shard_function(self):
        assignment = shard_assignment(NAMES, 4)
        assert assignment == {name: shard_for(name, 4) for name in NAMES}
        assert set(assignment.values()) <= set(range(4))

    def test_assignment_is_the_same_in_a_fresh_interpreter(self):
        """The coordinator and every worker process must agree on ownership:
        an interpreter with another string-hash seed assigns the same shards."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import json, sys\n"
            "from repro.par.partition import shard_assignment\n"
            "print(json.dumps(shard_assignment(json.loads(sys.argv[1]), 4)))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(NAMES)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert json.loads(out.stdout) == shard_assignment(NAMES, 4)

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
        from repro.workload.job import reset_job_counter

        archive = resolve_resources(ELIGIBLE, None)
        provider = WORKLOAD_REGISTRY.get(ELIGIBLE.workload)
        reset_job_counter()
        serial = provider(ELIGIBLE, RandomStreams(ELIGIBLE.seed), archive)
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
    def test_shard_registry_resolves_every_cluster_name(self, shard_index):
        """Owned clusters resolve to their GFAs and foreign ones to proxies,
        so base negotiation reaches either by name; nothing else registers."""
        from repro.par.shard import RemoteClusterProxy, ShardGFA, build_shard_federation

        shard = build_shard_federation(ELIGIBLE, shard_index, 2, 60.0)
        assert len(shard.registry) == len(shard.specs)
        kinds = set()
        for spec in shard.specs:
            agent = shard.registry.lookup(spec.name)
            if shard.owns(spec.name):
                assert type(agent) is ShardGFA
                assert agent is shard.gfas[spec.name]
            else:
                assert type(agent) is RemoteClusterProxy
                assert spec.name not in shard.gfas
            kinds.add(type(agent))
        assert kinds == {ShardGFA, RemoteClusterProxy}

    @pytest.mark.parametrize("shard_index", [0, 1])
    def test_shard_start_feeds_every_owned_arrival(self, shard_index):
        """Shards build their populations like the serial federation does, so
        each owned population's jobs are all on the shard's feed, none in
        its heap, and pending and the next event time count them."""
        from repro.core.users import UserPopulation
        from repro.par.shard import build_shard_federation

        shard = build_shard_federation(ELIGIBLE, shard_index, 2, 60.0)
        shard.start()
        sim = shard.sim
        assert not any(
            getattr(callback, "__func__", callback) is UserPopulation._submit
            for _time, _priority, _seq, callback, _args in sim._heap
        )
        fed = {}
        for population in sim._feed_items:
            fed[population.gfa.name] = fed.get(population.gfa.name, 0) + 1
        owned = {
            spec.name: len(shard.workload[spec.name])
            for spec in shard.owned_specs
            if shard.workload[spec.name]
        }
        assert owned
        assert fed == owned
        assert sim.pending == len(sim._live) + sum(owned.values())
        first = min(job.submit_time for name in owned for job in shard.workload[name])
        assert sim.next_event_time() <= first


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
            result = run_scenario(scenario.replace(parallel=2))
        assert result.parallel is not None
        assert not result.parallel.ran_parallel
        assert "zero cross-shard latency" in result.parallel.fallback_reason

    def test_scenario_parallel_field_dispatches(self):
        result = run_scenario(ELIGIBLE.replace(parallel=2))
        assert result.parallel is not None
        assert result.parallel.ran_parallel
        assert result.parallel.workers == 2

    def test_one_worker_is_the_plain_serial_path(self):
        result = run_scenario(ELIGIBLE.replace(parallel=1))
        assert result.parallel is None  # no dispatch, no fallback record

    def test_hash_transparent_for_trivial_worker_counts(self):
        base = Scenario()
        assert base.replace(parallel=1).scenario_hash() == base.scenario_hash()
        assert base.replace(parallel=4).scenario_hash() != base.scenario_hash()
