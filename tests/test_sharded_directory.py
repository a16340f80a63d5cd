"""Property and unit tests for the sharded federation directory.

The contract: a :class:`~repro.p2p.sharded.ShardedDirectory` over any shard
count is *observationally identical* to one
:class:`~repro.p2p.FederationDirectory` holding the union of the quotes —
same rank-query answers, same resumable scatter-gather session sequences,
same serve-once-under-churn semantics — because both orders are total
(ranking key includes the GFA name).  The single directory is therefore used
as the oracle throughout, including under random membership churn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import ResourceSpec
from repro.net import Transport
from repro.p2p import (
    FederationDirectory,
    RankCriterion,
    ShardedDirectory,
    create_directory,
    shard_for,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_spec(name: str, price: float, mips: float, procs: int) -> ResourceSpec:
    return ResourceSpec(
        name=name, num_processors=procs, mips=mips, bandwidth_gbps=1.0, price=price
    )


def sharded(shards: int, seed: int = 0) -> ShardedDirectory:
    return ShardedDirectory(
        [np.random.default_rng(seed + i) for i in range(shards)]
    )


def oracle_ranking(quotes, criterion, min_processors):
    quotes = [q for q in quotes if q.spec.num_processors >= min_processors]
    if criterion is RankCriterion.CHEAPEST:
        quotes.sort(key=lambda q: (q.spec.price, q.gfa_name))
    else:
        quotes.sort(key=lambda q: (-q.spec.mips, q.gfa_name))
    return quotes


class TestShardRouting:
    def test_shard_for_is_stable_and_bounded(self):
        for shards in (1, 2, 4, 7):
            for i in range(32):
                shard = shard_for(f"GFA-{i}", shards)
                assert 0 <= shard < shards
                assert shard == shard_for(f"GFA-{i}", shards)

    def test_shard_for_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shard_for("A", 0)

    def test_membership_ops_route_to_owning_shard(self):
        directory = sharded(4)
        for i in range(16):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        assert len(directory) == 16
        assert sum(len(shard) for shard in directory.shards) == 16
        for i in range(16):
            owner = directory.shards[shard_for(f"GFA-{i}", 4)]
            assert owner.is_subscribed(f"GFA-{i}")
        directory.unsubscribe("GFA-3")
        assert not directory.is_subscribed("GFA-3")
        assert len(directory) == 15
        assert directory.member_names() == sorted(
            f"GFA-{i}" for i in range(16) if i != 3
        )

    def test_update_quote_and_load_reports_follow_the_owner(self):
        directory = sharded(3)
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.report_load("A", 60.0)
        directory.update_quote("A", make_spec("A", 2.0, 500.0, 4))
        assert directory.quote_of("A").price == 2.0
        assert directory.load_of("A") == pytest.approx(60.0)  # survives re-quote
        assert directory.load_updates == 1

    def test_version_aggregates_shard_bumps(self):
        directory = sharded(4)
        v0 = directory.version
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.subscribe("B", make_spec("B", 2.0, 500.0, 4))
        assert directory.version == v0 + 2


class TestCreateDirectory:
    def test_one_shard_is_the_plain_directory(self):
        directory = create_directory(RandomStreams(42), shards=1)
        assert type(directory) is FederationDirectory

    def test_one_shard_uses_the_historical_overlay_stream(self):
        """The single-shard overlay must draw from ``directory/overlay`` so
        pre-sharding runs stay byte-identical — same levels, same hops."""
        directory = create_directory(RandomStreams(42), shards=1)
        legacy = FederationDirectory(rng=RandomStreams(42).get("directory/overlay"))
        for i in range(32):
            spec = make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4)
            directory.subscribe(f"GFA-{i}", spec)
            legacy.subscribe(f"GFA-{i}", spec)
        directory.query(RankCriterion.CHEAPEST, 32)
        legacy.query(RankCriterion.CHEAPEST, 32)
        assert directory.measured_overlay_hops == legacy.measured_overlay_hops

    def test_multi_shard_builds_sharded(self):
        directory = create_directory(RandomStreams(42), shards=4)
        assert isinstance(directory, ShardedDirectory)
        assert len(directory.shards) == 4

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            create_directory(RandomStreams(42), shards=0)


#: One directory operation: (kind, gfa index, price, mips, processors).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "unsubscribe", "update", "probe"]),
        st.integers(min_value=0, max_value=11),
        st.floats(min_value=0.5, max_value=9.5),
        st.floats(min_value=100.0, max_value=1000.0),
        st.sampled_from([1, 2, 64, 512]),
    ),
    min_size=1,
    max_size=50,
)


class TestScatterGatherMatchesOracle:
    @given(
        ops=_ops,
        criterion=st.sampled_from(list(RankCriterion)),
        shards=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_membership_churn(self, ops, criterion, shards):
        """Sharded queries and scatter-gather sessions both agree with a
        single-directory oracle across random churn, long-lived sessions
        included (the aggregate version stamp forces transparent restarts)."""
        directory = sharded(shards)
        oracle = FederationDirectory(rng=np.random.default_rng(99))
        open_sessions = {}
        for kind, idx, price, mips, procs in ops:
            name = f"GFA-{idx}"
            price, mips = round(price, 3), round(mips, 1)
            if kind == "subscribe" and not oracle.is_subscribed(name):
                spec = make_spec(name, price, mips, procs)
                directory.subscribe(name, spec)
                oracle.subscribe(name, spec)
            elif kind == "unsubscribe" and oracle.is_subscribed(name):
                directory.unsubscribe(name)
                oracle.unsubscribe(name)
            elif kind == "update" and oracle.is_subscribed(name):
                spec = make_spec(name, price, mips, procs)
                directory.update_quote(name, spec)
                oracle.update_quote(name, spec)
            elif kind == "probe":
                expected = oracle_ranking(oracle.quotes(), criterion, procs)
                session = open_sessions.setdefault(
                    procs, directory.open_session(criterion, procs)
                )
                for rank in range(1, len(expected) + 2):
                    want = expected[rank - 1].gfa_name if rank <= len(expected) else None
                    got_session = session.kth(rank)
                    got_query = directory.query(criterion, rank, procs)
                    assert (got_session.gfa_name if got_session else None) == want
                    assert (got_query.gfa_name if got_query else None) == want

    def test_ranking_merges_across_shards(self):
        directory = sharded(4)
        for i in range(16):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 16.0 - i, 100.0 * i + 1, 4))
        cheapest = [q.gfa_name for q in directory.ranking(RankCriterion.CHEAPEST)]
        assert cheapest == [f"GFA-{i}" for i in range(15, -1, -1)]
        fastest = [q.gfa_name for q in directory.ranking(RankCriterion.FASTEST)]
        assert fastest == [f"GFA-{i}" for i in range(15, -1, -1)]


class TestScatterGatherSessionChurnSemantics:
    """The PR-3 serve-once-under-churn semantics must survive sharding."""

    def _directory(self):
        directory = sharded(3)
        for i, price in enumerate([1.0, 2.0, 3.0, 4.0]):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", price, 500.0, 4))
        return directory

    def test_unsubscribe_of_served_member_does_not_skip_unprobed_one(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        directory.unsubscribe("GFA-0")  # dead member invalidated on a shard
        assert session.next().gfa_name == "GFA-1"
        assert session.next().gfa_name == "GFA-2"
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None

    def test_new_cheapest_subscriber_is_served_not_a_repeat(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        directory.subscribe("GFA-9", make_spec("GFA-9", 0.5, 500.0, 4))
        assert session.next().gfa_name == "GFA-9"
        assert session.next().gfa_name == "GFA-1"

    def test_departure_then_cheaper_newcomer_in_one_session(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        directory.unsubscribe("GFA-0")
        assert session.next().gfa_name == "GFA-1"
        directory.subscribe("GFA-9", make_spec("GFA-9", 0.5, 500.0, 4))
        assert session.next().gfa_name == "GFA-9"
        assert session.next().gfa_name == "GFA-2"
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None

    def test_exhausted_session_stays_exhausted_for_served_members(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        served = [quote.gfa_name for quote in session]
        assert served == ["GFA-0", "GFA-1", "GFA-2", "GFA-3"]
        directory.unsubscribe("GFA-2")
        assert session.next() is None
        directory.subscribe("GFA-9", make_spec("GFA-9", 9.0, 500.0, 4))
        assert session.next().gfa_name == "GFA-9"

    @given(ops=_ops, criterion=st.sampled_from(list(RankCriterion)))
    @settings(max_examples=50, deadline=None)
    def test_iteration_serves_each_live_candidate_at_most_once(self, ops, criterion):
        directory = sharded(4)
        session = directory.open_session(criterion)
        served = []
        for kind, idx, price, mips, procs in ops:
            name = f"GFA-{idx}"
            price, mips = round(price, 3), round(mips, 1)
            if kind == "subscribe" and not directory.is_subscribed(name):
                directory.subscribe(name, make_spec(name, price, mips, procs))
            elif kind == "unsubscribe" and directory.is_subscribed(name):
                directory.unsubscribe(name)
            elif kind == "update" and directory.is_subscribed(name):
                directory.update_quote(name, make_spec(name, price, mips, procs))
            elif kind == "probe":
                quote = session.next()
                if quote is not None:
                    assert directory.is_subscribed(quote.gfa_name)
                    served.append(quote.gfa_name)
        assert len(served) == len(set(served))


class TestScatterAccounting:
    def test_session_probes_account_queries_on_contacted_shards(self):
        directory = sharded(4)
        for i in range(8):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        before = directory.query_count
        session = directory.open_session(RankCriterion.CHEAPEST)
        session.kth(1)
        # The initial scatter probes every shard at least once.
        assert directory.query_count >= before + len(directory.shards)

    def test_one_shot_query_charges_every_shard(self):
        directory = sharded(4)
        for i in range(8):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        before = directory.query_count
        directory.query(RankCriterion.CHEAPEST, 1)
        assert directory.query_count == before + 4

    def test_attached_transport_sees_per_shard_control_traffic(self):
        directory = sharded(2)
        transport = Transport(Simulator())
        directory.attach_transport(transport)
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.subscribe("B", make_spec("B", 2.0, 500.0, 4))
        directory.query(RankCriterion.CHEAPEST, 1)
        stats = transport.stats
        assert stats.control_by_kind.get("subscribe") == 2
        assert stats.control_by_kind.get("query") == 2  # one per shard (scatter)
        assert all(node.startswith("directory/shard") for node in stats.control_by_node)


class TestShardedBatchUpdates:
    def test_cross_shard_storm_bumps_once_per_touched_shard(self):
        directory = sharded(4)
        names = [f"GFA-{i}" for i in range(12)]
        for name in names:
            directory.subscribe(name, make_spec(name, 1.0, 500.0, 4))
        v0 = directory.version
        touched = {shard_for(name, 4) for name in names}
        with directory.batch_updates():
            for name in names:
                directory.update_quote(name, make_spec(name, 2.0, 500.0, 4))
        assert directory.version == v0 + len(touched)

    def test_aggregate_version_counter_matches_shard_sum(self):
        directory = sharded(3)
        for i in range(9):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        directory.update_quote("GFA-0", make_spec("GFA-0", 5.0, 500.0, 4))
        directory.unsubscribe("GFA-1")
        assert directory.version == sum(s.version for s in directory.shards)

    def test_merge_session_resweeps_once_after_batched_storm(self):
        directory = sharded(3)
        for i in range(9):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        session = directory.open_session(RankCriterion.CHEAPEST)
        first = session.next().gfa_name
        with directory.batch_updates():
            directory.update_quote("GFA-8", make_spec("GFA-8", 0.01, 500.0, 4))
        assert first == "GFA-0"
        assert session.next().gfa_name == "GFA-8"
