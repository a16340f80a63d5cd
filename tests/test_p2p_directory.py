"""Tests for the federation directory (subscribe / quote / unsubscribe / query).

Rank queries go through :meth:`FederationDirectory.open_session`; a fresh
session's ``kth(rank)`` is the one-off probe.  With a transport attached (as
every federation attaches its own), each directory call that succeeds is one
control message of its kind, and a call that fails charges nothing.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import ResourceSpec
from repro.net import Transport
from repro.p2p import (
    FederationDirectory,
    OverlayError,
    RankCriterion,
    theoretical_query_messages,
)
from repro.sim.engine import Simulator
from repro.workload.archive import ARCHIVE_RESOURCES, build_federation_specs


def kth(directory, criterion, rank, min_processors=1):
    """One probe of a fresh session: the ``rank``-th match, or ``None``."""
    return directory.open_session(criterion, min_processors).kth(rank)


def make_spec(name: str, price: float, mips: float = 500.0, procs: int = 4) -> ResourceSpec:
    return ResourceSpec(
        name=name, num_processors=procs, mips=mips, bandwidth_gbps=1.0, price=price
    )


@pytest.fixture()
def directory():
    d = FederationDirectory()
    for i, spec in enumerate(build_federation_specs()):
        d.subscribe(f"GFA-{i+1}", spec)
    return d


class TestPublication:
    def test_subscribe_and_len(self, directory):
        assert len(directory) == 8
        assert {q.gfa_name for q in directory.quotes()} == {f"GFA-{i}" for i in range(1, 9)}

    def test_duplicate_subscription_rejected(self, directory):
        with pytest.raises(OverlayError):
            directory.subscribe("GFA-1", build_federation_specs()[0])

    def test_unsubscribe_removes_quote(self, directory):
        directory.unsubscribe("GFA-3")
        assert len(directory) == 7
        with pytest.raises(OverlayError):
            directory.unsubscribe("GFA-3")
        names = [q.gfa_name for q in directory.open_session(RankCriterion.CHEAPEST)]
        assert "GFA-3" not in names

    def test_update_quote_changes_price_ranking(self, directory):
        spec = directory.quote_of("GFA-5").spec  # NASA iPSC, most expensive
        cheaper = ResourceSpec(
            name=spec.name,
            num_processors=spec.num_processors,
            mips=spec.mips,
            bandwidth_gbps=spec.bandwidth_gbps,
            price=0.01,
        )
        directory.update_quote("GFA-5", cheaper)
        cheapest = kth(directory, RankCriterion.CHEAPEST, 1)
        assert cheapest.gfa_name == "GFA-5"

    def test_quote_of_unknown_raises(self, directory):
        with pytest.raises(KeyError):
            directory.quote_of("nope")

    def test_membership_ops_track_members(self):
        directory = FederationDirectory()
        for i in range(16):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i))
        assert len(directory) == 16
        directory.unsubscribe("GFA-3")
        assert not directory.is_subscribed("GFA-3")
        assert directory.is_subscribed("GFA-4")
        assert len(directory) == 15
        assert directory.member_names() == sorted(
            f"GFA-{i}" for i in range(16) if i != 3
        )
        # A departed member may come back, ranked by its new quote.
        directory.subscribe("GFA-3", make_spec("GFA-3", 0.5))
        assert len(directory) == 16
        assert directory.quote_of("GFA-3").price == 0.5
        assert kth(directory, RankCriterion.CHEAPEST, 1).gfa_name == "GFA-3"


class TestQueries:
    def test_first_cheapest_is_lanl_origin(self, directory):
        quote = kth(directory, RankCriterion.CHEAPEST, 1)
        assert quote.spec.name == "LANL Origin"
        assert quote.price == pytest.approx(3.59)

    def test_first_fastest_is_nasa_ipsc(self, directory):
        quote = kth(directory, RankCriterion.FASTEST, 1)
        assert quote.spec.name == "NASA iPSC"
        assert quote.mips == pytest.approx(930.0)

    def test_rank_sequences_match_table1_orderings(self, directory):
        cheapest_order = [
            kth(directory, RankCriterion.CHEAPEST, r).spec.name for r in range(1, 9)
        ]
        assert cheapest_order == [
            "LANL Origin",
            "LANL CM5",
            "SDSC Par96",
            "SDSC Blue",
            "CTC SP2",
            "KTH SP2",
            "SDSC SP2",
            "NASA iPSC",
        ]
        fastest_order = [
            kth(directory, RankCriterion.FASTEST, r).spec.name for r in range(1, 9)
        ]
        assert fastest_order == [
            "NASA iPSC",
            "SDSC SP2",
            "KTH SP2",
            "CTC SP2",
            "SDSC Blue",
            "SDSC Par96",
            "LANL CM5",
            "LANL Origin",
        ]

    def test_rank_beyond_federation_returns_none(self, directory):
        assert kth(directory, RankCriterion.CHEAPEST, 9) is None

    def test_processor_filter_skips_small_clusters(self, directory):
        # Only LANL CM5 (1024), LANL Origin (2048) and SDSC Blue (1152) have
        # 1024+ processors.
        quote = kth(directory, RankCriterion.FASTEST, 1, min_processors=1024)
        assert quote.spec.name == "SDSC Blue"
        quote = kth(directory, RankCriterion.CHEAPEST, 1, min_processors=1024)
        assert quote.spec.name == "LANL Origin"
        assert kth(directory, RankCriterion.CHEAPEST, 4, min_processors=1024) is None

    def test_invalid_rank_rejected(self, directory):
        with pytest.raises(ValueError):
            kth(directory, RankCriterion.CHEAPEST, 0)

    def test_session_iterates_the_whole_ranking(self, directory):
        ranking = list(directory.open_session(RankCriterion.CHEAPEST))
        assert [q.spec.name for q in ranking][:2] == ["LANL Origin", "LANL CM5"]
        assert len(ranking) == 8

    def test_equal_keys_rank_by_gfa_name(self):
        """Both orders are total: equal prices (or speeds) rank by GFA name,
        whatever order the members subscribed in."""
        names = ["GFA-c", "GFA-a", "GFA-d", "GFA-b"]
        directory = FederationDirectory()
        for name in names:
            directory.subscribe(name, make_spec(name, 2.0))
        for criterion in RankCriterion:
            ranked = [quote.gfa_name for quote in directory.open_session(criterion)]
            assert ranked == sorted(names), criterion


class TestAccounting:
    def test_query_statistics_accumulate(self, directory):
        before = directory.query_count
        kth(directory, RankCriterion.CHEAPEST, 1)
        kth(directory, RankCriterion.FASTEST, 3)
        assert directory.query_count == before + 2
        assert directory.assumed_query_messages >= 2 * theoretical_query_messages(8)

    def test_assumed_cost_follows_the_live_membership(self):
        """Each probe is charged ``ceil(log2 n)`` for the membership at the
        time of the probe, not at the time the session opened."""
        directory = FederationDirectory()
        for i in range(16):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i))
        session = directory.open_session(RankCriterion.CHEAPEST)
        session.kth(1)
        assert directory.assumed_query_messages == theoretical_query_messages(16) == 4
        for i in range(14):
            directory.unsubscribe(f"GFA-{i}")
        assert session.kth(1).gfa_name == "GFA-14"
        assert directory.assumed_query_messages == 4 + theoretical_query_messages(2)
        assert directory.query_count == 2

    _CHANGE = st.tuples(
        st.sampled_from(["subscribe", "subscribe", "replica", "unsubscribe", "update-quote"]),
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.5, max_value=9.5),
    )

    @given(
        ops=st.lists(
            st.one_of(
                _CHANGE,
                st.tuples(st.sampled_from(["probe", "next"]), st.integers(0, 9), st.just(0.0)),
                st.tuples(st.just("batch"), st.lists(_CHANGE, min_size=1, max_size=4)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_each_probe_is_charged_the_live_membership(self, ops):
        """After any mix of subscribes (charged or replica), unsubscribes,
        quote updates and batched storms of them, each probe adds exactly
        the assumed cost of the membership at that probe, computed as the
        per-probe formula did; a probe inside a batch is refused and
        charges nothing.  Long-lived sessions and fresh ones alike."""

        def per_probe_charge(system_size: int) -> int:
            if system_size < 1:
                raise ValueError("system size must be at least 1")
            return max(1, math.ceil(math.log2(system_size))) if system_size > 1 else 1

        directory = FederationDirectory()
        sessions = [directory.open_session(criterion) for criterion in RankCriterion]

        def change(kind, idx, price):
            name = f"GFA-{idx}"
            with contextlib.suppress(OverlayError):
                if kind == "subscribe":
                    directory.subscribe(name, make_spec(name, price))
                elif kind == "replica":
                    directory.subscribe(name, make_spec(name, price), replica=True)
                elif kind == "unsubscribe":
                    directory.unsubscribe(name)
                else:
                    directory.update_quote(name, make_spec(name, price))

        for op in ops:
            kind = op[0]
            if kind == "batch":
                with directory.batch_updates():
                    for inner in op[1]:
                        change(*inner)
                    charged = directory.assumed_query_messages
                    with pytest.raises(OverlayError):
                        sessions[0].kth(1)
                    assert directory.assumed_query_messages == charged
            elif kind in ("probe", "next"):
                idx = op[1]
                charged = directory.assumed_query_messages
                queries = directory.query_count
                expected = per_probe_charge(max(len(directory), 1))
                if kind == "next":
                    sessions[idx % 2].next()
                elif idx % 3 == 0:
                    sessions[idx % 2].kth(idx // 3 + 1)
                else:
                    kth(directory, RankCriterion.CHEAPEST, idx + 1)
                # next() probes once more per quote it skips as already served.
                probes = directory.query_count - queries
                assert probes >= 1
                assert directory.assumed_query_messages - charged == probes * expected
            else:
                change(*op)

    def test_theoretical_query_messages(self):
        assert theoretical_query_messages(1) == 1
        assert theoretical_query_messages(2) == 1
        assert theoretical_query_messages(8) == 3
        assert theoretical_query_messages(50) == math.ceil(math.log2(50))
        with pytest.raises(ValueError):
            theoretical_query_messages(0)


class TestLoadReports:
    def test_report_and_read_load(self, directory):
        assert directory.load_of("GFA-1") == 0.0
        directory.report_load("GFA-1", 120.0)
        assert directory.load_of("GFA-1") == pytest.approx(120.0)
        assert directory.load_updates == 1

    def test_load_report_validation(self, directory):
        with pytest.raises(OverlayError):
            directory.report_load("ghost", 1.0)
        with pytest.raises(ValueError):
            directory.report_load("GFA-1", -1.0)

    def test_unsubscribe_clears_load_report(self, directory):
        directory.report_load("GFA-2", 60.0)
        directory.unsubscribe("GFA-2")
        assert directory.load_of("GFA-2") == 0.0


class TestControlAccounting:
    """The directory's control plane, counted on an attached transport."""

    def _attached(self, n=2):
        directory = FederationDirectory()
        transport = Transport(Simulator())
        directory.attach_transport(transport)
        for i in range(n):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i))
        return directory, transport.stats

    def test_attached_transport_sees_control_traffic_per_kind(self):
        directory, stats = self._attached()
        directory.open_session(RankCriterion.CHEAPEST).kth(1)
        # One directory answers a probe with one query.
        assert stats.control_by_kind == {"subscribe": 2, "query": 1}
        assert stats.control_messages == 3
        assert stats.messages == 0

    def test_update_quote_is_one_message_not_a_pair(self):
        directory, stats = self._attached()
        directory.update_quote("GFA-0", make_spec("GFA-0", 9.0))
        assert stats.control_by_kind == {"subscribe": 2, "update-quote": 1}

    def test_unsubscribe_and_load_report_are_one_message_each(self):
        directory, stats = self._attached()
        directory.report_load("GFA-0", 30.0)
        directory.unsubscribe("GFA-1")
        assert stats.control_by_kind == {"subscribe": 2, "load-report": 1, "unsubscribe": 1}

    def test_every_probe_is_one_query_message(self):
        """Hits, misses past the end and probes that restart after a
        membership change cost one query each, as the directory counts them."""
        directory, stats = self._attached(n=3)
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.kth(2).gfa_name == "GFA-1"
        assert session.kth(4) is None
        directory.unsubscribe("GFA-0")
        assert session.kth(1).gfa_name == "GFA-1"
        # Iterating two members is two hits and the miss that ends it.
        assert len(list(directory.open_session(RankCriterion.FASTEST))) == 2
        assert stats.control_by_kind["query"] == directory.query_count == 6

    def test_replica_subscribe_is_visible_but_not_charged(self):
        directory, stats = self._attached(n=1)
        v0 = directory.version
        directory.subscribe("GFA-9", make_spec("GFA-9", 0.5), replica=True)
        assert directory.is_subscribed("GFA-9")
        assert directory.version == v0 + 1
        assert kth(directory, RankCriterion.CHEAPEST, 1).gfa_name == "GFA-9"
        assert stats.control_by_kind == {"subscribe": 1, "query": 1}

    def test_rejected_calls_charge_nothing(self):
        directory, stats = self._attached()
        with pytest.raises(OverlayError):
            directory.subscribe("GFA-0", make_spec("GFA-0", 1.0))
        with pytest.raises(OverlayError):
            directory.unsubscribe("ghost")
        with pytest.raises(OverlayError):
            directory.report_load("ghost", 1.0)
        with pytest.raises(ValueError):
            directory.report_load("GFA-0", -1.0)
        with pytest.raises(ValueError):
            directory.open_session(RankCriterion.CHEAPEST, min_processors=0)
        with directory.batch_updates():
            with pytest.raises(OverlayError):
                directory.open_session(RankCriterion.CHEAPEST).kth(1)
        assert stats.control_by_kind == {"subscribe": 2}
        assert directory.query_count == 0

    def test_failed_update_quote_leaves_version_and_transport_intact(self):
        """Re-quoting an unknown GFA raises before anything changes, and the
        transport the re-quote detaches for its inner pair is re-attached."""
        directory, stats = self._attached()
        v0 = directory.version
        with pytest.raises(OverlayError):
            directory.update_quote("ghost", make_spec("ghost", 1.0))
        assert directory.version == v0
        assert not directory.is_subscribed("ghost")
        directory.subscribe("GFA-2", make_spec("GFA-2", 3.0))
        assert stats.control_by_kind == {"subscribe": 3}

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["subscribe", "unsubscribe", "update-quote", "load-report", "query"]
                ),
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.5, max_value=9.5),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_control_tally_matches_random_operations(self, ops):
        """Over random calls, some of which fail, the per-kind counts equal a
        tally of the calls that succeeded, and the version moved once per
        successful membership change."""
        directory = FederationDirectory()
        transport = Transport(Simulator())
        directory.attach_transport(transport)
        tally = collections.Counter()
        changes = 0
        for kind, idx, price in ops:
            name = f"GFA-{idx}"
            version = directory.version
            try:
                if kind == "subscribe":
                    directory.subscribe(name, make_spec(name, price))
                elif kind == "unsubscribe":
                    directory.unsubscribe(name)
                elif kind == "update-quote":
                    directory.update_quote(name, make_spec(name, price))
                elif kind == "load-report":
                    directory.report_load(name, price)
                else:
                    kth(directory, RankCriterion.CHEAPEST, idx + 1)
            except OverlayError:
                assert directory.version == version
                continue
            tally[kind] += 1
            if kind in ("subscribe", "unsubscribe", "update-quote"):
                changes += 1
        assert transport.stats.control_by_kind == dict(tally)
        assert transport.stats.control_messages == sum(tally.values())
        assert directory.query_count == tally["query"]
        assert directory.version == changes


def names_in(directory, criterion):
    """GFA names of one ranking list, in list order."""
    return [quote.gfa_name for _key, quote in directory._ranking_for(criterion)]


class TestRankingLists:
    """The two sorted ``(key, quote)`` lists the sessions walk by position."""

    def test_subscribe_puts_one_shared_quote_in_each_ranking(self):
        directory = FederationDirectory()
        quotes = {
            name: directory.subscribe(name, make_spec(name, price, mips))
            for name, price, mips in [("B", 3.0, 100.0), ("A", 1.0, 300.0), ("C", 2.0, 200.0)]
        }
        assert names_in(directory, RankCriterion.CHEAPEST) == ["A", "C", "B"]
        assert names_in(directory, RankCriterion.FASTEST) == ["A", "C", "B"]
        for criterion in RankCriterion:
            for _key, quote in directory._ranking_for(criterion):
                assert quote is quotes[quote.gfa_name] is directory.quote_of(quote.gfa_name)

    def test_rankings_do_not_depend_on_subscribe_order(self):
        members = [
            ("GFA-a", 2.0, 400.0),
            ("GFA-b", 1.0, 400.0),
            ("GFA-c", 2.0, 900.0),
            ("GFA-d", 1.0, 100.0),
        ]
        rankings = set()
        for order in itertools.permutations(members):
            directory = FederationDirectory()
            for name, price, mips in order:
                directory.subscribe(name, make_spec(name, price, mips))
            rankings.add(
                tuple(tuple(directory._ranking_for(criterion)) for criterion in RankCriterion)
            )
        assert len(rankings) == 1
        [(cheapest, fastest)] = rankings
        assert [q.gfa_name for _k, q in cheapest] == ["GFA-b", "GFA-d", "GFA-a", "GFA-c"]
        assert [q.gfa_name for _k, q in fastest] == ["GFA-c", "GFA-a", "GFA-b", "GFA-d"]

    def test_rejected_duplicate_leaves_the_rankings_untouched(self):
        directory = FederationDirectory()
        original = directory.subscribe("A", make_spec("A", 2.0, 500.0))
        directory.subscribe("B", make_spec("B", 3.0, 400.0))
        before = [list(directory._ranking_for(c)) for c in RankCriterion]
        version = directory.version
        with pytest.raises(OverlayError):
            directory.subscribe("A", make_spec("A", 1.0, 900.0))
        assert [list(directory._ranking_for(c)) for c in RankCriterion] == before
        assert directory.version == version
        assert directory.quote_of("A") is original

    def test_unsubscribe_removes_its_own_pair_among_ties(self):
        """Equal prices and speeds share a key's first field, so removal must
        find the pair by the full ``(field, name)`` key."""
        directory = FederationDirectory()
        for name in ["GFA-1", "GFA-2", "GFA-3"]:
            directory.subscribe(name, make_spec(name, 2.0, 500.0))
        directory.unsubscribe("GFA-2")
        for criterion in RankCriterion:
            assert names_in(directory, criterion) == ["GFA-1", "GFA-3"]
        with pytest.raises(OverlayError):
            directory.unsubscribe("GFA-2")
        for criterion in RankCriterion:
            assert names_in(directory, criterion) == ["GFA-1", "GFA-3"]

    def test_rejected_unknown_member_calls_leave_the_rankings_untouched(self):
        directory = FederationDirectory()
        for i in range(4):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i))
        before = [list(directory._ranking_for(c)) for c in RankCriterion]
        with pytest.raises(OverlayError):
            directory.unsubscribe("ghost")
        with pytest.raises(OverlayError):
            directory.update_quote("ghost", make_spec("ghost", 0.5))
        with pytest.raises(OverlayError):
            directory.report_load("ghost", 1.0)
        with pytest.raises(KeyError):
            directory.quote_of("ghost")
        assert [list(directory._ranking_for(c)) for c in RankCriterion] == before

    def test_kth_returns_sorted_positions(self):
        directory = FederationDirectory()
        members = [("v50", 5.0, 100.0), ("v10", 1.0, 500.0), ("v40", 4.0, 200.0),
                   ("v20", 2.0, 400.0), ("v30", 3.0, 300.0)]
        for name, price, mips in members:
            directory.subscribe(name, make_spec(name, price, mips))
        by_price = [name for name, _p, _m in sorted(members, key=lambda m: m[1])]
        by_speed = [name for name, _p, _m in sorted(members, key=lambda m: -m[2])]
        for criterion, expected in [
            (RankCriterion.CHEAPEST, by_price),
            (RankCriterion.FASTEST, by_speed),
        ]:
            for rank, name in enumerate(expected, start=1):
                assert kth(directory, criterion, rank).gfa_name == name

    def test_list_position_is_the_served_rank(self):
        """An unfiltered session's rank ``k`` is the list's entry ``k - 1``."""
        directory = FederationDirectory()
        for i, spec in enumerate(build_federation_specs()):
            directory.subscribe(f"GFA-{i}", spec)
        for criterion in RankCriterion:
            ranking = directory._ranking_for(criterion)
            session = directory.open_session(criterion)
            for index, (_key, quote) in enumerate(ranking):
                assert session.kth(index + 1) is quote

    def test_update_quote_moves_only_its_own_pair(self):
        directory = FederationDirectory()
        for i in range(6):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 100.0 * (i + 1)))
        speed_before = names_in(directory, RankCriterion.FASTEST)
        directory.update_quote("GFA-0", make_spec("GFA-0", 9.0, 100.0))
        assert names_in(directory, RankCriterion.CHEAPEST) == [
            "GFA-1", "GFA-2", "GFA-3", "GFA-4", "GFA-5", "GFA-0"
        ]
        assert names_in(directory, RankCriterion.FASTEST) == speed_before
        assert len(directory._ranking_for(RankCriterion.CHEAPEST)) == 6

    def test_probes_past_the_end_answer_none_and_are_charged(self):
        directory = FederationDirectory()
        for i in range(8):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i))
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.kth(9) is None
        assert session.kth(20) is None
        assert directory.query_count == 2
        assert directory.assumed_query_messages == 2 * theoretical_query_messages(8)
        with pytest.raises(ValueError):
            session.kth(0)
        assert directory.query_count == 2

    def test_probe_cost_does_not_depend_on_how_far_it_walks(self):
        """A probe is charged the assumed ``O(log n)`` cost whether it reads
        the first entry or walks to the last one."""
        directory = FederationDirectory()
        for i in range(64):
            directory.subscribe(f"GFA-{i:02d}", make_spec(f"GFA-{i:02d}", 1.0 + i))
        charges = []
        for rank in (1, 64):
            before = directory.assumed_query_messages
            assert kth(directory, RankCriterion.CHEAPEST, rank).gfa_name == f"GFA-{rank - 1:02d}"
            charges.append(directory.assumed_query_messages - before)
        assert charges == [6, 6]
        assert directory.query_count == 2

    def test_assumed_messages_scale_logarithmically(self):
        """64 times the members costs 2.5 times the messages per probe."""
        per_probe = {}
        for size in (16, 1024):
            directory = FederationDirectory()
            for i in range(size):
                directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i))
            session = directory.open_session(RankCriterion.FASTEST)
            for rank in range(1, 17):
                session.kth(rank)
            per_probe[size] = directory.assumed_query_messages / directory.query_count
        assert per_probe == {16: 4.0, 1024: 10.0}

    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["subscribe", "unsubscribe"]),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rankings_match_a_reference_dict(self, operations):
        """Under random subscribes and unsubscribes the directory refuses
        exactly the calls a reference dict says are invalid, and both lists
        and a fresh session's walk follow the sorted reference."""
        directory = FederationDirectory()
        reference: dict = {}
        for op, idx, price in operations:
            name = f"GFA-{idx:02d}"
            if op == "subscribe":
                if name in reference:
                    with pytest.raises(OverlayError):
                        directory.subscribe(name, make_spec(name, float(price)))
                else:
                    directory.subscribe(name, make_spec(name, float(price)))
                    reference[name] = float(price)
            elif name in reference:
                directory.unsubscribe(name)
                del reference[name]
            else:
                with pytest.raises(OverlayError):
                    directory.unsubscribe(name)
        expected = sorted(reference, key=lambda name: (reference[name], name))
        assert len(directory) == len(reference)
        assert names_in(directory, RankCriterion.CHEAPEST) == expected
        assert names_in(directory, RankCriterion.FASTEST) == sorted(reference)
        walked = [q.gfa_name for q in directory.open_session(RankCriterion.CHEAPEST)]
        assert walked == expected
