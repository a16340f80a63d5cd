"""Tests for the federation directory (subscribe / quote / unsubscribe / query).

Rank queries go through :meth:`FederationDirectory.open_session`; a fresh
session's ``kth(rank)`` is the one-off probe.  With a transport attached (as
every federation attaches its own), each directory call that succeeds is one
control message of its kind, and a call that fails charges nothing.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import ResourceSpec
from repro.net import Transport
from repro.p2p import FederationDirectory, RankCriterion, theoretical_query_messages
from repro.p2p.overlay import OverlayError
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
    d = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        whatever overlay levels the directory drew."""
        names = ["GFA-c", "GFA-a", "GFA-d", "GFA-b"]
        for seed in range(3):
            directory = FederationDirectory(rng=np.random.default_rng(seed))
            for name in names:
                directory.subscribe(name, make_spec(name, 2.0))
            for criterion in RankCriterion:
                ranked = [quote.gfa_name for quote in directory.open_session(criterion)]
                assert ranked == sorted(names), (seed, criterion)


class TestAccounting:
    def test_query_statistics_accumulate(self, directory):
        before = directory.query_count
        kth(directory, RankCriterion.CHEAPEST, 1)
        kth(directory, RankCriterion.FASTEST, 3)
        assert directory.query_count == before + 2
        assert directory.assumed_query_messages >= 2 * theoretical_query_messages(8)
        assert directory.measured_overlay_hops > 0

    def test_assumed_cost_follows_the_live_membership(self):
        """Each probe is charged ``ceil(log2 n)`` for the membership at the
        time of the probe, not at the time the session opened."""
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
