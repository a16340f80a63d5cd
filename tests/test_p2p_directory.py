"""Tests for the federation directory (subscribe / quote / unsubscribe / query).

Rank queries go through :meth:`FederationDirectory.open_session`; a fresh
session's ``kth(rank)`` is the one-off probe.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster.specs import ResourceSpec
from repro.p2p import FederationDirectory, RankCriterion, theoretical_query_messages
from repro.p2p.overlay import OverlayError
from repro.workload.archive import ARCHIVE_RESOURCES, build_federation_specs


def kth(directory, criterion, rank, min_processors=1):
    """One probe of a fresh session: the ``rank``-th match, or ``None``."""
    return directory.open_session(criterion, min_processors).kth(rank)


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


class TestAccounting:
    def test_query_statistics_accumulate(self, directory):
        before = directory.query_count
        kth(directory, RankCriterion.CHEAPEST, 1)
        kth(directory, RankCriterion.FASTEST, 3)
        assert directory.query_count == before + 2
        assert directory.assumed_query_messages >= 2 * theoretical_query_messages(8)
        assert directory.measured_overlay_hops > 0

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
