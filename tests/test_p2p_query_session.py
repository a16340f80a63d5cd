"""Property tests for the resumable directory query sessions.

The hot-path optimisation (version-stamped resumable sessions) must be
*observationally invisible*: every probe answers exactly what the naive
sorted-scan oracle — an independent re-sort of the live quotes — says,
across arbitrary interleavings of subscribe / unsubscribe / update_quote /
probe.
"""

from __future__ import annotations

import contextlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import ResourceSpec
from repro.net.transport import Transport
from repro.p2p import FederationDirectory, OverlayError, RankCriterion
from repro.sim import Simulator
from repro.workload.archive import build_federation_specs, replicate_resources


def make_spec(name: str, price: float, mips: float, procs: int) -> ResourceSpec:
    return ResourceSpec(
        name=name, num_processors=procs, mips=mips, bandwidth_gbps=1.0, price=price
    )


def oracle_ranking(directory, criterion, min_processors):
    """Naive sorted-scan oracle: re-sort the live quotes from scratch."""
    quotes = [
        q for q in directory.quotes() if q.spec.num_processors >= min_processors
    ]
    if criterion is RankCriterion.CHEAPEST:
        quotes.sort(key=lambda q: (q.spec.price, q.gfa_name))
    else:
        quotes.sort(key=lambda q: (-q.spec.mips, q.gfa_name))
    return quotes


#: One directory operation: (kind, gfa index, price, mips, processors).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "unsubscribe", "update", "probe"]),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.5, max_value=9.5),
        st.floats(min_value=100.0, max_value=1000.0),
        st.sampled_from([1, 2, 64, 512]),
    ),
    min_size=1,
    max_size=60,
)


class TestSessionMatchesOracle:
    @given(ops=_ops, criterion=st.sampled_from(list(RankCriterion)))
    @settings(max_examples=120, deadline=None)
    def test_random_membership_churn(self, ops, criterion):
        """Live sessions match the oracle across random
        subscribe/unsubscribe/update sequences."""
        directory = FederationDirectory()
        # One long-lived session per processor filter: deliberately kept open
        # across membership churn to exercise the version-stamp restart.
        open_sessions = {}
        for kind, idx, price, mips, procs in ops:
            name = f"GFA-{idx}"
            price, mips = round(price, 3), round(mips, 1)
            if kind == "subscribe" and name not in {q.gfa_name for q in directory.quotes()}:
                directory.subscribe(name, make_spec(name, price, mips, procs))
            elif kind == "unsubscribe" and name in {q.gfa_name for q in directory.quotes()}:
                directory.unsubscribe(name)
            elif kind == "update" and name in {q.gfa_name for q in directory.quotes()}:
                directory.update_quote(name, make_spec(name, price, mips, procs))
            elif kind == "probe":
                min_processors = procs
                expected = oracle_ranking(directory, criterion, min_processors)
                session = open_sessions.setdefault(
                    min_processors, directory.open_session(criterion, min_processors)
                )
                for rank in range(1, len(expected) + 2):
                    want = expected[rank - 1].gfa_name if rank <= len(expected) else None
                    got_session = session.kth(rank)
                    assert (got_session.gfa_name if got_session else None) == want

    @given(
        prefix=st.integers(min_value=1, max_value=6),
        criterion=st.sampled_from(list(RankCriterion)),
    )
    @settings(max_examples=40, deadline=None)
    def test_session_survives_mid_iteration_churn(self, prefix, criterion):
        """A session probed, invalidated by churn, then probed again answers
        like a fresh query (the version stamp forces a transparent restart)."""
        directory = FederationDirectory()
        for i in range(8):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 900.0 - 100 * i, 2**i))
        session = directory.open_session(criterion)
        for rank in range(1, prefix + 1):
            session.kth(rank)
        directory.unsubscribe("GFA-3")
        directory.subscribe("GFA-9", make_spec("GFA-9", 0.1, 2000.0, 4))
        expected = oracle_ranking(directory, criterion, 1)
        for rank in range(1, len(expected) + 2):
            want = expected[rank - 1].gfa_name if rank <= len(expected) else None
            got = session.kth(rank)
            assert (got.gfa_name if got else None) == want


class TestSessionIterationSurvivesUnsubscribe:
    """Sequential ``next()`` iteration across membership churn.

    ``kth(rank)`` is positional and always answers like a fresh query (the
    oracle tests above).  ``next()`` is the negotiation iterator: it must
    serve each live candidate exactly once.  Before the fix, an unsubscribe
    mid-iteration (how a dead member's stale quote is invalidated) shifted
    the ranks under the session's positional counter, so the iteration either
    *skipped* a live candidate it had never probed or *re-served* one it had
    already consumed — both observable as wrong negotiation sequences under
    churn.  These tests pin the corrected semantics and fail on the old code.
    """

    def _directory(self):
        directory = FederationDirectory()
        for i, price in enumerate([1.0, 2.0, 3.0, 4.0]):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", price, 500.0, 4))
        return directory

    def test_unsubscribe_of_served_member_does_not_skip_unprobed_one(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        # GFA-0 turns out to be dead: its quote is invalidated.
        directory.unsubscribe("GFA-0")
        # The next candidate must be GFA-1 — the cheapest never probed — not
        # GFA-2 (which positional continuation at rank 2 would yield).
        assert session.next().gfa_name == "GFA-1"
        assert session.next().gfa_name == "GFA-2"
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None

    def test_mid_iteration_unsubscribe_of_later_member(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        assert session.next().gfa_name == "GFA-1"
        directory.unsubscribe("GFA-1")  # an already-consumed quote departs
        assert session.next().gfa_name == "GFA-2"
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None

    def test_new_cheapest_subscriber_is_served_not_a_repeat(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        directory.subscribe("GFA-9", make_spec("GFA-9", 0.5, 500.0, 4))
        # The newcomer now ranks first and was never probed: it must be
        # served next; positional continuation would re-serve GFA-0.
        assert session.next().gfa_name == "GFA-9"
        assert session.next().gfa_name == "GFA-1"

    def test_departure_then_cheaper_newcomer_in_one_session(self):
        """Two membership bumps in one session: each restart serves the
        cheapest never-probed member, and nothing already served repeats."""
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
        # A membership bump must not re-serve anything already consumed...
        directory.unsubscribe("GFA-2")
        assert session.next() is None
        # ...but a genuinely new member is still served.
        directory.subscribe("GFA-9", make_spec("GFA-9", 9.0, 500.0, 4))
        assert session.next().gfa_name == "GFA-9"

    @given(ops=_ops, criterion=st.sampled_from(list(RankCriterion)))
    @settings(max_examples=80, deadline=None)
    def test_iteration_serves_each_live_candidate_at_most_once(self, ops, criterion):
        """Under arbitrary churn, ``next()`` never repeats a name and every
        quote it serves was live (present in the oracle) at serving time."""
        directory = FederationDirectory()
        session = directory.open_session(criterion)
        served = []
        for kind, idx, price, mips, procs in ops:
            name = f"GFA-{idx}"
            price, mips = round(price, 3), round(mips, 1)
            members = {q.gfa_name for q in directory.quotes()}
            if kind == "subscribe" and name not in members:
                directory.subscribe(name, make_spec(name, price, mips, procs))
            elif kind == "unsubscribe" and name in members:
                directory.unsubscribe(name)
            elif kind == "update" and name in members:
                directory.update_quote(name, make_spec(name, price, mips, procs))
            elif kind == "probe":
                quote = session.next()
                if quote is not None:
                    live = {q.gfa_name for q in directory.quotes()}
                    assert quote.gfa_name in live
                    served.append(quote.gfa_name)
        assert len(served) == len(set(served))


class TestIterationMatchesRepeatedNext:
    """Iterating a session walks the ranking in place while the directory's
    version holds.  Its reference is :meth:`next`, called once per yield on
    a twin directory that sees the same churn: the same quotes must come
    out, and the same probes be booked (query count, assumed messages and
    ``query`` control messages, the final miss included), with direct
    ``kth`` probes and churn between the yields."""

    @staticmethod
    def _twin():
        directory = FederationDirectory()
        transport = Transport(Simulator())
        directory.attach_transport(transport)
        return directory, transport

    @staticmethod
    def _booked(directory, transport):
        return (
            directory.query_count,
            directory.assumed_query_messages,
            transport.stats.control_by_kind.get("query", 0),
        )

    @given(
        members=st.lists(
            st.tuples(
                st.sampled_from([1.0, 2.0, 3.0]),
                st.sampled_from([500.0, 900.0]),
                st.sampled_from([1, 2, 64, 512]),
            ),
            min_size=0,
            max_size=8,
        ),
        steps=st.lists(
            st.one_of(
                st.just(("yield",)),
                st.tuples(st.just("kth"), st.integers(min_value=1, max_value=6)),
                st.tuples(
                    st.sampled_from(["subscribe", "unsubscribe", "update", "batch"]),
                    st.integers(min_value=0, max_value=9),
                    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                    st.sampled_from([500.0, 900.0]),
                    st.sampled_from([1, 2, 64, 512]),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        criterion=st.sampled_from(list(RankCriterion)),
        min_processors=st.sampled_from([1, 2, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_iteration_books_what_repeated_next_books(
        self, members, steps, criterion, min_processors
    ):
        walked, walked_transport = self._twin()
        stepped, stepped_transport = self._twin()
        for directory in (walked, stepped):
            for i, (price, mips, procs) in enumerate(members):
                directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", price, mips, procs))
        session = walked.open_session(criterion, min_processors)
        walk = iter(session)
        reference = stepped.open_session(criterion, min_processors)
        for step in steps:
            if step[0] == "kth":
                # A direct probe moves the sweep ahead of (or back under)
                # the iteration's position.
                got, want = session.kth(step[1]), reference.kth(step[1])
                assert (got and got.gfa_name) == (want and want.gfa_name)
                continue
            if step[0] == "yield":
                got = next(walk, None)
                want = reference.next()
                assert (got and got.gfa_name) == (want and want.gfa_name)
                assert got is None or got is walked.quote_of(got.gfa_name)
                assert self._booked(walked, walked_transport) == self._booked(
                    stepped, stepped_transport
                )
                if want is None:
                    return  # a finished iteration serves nothing more
                continue
            kind, idx, price, mips, procs = step
            name = f"GFA-{idx}"
            spec = make_spec(name, price, mips, procs)
            for directory in (walked, stepped):
                subscribed = directory.is_subscribed(name)
                if kind == "subscribe" and not subscribed:
                    directory.subscribe(name, spec)
                elif kind == "unsubscribe" and subscribed:
                    directory.unsubscribe(name)
                elif kind == "update" and subscribed:
                    directory.update_quote(name, spec)
                elif kind == "batch":
                    with directory.batch_updates():
                        for other in directory.member_names()[:2]:
                            directory.update_quote(other, make_spec(other, price, mips, procs))
        assert walked_transport.stats == stepped_transport.stats


class TestSessionIterationSurvivesRequotes:
    """``next()`` under the other churn a negotiation sees: re-quotes, a
    faster newcomer, and newcomers the processor filter rules out.  A
    re-quoted member keeps its name, so a session never serves it twice, and
    the filter reads each quote as it stands at the probe."""

    def _directory(self, procs=(4, 4, 4, 4)):
        directory = FederationDirectory()
        for i, (price, cpus) in enumerate(zip([1.0, 2.0, 3.0, 4.0], procs)):
            directory.subscribe(
                f"GFA-{i}", make_spec(f"GFA-{i}", price, 100.0 * (i + 1), cpus)
            )
        return directory

    def test_requote_of_served_member_is_not_served_again(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        assert session.next().gfa_name == "GFA-1"
        # GFA-1 re-quotes to rank first; it was served, so it is skipped.
        directory.update_quote("GFA-1", make_spec("GFA-1", 0.5, 200.0, 4))
        assert session.next().gfa_name == "GFA-2"
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None

    def test_new_fastest_subscriber_is_served_not_a_repeat(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.FASTEST)
        assert session.next().gfa_name == "GFA-3"
        directory.subscribe("GFA-9", make_spec("GFA-9", 9.0, 900.0, 4))
        assert session.next().gfa_name == "GFA-9"
        assert session.next().gfa_name == "GFA-2"

    def test_filtered_session_skips_a_small_newcomer(self):
        directory = self._directory(procs=(64, 4, 64, 64))
        session = directory.open_session(RankCriterion.CHEAPEST, min_processors=64)
        assert session.next().gfa_name == "GFA-0"
        directory.subscribe("GFA-8", make_spec("GFA-8", 0.1, 500.0, 4))
        directory.subscribe("GFA-9", make_spec("GFA-9", 0.2, 500.0, 64))
        assert session.next().gfa_name == "GFA-9"
        assert session.next().gfa_name == "GFA-2"  # GFA-1 is too small
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None

    def test_requote_below_the_filter_drops_an_unserved_member(self):
        directory = self._directory(procs=(64, 64, 64, 64))
        session = directory.open_session(RankCriterion.CHEAPEST, min_processors=64)
        assert session.next().gfa_name == "GFA-0"
        directory.update_quote("GFA-1", make_spec("GFA-1", 2.0, 200.0, 4))
        assert session.next().gfa_name == "GFA-2"
        assert session.next().gfa_name == "GFA-3"
        assert session.next() is None


class TestVersionStamp:
    def test_open_session_sees_quote_update(self):
        directory = FederationDirectory()
        for i in range(4):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.kth(1).gfa_name == "GFA-0"
        directory.update_quote("GFA-3", make_spec("GFA-3", 0.01, 500.0, 4))
        assert session.kth(1).gfa_name == "GFA-3"

    def test_version_counts_membership_changes(self):
        directory = FederationDirectory()
        v0 = directory.version
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        assert directory.version == v0 + 1
        directory.update_quote("A", make_spec("A", 2.0, 500.0, 4))
        # A re-quote is one logical change: its internal unsubscribe +
        # subscribe pair coalesces into a single version bump.
        assert directory.version == v0 + 2
        directory.unsubscribe("A")
        assert directory.version == v0 + 3


class TestUpdateQuoteLoadReport:
    def test_update_quote_preserves_load_report(self):
        """Re-quoting a GFA (dynamic pricing) must not drop its load report —
        the coordination + dynamic-pricing combination depends on it."""
        directory = FederationDirectory()
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.report_load("A", 120.0)
        directory.update_quote("A", make_spec("A", 2.0, 500.0, 4))
        assert directory.load_of("A") == pytest.approx(120.0)
        assert directory.load_updates == 1  # a re-quote is not a new report

    def test_unsubscribe_still_clears_load_report(self):
        directory = FederationDirectory()
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.report_load("A", 60.0)
        directory.unsubscribe("A")
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        assert directory.load_of("A") == 0.0


class TestRankings:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["subscribe", "unsubscribe", "update"]),
                st.integers(min_value=0, max_value=7),
                st.sampled_from([1.0, 2.0]),
                st.sampled_from([500.0, 900.0]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rankings_hold_the_live_quotes_in_key_order(self, ops):
        """The sorted lists the sessions walk hold each live quote once, in
        ``(price, name)`` and ``(-mips, name)`` order, after every subscribe,
        unsubscribe and re-quote.  Two prices and two speeds make most keys
        tie on their first field, so each removal has to find its pair
        among same-price neighbours."""
        directory = FederationDirectory()
        keys = {
            RankCriterion.CHEAPEST: lambda q: (q.price, q.gfa_name),
            RankCriterion.FASTEST: lambda q: (-q.mips, q.gfa_name),
        }
        for kind, idx, price, mips in ops:
            name = f"GFA-{idx}"
            spec = make_spec(name, price, mips, 4)
            if kind == "subscribe" and not directory.is_subscribed(name):
                directory.subscribe(name, spec)
            elif kind == "unsubscribe" and directory.is_subscribed(name):
                directory.unsubscribe(name)
            elif kind == "update" and directory.is_subscribed(name):
                directory.update_quote(name, spec)
            for criterion, key in keys.items():
                ranking = directory._ranking_for(criterion)
                expected = sorted((key(q), q.gfa_name) for q in directory.quotes())
                assert [(k, q.gfa_name) for k, q in ranking] == expected
                assert all(q is directory.quote_of(q.gfa_name) for _k, q in ranking)


class TestPositionalSweep:
    """A session walks the directory's ranking list by integer position."""

    def _directory(self, n, procs=lambda i: 4):
        directory = FederationDirectory()
        for i in range(n):
            name = f"GFA-{i:02d}"
            directory.subscribe(name, make_spec(name, 1.0 + i, 100.0 * (i + 1), procs(i)))
        return directory

    def test_session_walks_the_ranking_in_order(self):
        directory = self._directory(32)
        cheapest = [q.gfa_name for q in directory.open_session(RankCriterion.CHEAPEST)]
        assert cheapest == [f"GFA-{i:02d}" for i in range(32)]
        # One query per served quote plus the probe that finds none left.
        assert directory.query_count == 33
        fastest = [q.gfa_name for q in directory.open_session(RankCriterion.FASTEST)]
        assert fastest == cheapest[::-1]

    def test_resumed_probes_match_fresh_sessions(self):
        """Probing ranks in increasing order resumes the sweep where the last
        probe stopped; each answer equals a fresh session's, with and without
        a processor filter that skips every other list entry."""
        directory = self._directory(64, procs=lambda i: 8 if i % 2 else 2)
        for min_processors, size in ((1, 64), (4, 32)):
            resumed = directory.open_session(RankCriterion.CHEAPEST, min_processors)
            for rank in (1, 2, 17, size - 1, size):
                fresh = directory.open_session(RankCriterion.CHEAPEST, min_processors)
                assert resumed.kth(rank) is fresh.kth(rank)
            assert resumed.kth(size + 1) is None
        assert directory.open_session(RankCriterion.CHEAPEST, 4).kth(1).gfa_name == "GFA-01"

    def test_insert_ahead_of_the_sweep_restarts_it(self):
        """A subscribe that lands before the sweep's position shifts every
        later list index by one; the version stamp restarts the sweep, so the
        session neither repeats nor skips a rank."""
        directory = self._directory(8)
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.kth(3).gfa_name == "GFA-02"
        directory.subscribe("GFA-new", make_spec("GFA-new", 0.5, 50.0, 4))
        assert [session.kth(rank).gfa_name for rank in (1, 3, 4)] == [
            "GFA-new", "GFA-01", "GFA-02"
        ]
        directory.unsubscribe("GFA-new")
        directory.unsubscribe("GFA-00")
        assert session.kth(3).gfa_name == "GFA-03"

    @given(
        prices=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=80, unique=True),
        start=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_session_equals_sorted_tail(self, prices, start):
        directory = FederationDirectory()
        for price in prices:
            directory.subscribe(f"p{price}", make_spec(f"p{price}", float(price), 500.0, 4))
        session = directory.open_session(RankCriterion.CHEAPEST)
        walked = []
        rank = start
        while (quote := session.kth(rank)) is not None:
            walked.append(int(quote.price))
            rank += 1
        assert walked == sorted(prices)[start - 1 :]

    @given(
        prices=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=60, unique=True),
        served=st.integers(min_value=0, max_value=60),
        victim=st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=80, deadline=None)
    def test_deletion_mid_walk_serves_exactly_the_unserved_remainder(
        self, prices, served, victim
    ):
        """Unsubscribing a member while a session is part-way through its walk
        deletes a list entry under the session's position; the rest of the
        walk serves every remaining member it has not served, in order."""
        directory = FederationDirectory()
        for price in prices:
            directory.subscribe(f"p{price}", make_spec(f"p{price}", float(price), 500.0, 4))
        session = directory.open_session(RankCriterion.CHEAPEST)
        walked = [session.next().gfa_name for _ in range(min(served, len(prices)))]
        gone = f"p{sorted(prices)[victim % len(prices)]}"
        directory.unsubscribe(gone)
        rest = [quote.gfa_name for quote in session]
        assert rest == [
            f"p{price}"
            for price in sorted(prices)
            if f"p{price}" != gone and f"p{price}" not in walked
        ]


class TestPickling:
    def test_large_directory_round_trips_with_its_open_sessions(self):
        """Snapshots pickle the live directory together with the sessions
        that hold its rankings: at 4,096 members (replicas tie on price and
        speed, so names break the ties) the copy has the same rankings,
        answers fresh and resumed sessions like the original, and its
        sessions still follow its own membership changes."""
        directory = FederationDirectory()
        for spec in build_federation_specs(replicate_resources(4096)):
            directory.subscribe(spec.name, spec)
        sessions = {}
        for criterion in RankCriterion:
            sessions[criterion] = directory.open_session(criterion, min_processors=512)
            sessions[criterion].kth(100)
        clone, clone_sessions = pickle.loads(pickle.dumps((directory, sessions)))
        for criterion in RankCriterion:
            assert clone._ranking_for(criterion) == directory._ranking_for(criterion)
            for min_processors in (1, 1024):
                expected = [q.gfa_name for q in oracle_ranking(directory, criterion, min_processors)]
                for copy in (directory, clone):
                    session = copy.open_session(criterion, min_processors)
                    assert [q.gfa_name for q in session] == expected
            resumed = [
                [s.kth(rank).gfa_name for rank in (100, 101, 1500)]
                for s in (sessions[criterion], clone_sessions[criterion])
            ]
            assert resumed[0] == resumed[1]
        leader = clone_sessions[RankCriterion.CHEAPEST].kth(1).gfa_name
        clone.unsubscribe(leader)
        assert clone_sessions[RankCriterion.CHEAPEST].kth(1).gfa_name != leader
        assert sessions[RankCriterion.CHEAPEST].kth(1).gfa_name == leader


class TestSweepDeterminismOnSessionPath:
    def test_serial_equals_parallel_with_sessions(self):
        """Serial and parallel sweeps fingerprint identically on the session
        query path."""
        from repro.scenario import Scenario, SweepRunner, result_fingerprint
        from repro.workload.archive import ARCHIVE_RESOURCES

        small = ARCHIVE_RESOURCES[:4]
        scenarios = SweepRunner().sweep(Scenario(thin=12, seed=5), profiles=(0, 100))
        serial = SweepRunner().run(scenarios, resources=small)
        parallel = SweepRunner().run(scenarios, resources=small, workers=2)
        for left, right in zip(serial.points, parallel.points):
            assert result_fingerprint(left.result) == result_fingerprint(right.result)


class TestBatchUpdates:
    """batch_updates(): one version bump per quote-refresh storm."""

    def _directory(self, n=6):
        directory = FederationDirectory()
        for i in range(n):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        return directory

    def test_storm_costs_one_version_bump(self):
        directory = self._directory()
        v0 = directory.version
        with directory.batch_updates():
            for i in range(6):
                directory.update_quote(
                    f"GFA-{i}", make_spec(f"GFA-{i}", 10.0 - i, 500.0, 4)
                )
        assert directory.version == v0 + 1

    def test_empty_batch_bumps_nothing(self):
        directory = self._directory()
        v0 = directory.version
        with directory.batch_updates():
            pass
        assert directory.version == v0

    def test_batches_nest_with_one_outermost_bump(self):
        directory = self._directory()
        v0 = directory.version
        with directory.batch_updates():
            directory.update_quote("GFA-0", make_spec("GFA-0", 9.0, 500.0, 4))
            with directory.batch_updates():
                directory.update_quote("GFA-1", make_spec("GFA-1", 8.0, 500.0, 4))
            assert directory.version == v0  # still deferred
        assert directory.version == v0 + 1

    def test_queries_inside_batch_are_rejected(self):
        directory = self._directory()
        with directory.batch_updates():
            directory.update_quote("GFA-0", make_spec("GFA-0", 9.0, 500.0, 4))
            with pytest.raises(OverlayError, match="batch_updates"):
                directory.open_session(RankCriterion.CHEAPEST).kth(1)

    def test_post_batch_queries_see_the_new_quotes(self):
        directory = self._directory()
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.next().gfa_name == "GFA-0"
        with directory.batch_updates():
            directory.update_quote("GFA-5", make_spec("GFA-5", 0.01, 500.0, 4))
        # The storm bumped the version once; the session resweeps and the
        # best-ranked unseen candidate is the re-quoted cluster.
        assert session.next().gfa_name == "GFA-5"
        assert directory.open_session(RankCriterion.CHEAPEST).kth(1).gfa_name == "GFA-5"

    @given(blocks=st.lists(st.tuples(st.booleans(), _ops), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_version_counts_changes_and_non_empty_batches(self, blocks):
        """Outside a batch every membership change bumps the version once;
        a batch bumps it once if anything inside it changed, else not at all."""
        directory = FederationDirectory()
        expected = 0
        for batched, ops in blocks:
            changed = 0
            with directory.batch_updates() if batched else contextlib.nullcontext():
                for kind, idx, price, mips, procs in ops:
                    name = f"GFA-{idx}"
                    spec = make_spec(name, round(price, 3), round(mips, 1), procs)
                    if kind == "subscribe" and not directory.is_subscribed(name):
                        directory.subscribe(name, spec)
                    elif kind == "unsubscribe" and directory.is_subscribed(name):
                        directory.unsubscribe(name)
                    elif kind == "update" and directory.is_subscribed(name):
                        directory.update_quote(name, spec)
                    else:
                        continue
                    changed += 1
            expected += min(changed, 1) if batched else changed
            assert directory.version == expected

    def test_batch_exception_still_closes_and_bumps(self):
        directory = self._directory()
        v0 = directory.version
        with pytest.raises(RuntimeError):
            with directory.batch_updates():
                directory.update_quote("GFA-0", make_spec("GFA-0", 9.0, 500.0, 4))
                raise RuntimeError("boom")
        assert directory.version == v0 + 1
        assert directory.open_session(RankCriterion.CHEAPEST).kth(1) is not None
