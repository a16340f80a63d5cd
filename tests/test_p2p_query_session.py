"""Property tests for the resumable directory query sessions.

The hot-path optimisation (version-stamped cursor sessions) must be
*observationally invisible*: every probe answers exactly what the naive
sorted-scan oracle — an independent re-sort of the live quotes — says,
across arbitrary interleavings of subscribe / unsubscribe / update_quote /
probe.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import ResourceSpec
from repro.p2p import FederationDirectory, RankCriterion
from repro.p2p.overlay import OverlayError, SkipListIndex


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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(1))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(3))
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


class TestSessionIterationSurvivesRequotes:
    """``next()`` under the other churn a negotiation sees: re-quotes, a
    faster newcomer, and newcomers the processor filter rules out.  A
    re-quoted member keeps its name, so a session never serves it twice, and
    the filter reads each quote as it stands at the probe."""

    def _directory(self, procs=(4, 4, 4, 4)):
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
        for i in range(4):
            directory.subscribe(f"GFA-{i}", make_spec(f"GFA-{i}", 1.0 + i, 500.0, 4))
        session = directory.open_session(RankCriterion.CHEAPEST)
        assert session.kth(1).gfa_name == "GFA-0"
        directory.update_quote("GFA-3", make_spec("GFA-3", 0.01, 500.0, 4))
        assert session.kth(1).gfa_name == "GFA-3"

    def test_version_counts_membership_changes(self):
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.report_load("A", 120.0)
        directory.update_quote("A", make_spec("A", 2.0, 500.0, 4))
        assert directory.load_of("A") == pytest.approx(120.0)
        assert directory.load_updates == 1  # a re-quote is not a new report

    def test_unsubscribe_still_clears_load_report(self):
        directory = FederationDirectory(rng=np.random.default_rng(0))
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        directory.report_load("A", 60.0)
        directory.unsubscribe("A")
        directory.subscribe("A", make_spec("A", 1.0, 500.0, 4))
        assert directory.load_of("A") == 0.0


class TestSkipListCursor:
    def test_cursor_walks_in_order_and_counts_hops(self):
        index = SkipListIndex(rng=np.random.default_rng(0))
        for i in range(32):
            index.insert(i, f"v{i}")
        cursor = index.cursor()
        seen = []
        while True:
            item = cursor.advance()
            if item is None:
                break
            seen.append(item[0])
        assert seen == list(range(32))
        assert cursor.hops == 32  # one level-0 link per element from the head

    def test_cursor_seek_matches_kth(self):
        index = SkipListIndex(rng=np.random.default_rng(0))
        for i in range(64):
            index.insert(i, i)
        for start in (1, 2, 17, 40, 64):
            cursor = index.cursor(start_rank=start)
            key, _value = cursor.advance()
            assert key == index.kth(start)[0]
        assert index.cursor(start_rank=65).advance() is None

    def test_cursor_invalidated_by_mutation(self):
        index = SkipListIndex(rng=np.random.default_rng(0))
        for i in range(8):
            index.insert(i, i)
        cursor = index.cursor()
        cursor.advance()
        index.remove(4)
        assert not cursor.valid
        with pytest.raises(OverlayError):
            cursor.advance()

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=80, unique=True),
        start=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_cursor_equals_sorted_tail(self, keys, start):
        index = SkipListIndex(rng=np.random.default_rng(2))
        for key in keys:
            index.insert(key, key)
        cursor = index.cursor(start_rank=start)
        walked = []
        while True:
            item = cursor.advance()
            if item is None:
                break
            walked.append(item[0])
        assert walked == sorted(keys)[start - 1 :]

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=500), min_size=2, max_size=60, unique=True
        ),
        advances=st.integers(min_value=0, max_value=60),
        delete_pick=st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=80, deadline=None)
    def test_deletion_invalidates_open_cursor_and_reseek_is_exact(
        self, keys, advances, delete_pick
    ):
        """Node *deletion* during an open cursor: the mutation stamp must
        invalidate the cursor immediately (its node references may now point
        into the removed chain), every further ``advance`` must raise, and a
        re-seek from the cursor's last confirmed rank must walk exactly the
        sorted remainder — the oracle a resumable directory sweep relies on."""
        index = SkipListIndex(rng=np.random.default_rng(4))
        for key in keys:
            index.insert(key, key)
        cursor = index.cursor()
        walked = []
        for _ in range(min(advances, len(keys))):
            item = cursor.advance()
            if item is None:
                break
            walked.append(item[0])
        victim = sorted(keys)[delete_pick % len(keys)]
        index.remove(victim)
        assert not cursor.valid
        with pytest.raises(OverlayError):
            cursor.advance()
        with pytest.raises(OverlayError):
            cursor.advance()  # stays dead: no accidental resurrection
        # Re-seek: continue after the last element the dead cursor confirmed,
        # skipping the victim if it was not consumed yet.
        remaining = [k for k in sorted(keys) if k != victim and (not walked or k > walked[-1])]
        fresh = index.cursor(start_rank=1)
        replay = []
        while True:
            item = fresh.advance()
            if item is None:
                break
            replay.append(item[0])
        assert replay == [k for k in sorted(keys) if k != victim]
        tail = [k for k in replay if not walked or k > walked[-1]]
        assert tail == remaining


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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
        directory = FederationDirectory(rng=np.random.default_rng(0))
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
