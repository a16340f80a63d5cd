"""Tests for inter-GFA message accounting."""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import GFAMessageCounters, MessageLog, MessageType
from repro.workload.job import Job


def make_job(origin="A", **kw):
    defaults = dict(origin=origin, user_id=0, submit_time=0.0, num_processors=1, length_mi=1e3)
    defaults.update(kw)
    return Job(**defaults)


class TestRecording:
    def test_negotiate_reply_pair_classification(self):
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job)
        log.record(MessageType.REPLY, "B", "A", job)
        assert log.total_messages == 2
        # Both messages are local for the origin A and remote for B.
        assert log.local_messages("A") == 2
        assert log.remote_messages("A") == 0
        assert log.local_messages("B") == 0
        assert log.remote_messages("B") == 2
        assert job.messages == 2

    def test_per_type_counts(self):
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job)
        log.record(MessageType.REPLY, "B", "A", job)
        log.record(MessageType.JOB_SUBMISSION, "A", "B", job)
        log.record(MessageType.JOB_COMPLETION, "B", "A", job)
        for mtype in MessageType:
            assert log.count_by_type(mtype) == 1

    def test_same_endpoint_rejected(self):
        log = MessageLog()
        with pytest.raises(ValueError):
            log.record(MessageType.NEGOTIATE, "A", "A", make_job(origin="A"))

    def test_endpoints_must_include_origin(self):
        log = MessageLog()
        job = make_job(origin="C")
        with pytest.raises(ValueError):
            log.record(MessageType.NEGOTIATE, "A", "B", job)

    def test_register_gfa_appears_with_zero_counters(self):
        log = MessageLog()
        log.register_gfa("quiet")
        assert "quiet" in log.gfa_names()
        assert log.counters("quiet").total == 0

    def test_unknown_gfa_counters_are_zero(self):
        log = MessageLog()
        assert log.counters("nobody").total == 0
        assert "nobody" not in log.gfa_names()

    def test_register_after_traffic_keeps_counts(self):
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job)
        log.register_gfa("B")
        log.register_gfa("A")
        assert log.gfa_names() == ["A", "B"]
        assert log.counters("A") == GFAMessageCounters(local=1, remote=0)
        assert log.counters("B") == GFAMessageCounters(local=0, remote=1)

    def test_type_slots_are_dense_and_distinct(self):
        """The per-type list is indexed by ``MessageType.index``: one slot
        per member, none shared, none past the end of the list."""
        assert sorted(mtype.index for mtype in MessageType) == list(range(len(MessageType)))
        log = MessageLog()
        job = make_job(origin="A")
        for count, mtype in enumerate(MessageType, start=1):
            for _ in range(count):
                log.record(mtype, "A", "B", job)
        for count, mtype in enumerate(MessageType, start=1):
            assert log.count_by_type(mtype) == count
        assert log.total_messages == job.messages == 10


class TestMerge:
    def test_merge_matches_gfas_by_name_not_slot(self):
        """Two shard ledgers that met their GFAs in different orders merge by
        name; a GFA only the other ledger registered arrives with zeros."""
        left, right = MessageLog(), MessageLog()
        job_a, job_b = make_job(origin="A"), make_job(origin="B")
        left.record(MessageType.NEGOTIATE, "A", "B", job_a)  # slots: A, B
        right.register_gfa("quiet")  # slots: quiet, B, C, A
        right.record(MessageType.JOB_COMPLETION, "C", "B", job_b)
        right.record(MessageType.REPLY, "B", "A", job_a)
        left.merge_from(right)
        assert left.gfa_names() == ["A", "B", "C", "quiet"]
        assert left.counters("A") == GFAMessageCounters(local=2, remote=0)
        assert left.counters("B") == GFAMessageCounters(local=1, remote=2)
        assert left.counters("C") == GFAMessageCounters(local=0, remote=1)
        assert left.counters("quiet") == GFAMessageCounters()
        assert [left.count_by_type(t) for t in MessageType] == [1, 1, 0, 1]
        assert left.total_messages == 3
        # The merged-in ledger is left as it was.
        assert right.total_messages == 2
        assert right.counters("A") == GFAMessageCounters(local=1, remote=0)


# --------------------------------------------------------------------------- #
# Oracle: the dict-based ledger the slot-list MessageLog replaced
# --------------------------------------------------------------------------- #
class _ReferenceCounters:
    def __init__(self) -> None:
        self.local = 0
        self.remote = 0


class ReferenceMessageLog:
    """The previous ledger, cut to the counts it shares with the new one:
    per-GFA counter objects and per-job / per-type dicts keyed by job id and
    ``MessageType``.  It leaves ``Job.messages`` alone, so the ledger under
    test is the only writer of that field."""

    def __init__(self) -> None:
        self._per_gfa: Dict[str, _ReferenceCounters] = {}
        self._per_job: Dict[int, int] = {}
        self._by_type = {t: 0 for t in MessageType}
        self.total_messages = 0

    def record(self, mtype, sender, receiver, job) -> None:
        if sender == receiver:
            raise ValueError("inter-GFA messages require two distinct endpoints")
        origin = job.origin
        if origin == sender:
            remote = receiver
        elif origin == receiver:
            remote = sender
        else:
            raise ValueError("message endpoints do not include the job's origin GFA")
        self._counters(origin).local += 1
        self._counters(remote).remote += 1
        self._by_type[mtype] += 1
        self._per_job[job.job_id] = self._per_job.get(job.job_id, 0) + 1
        self.total_messages += 1

    def _counters(self, gfa_name: str) -> _ReferenceCounters:
        if gfa_name not in self._per_gfa:
            self._per_gfa[gfa_name] = _ReferenceCounters()
        return self._per_gfa[gfa_name]

    def register_gfa(self, gfa_name: str) -> None:
        self._counters(gfa_name)

    def counters(self, gfa_name: str) -> _ReferenceCounters:
        return self._per_gfa.get(gfa_name, _ReferenceCounters())

    def gfa_names(self):
        return sorted(self._per_gfa)

    def count_by_type(self, mtype: MessageType) -> int:
        return self._by_type[mtype]

    def messages_for_job(self, job_id: int) -> int:
        return self._per_job.get(job_id, 0)


def _apply(ledger, op, jobs) -> str:
    """Apply one stream operation; return ``"ok"`` or the error's type name."""
    kind = op[0]
    if kind == "register":
        ledger.register_gfa(op[1])
        return "ok"
    _kind, job_index, sender, receiver, mtype = op
    try:
        ledger.record(mtype, sender, receiver, jobs[job_index])
    except ValueError:
        return "ValueError"
    return "ok"


def _queries(ledger, names):
    """Every kept query of a ledger, as one comparable value."""
    per_gfa = {
        name: (
            ledger.counters(name).local,
            ledger.counters(name).remote,
            ledger.counters(name).total,
            ledger.local_messages(name),
            ledger.remote_messages(name),
        )
        for name in [*names, "nobody"]
    }
    by_type = {mtype: ledger.count_by_type(mtype) for mtype in MessageType}
    return ledger.gfa_names(), per_gfa, by_type, ledger.total_messages


@st.composite
def message_streams(draw):
    """2-8 GFAs, a handful of jobs, and a stream interleaving registrations
    with traffic in both directions of all four types, plus strays whose
    endpoints repeat or miss the job's origin."""
    names = [f"GFA-{i}" for i in range(draw(st.integers(2, 8)))]
    origins = draw(st.lists(st.sampled_from(names), min_size=1, max_size=6))
    job_index = st.integers(0, len(origins) - 1)
    mtypes = st.sampled_from(list(MessageType))

    @st.composite
    def exchange(draw):
        index = draw(job_index)
        peer = draw(st.sampled_from(names))
        outbound = draw(st.booleans())
        origin = origins[index]
        sender, receiver = (origin, peer) if outbound else (peer, origin)
        return ("record", index, sender, receiver, draw(mtypes))

    stray = st.tuples(
        st.just("record"), job_index, st.sampled_from(names), st.sampled_from(names), mtypes
    )
    register = st.tuples(st.just("register"), st.sampled_from(names))
    ops = draw(
        st.lists(
            st.one_of(exchange(), exchange(), exchange(), stray, register), max_size=80
        )
    )
    split = draw(st.integers(0, len(ops)))
    return names, origins, ops, split


class TestOracle:
    @given(stream=message_streams())
    @settings(max_examples=150, deadline=None)
    def test_ledger_matches_dict_reference(self, stream):
        """Every kept query equals the dict-based reference ledger's; each
        ``Job.messages`` equals the reference's per-job count; and the
        stream split across two ledgers and merged equals the unsplit one."""
        names, origins, ops, split = stream
        jobs = [make_job(origin=origin) for origin in origins]
        ledger, reference = MessageLog(), ReferenceMessageLog()
        recorded = 0
        for op in ops:
            outcome = _apply(ledger, op, jobs)
            assert outcome == _apply(reference, op, jobs)
            recorded += op[0] == "record" and outcome == "ok"

        gfa_names, per_gfa, by_type, total = _queries(ledger, names)
        assert gfa_names == reference.gfa_names()
        for name, (local, remote, both, local_q, remote_q) in per_gfa.items():
            expected = reference.counters(name)
            assert (local, remote) == (expected.local, expected.remote)
            assert both == local + remote == local_q + remote_q
        assert by_type == {t: reference.count_by_type(t) for t in MessageType}
        assert total == reference.total_messages == recorded
        for job in jobs:
            assert job.messages == reference.messages_for_job(job.job_id)
        # Every message is local to one GFA and remote to another.
        assert sum(local for local, *_ in per_gfa.values()) == recorded
        assert sum(remote for _local, remote, *_ in per_gfa.values()) == recorded
        assert sum(by_type.values()) == recorded

        twins = [make_job(origin=origin) for origin in origins]
        head, tail = MessageLog(), MessageLog()
        for op in ops[:split]:
            _apply(head, op, twins)
        for op in ops[split:]:
            _apply(tail, op, twins)
        head.merge_from(tail)
        assert _queries(head, names) == _queries(ledger, names)
        assert [job.messages for job in twins] == [job.messages for job in jobs]


# --------------------------------------------------------------------------- #
# Oracle: a round trip booked in one call against the two calls it replaced
# --------------------------------------------------------------------------- #
class TwoCallLedger(MessageLog):
    """The ledger before round trips were booked in one call: ``record``
    copied from it, and a round trip as a NEGOTIATE ``record`` followed, if
    the responder answered, by a REPLY ``record`` with the endpoints
    swapped."""

    def record(self, mtype, sender, receiver, job) -> None:  # type: ignore[override]
        if sender == receiver:
            raise ValueError("inter-GFA messages require two distinct endpoints")
        origin = job.origin
        if origin == sender:
            remote = receiver
        elif origin == receiver:
            remote = sender
        else:
            raise ValueError(
                f"message endpoints ({sender!r}, {receiver!r}) do not include the "
                f"job's origin GFA {origin!r}"
            )
        slots = self._slots
        slot = slots.get(origin)
        if slot is None:
            slot = self._new_slot(origin)
        self._local[slot] += 1
        slot = slots.get(remote)
        if slot is None:
            slot = self._new_slot(remote)
        self._remote[slot] += 1
        self._by_type[mtype.index] += 1
        job.messages += 1

    def roundtrip(self, sender, receiver, job, replied) -> None:
        self.record(MessageType.NEGOTIATE, sender, receiver, job)
        if replied:
            self.record(MessageType.REPLY, receiver, sender, job)


@st.composite
def roundtrip_streams(draw):
    """Round trips in both directions, answered or not, plus strays whose
    endpoints repeat or miss the job's origin, interleaved with
    registrations."""
    names = [f"GFA-{i}" for i in range(draw(st.integers(2, 6)))]
    origins = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
    trip = st.tuples(
        st.just("trip"),
        st.integers(0, len(origins) - 1),
        st.sampled_from(names),
        st.sampled_from(names),
        st.sampled_from(["out", "back", "stray"]),
        st.booleans(),
    )
    register = st.tuples(st.just("register"), st.sampled_from(names))
    return names, origins, draw(st.lists(st.one_of(trip, trip, trip, register), max_size=60))


def _outcome(book) -> str:
    try:
        book()
    except ValueError as exc:
        return f"ValueError: {exc}"
    return "ok"


class TestRoundTripOracle:
    @given(stream=roundtrip_streams())
    @settings(max_examples=200, deadline=None)
    def test_one_call_round_trip_matches_two_records(self, stream):
        """Every query, every ``Job.messages`` and every ``ValueError`` of
        ``record(NEGOTIATE, ..., replied)`` equal the two-call ledger's, and
        a refused call leaves the ledger exactly as it was."""
        names, origins, ops = stream
        jobs = [make_job(origin=origin) for origin in origins]
        twins = [make_job(origin=origin) for origin in origins]
        ledger, reference = MessageLog(), TwoCallLedger()
        for op in ops:
            if op[0] == "register":
                ledger.register_gfa(op[1])
                reference.register_gfa(op[1])
                continue
            _kind, index, peer, other, shape, replied = op
            origin = origins[index]
            sender, receiver = {
                "out": (origin, peer),
                "back": (peer, origin),
                "stray": (peer, other),
            }[shape]
            before = _queries(ledger, names)
            outcome = _outcome(
                lambda: ledger.record(MessageType.NEGOTIATE, sender, receiver, jobs[index], replied)
            )
            assert outcome == _outcome(
                lambda: reference.roundtrip(sender, receiver, twins[index], replied)
            )
            if outcome != "ok":
                assert _queries(ledger, names) == before
            assert _queries(ledger, names) == _queries(reference, names)
            assert [job.messages for job in jobs] == [job.messages for job in twins]
