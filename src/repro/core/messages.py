"""Superscheduling message accounting (Experiments 4 and 5).

The paper counts four message types exchanged between GFAs while scheduling a
job across the federation:

* ``NEGOTIATE``      — admission-control enquiry from the job's origin GFA,
* ``REPLY``          — accept / refuse answer from the contacted GFA,
* ``JOB_SUBMISSION`` — transfer of the job itself to the chosen remote GFA,
* ``JOB_COMPLETION`` — return of the job output to the origin GFA.

Directory queries are *not* counted here: the paper assumes an optimal
``O(log n)`` directory and reports only these inter-GFA messages (the
directory's own accounting lives in :class:`repro.p2p.FederationDirectory`).

Classification (Section 3.5): a message belongs to the scheduling of exactly
one job.  At the job's **origin** GFA it is a *local* message (sent/received to
schedule one of its own users' jobs); at the **remote** GFA it is a *remote*
message (work done on behalf of another site).  Messages are only exchanged
between distinct GFAs — scheduling a job onto its own origin cluster is free.

The :class:`MessageLog` is the one ledger of a run: the federation's
:class:`~repro.net.transport.Transport` owns it and records every data-plane
message into it exactly once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.workload.job import Job


class MessageType(enum.Enum):
    """The four inter-GFA message categories of Experiment 4."""

    NEGOTIATE = "negotiate"
    REPLY = "reply"
    JOB_SUBMISSION = "job-submission"
    JOB_COMPLETION = "job-completion"


# Each member's slot in the ledger's per-type counter list: recording a
# message indexes a list with it instead of hashing the Enum member.
for _index, _mtype in enumerate(MessageType):
    _mtype.index = _index
del _index, _mtype
_REPLY = MessageType.REPLY.index


@dataclass(frozen=True)
class GFAMessageCounters:
    """One GFA's message counts."""

    local: int = 0
    remote: int = 0

    @property
    def total(self) -> int:
        """All messages this GFA participated in (local + remote)."""
        return self.local + self.remote


class MessageLog:
    """The ledger of all inter-GFA messages of one simulation run.

    Every GFA owns a slot in two flat lists — messages it exchanged for its
    own jobs (``local``) and on behalf of other sites' jobs (``remote``) —
    and each message type a slot in a per-type list.  Recording a message
    bumps one entry of each list and the job's ``Job.messages``; nothing
    else is kept.
    """

    def __init__(self) -> None:
        self._slots: Dict[str, int] = {}
        self._local: List[int] = []
        self._remote: List[int] = []
        self._by_type: List[int] = [0] * len(MessageType)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(
        self, mtype: MessageType, sender: str, receiver: str, job: Job, replied: bool = False
    ) -> None:
        """Record one message exchanged while scheduling ``job``.

        The GFA managing the job's origin cluster owns the job; the other
        endpoint is the remote party.  Messages whose two endpoints are the
        same GFA, or that do not involve the job's origin, are programming
        errors — intra-GFA decisions are free.  ``replied=True`` also
        records the REPLY ``receiver`` sent back, so a completed round trip
        is booked, and its endpoints checked, in one call.
        """
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
        count = 2 if replied else 1
        slots = self._slots
        slot = slots.get(origin)
        if slot is None:
            slot = self._new_slot(origin)
        self._local[slot] += count
        slot = slots.get(remote)
        if slot is None:
            slot = self._new_slot(remote)
        self._remote[slot] += count
        self._by_type[mtype.index] += 1
        if replied:
            self._by_type[_REPLY] += 1
        job.messages += count

    def _new_slot(self, gfa_name: str) -> int:
        slot = self._slots[gfa_name] = len(self._local)
        self._local.append(0)
        self._remote.append(0)
        return slot

    def register_gfa(self, gfa_name: str) -> None:
        """Pre-register a GFA so zero-message agents appear in the reports."""
        if gfa_name not in self._slots:
            self._new_slot(gfa_name)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def total_messages(self) -> int:
        """All messages recorded (each once, whatever its type)."""
        return sum(self._by_type)

    def counters(self, gfa_name: str) -> GFAMessageCounters:
        """Counters of one GFA (zeros if it never exchanged messages)."""
        slot = self._slots.get(gfa_name)
        if slot is None:
            return GFAMessageCounters()
        return GFAMessageCounters(self._local[slot], self._remote[slot])

    def gfa_names(self) -> List[str]:
        """All GFAs that appear in the log."""
        return sorted(self._slots)

    def local_messages(self, gfa_name: str) -> int:
        """Messages attributed to scheduling ``gfa_name``'s local jobs."""
        return self.counters(gfa_name).local

    def remote_messages(self, gfa_name: str) -> int:
        """Messages handled by ``gfa_name`` on behalf of other sites' jobs."""
        return self.counters(gfa_name).remote

    def count_by_type(self, mtype: MessageType) -> int:
        """Total messages of one type."""
        return self._by_type[mtype.index]

    # ------------------------------------------------------------------ #
    # Merging (parallel engine)
    # ------------------------------------------------------------------ #
    def merge_from(self, other: "MessageLog") -> None:
        """Fold another log's counters into this one (purely additive).

        Used by the parallel engine to combine per-shard logs into the
        federation-wide accounting.  Correct because each message is
        recorded on exactly one shard (requests at the job's origin shard,
        completions at the executing shard), so summing never double-counts.
        """
        for name, theirs in other._slots.items():
            mine = self._slots.get(name)
            if mine is None:
                mine = self._new_slot(name)
            self._local[mine] += other._local[theirs]
            self._remote[mine] += other._remote[theirs]
        for index, count in enumerate(other._by_type):
            self._by_type[index] += count

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"MessageLog(total={self.total_messages}, gfas={len(self._slots)})"
