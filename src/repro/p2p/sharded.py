"""Sharded federation directory: quotes partitioned across directory peers.

A single :class:`~repro.p2p.directory.FederationDirectory` is one hot object —
every subscribe, quote update and rank probe of the whole federation lands on
it.  :class:`ShardedDirectory` partitions the quotes across ``k`` directory
peer entities by consistent key hashing of the GFA name; each shard is a full
:class:`FederationDirectory` (one :class:`~repro.p2p.overlay.SkipListIndex`
per ranking criterion), so shard-local operations keep their ``O(log n/k)``
cost and the shards can, in a real deployment, live on ``k`` different hosts.

Rank queries become **scatter-gather**: a probe opens one resumable session
per shard and merges the shard heads by ranking key, so the merged sequence
is exactly what a single directory over the union of the quotes would return
— property-tested against that oracle under churn.  Sessions preserve the
semantics the negotiation loop depends on:

* *resumable cursors* (PR 2): consecutive probes advance the per-shard
  cursors instead of re-scanning, one forward sweep per negotiation;
* *serve-once under churn* (PR 3): any membership change (a dead member's
  quote invalidated, a subscribe, a re-quote) bumps the aggregate version and
  the next probe transparently restarts the sweep, skipping quotes already
  served by name — the best-ranked *unseen* candidate is always next.

With ``k == 1`` the federation builds a plain :class:`FederationDirectory`
(see :func:`create_directory`), keeping the default path byte-identical to
the unsharded code.
"""

from __future__ import annotations

import zlib
from contextlib import ExitStack, contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.specs import ResourceSpec
from repro.p2p.directory import (
    DirectoryQuote,
    DirectoryQuerySession,
    FederationDirectory,
    RankCriterion,
    _ServeEachQuoteOnce,
)

__all__ = ["ShardedDirectory", "ShardedQuerySession", "create_directory", "shard_for"]


def shard_for(gfa_name: str, shards: int) -> int:
    """The shard owning ``gfa_name`` (stable across processes and runs)."""
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    return zlib.crc32(gfa_name.encode("utf-8")) % shards


def _ranking_key(criterion: RankCriterion, quote: DirectoryQuote) -> Tuple[float, str]:
    """The total-order key the criterion's skip list sorts by."""
    if criterion is RankCriterion.CHEAPEST:
        return (quote.spec.price, quote.gfa_name)
    return (-quote.spec.mips, quote.gfa_name)


class ShardedQuerySession(_ServeEachQuoteOnce):
    """A scatter-gather rank-query session over every shard.

    Holds one resumable :class:`DirectoryQuerySession` per shard plus each
    shard's current *head* (its best not-yet-merged match); :meth:`kth` merges
    heads in ranking-key order, pulling the next match only from the shard
    whose head was consumed.  A probe therefore costs one ``kth`` on at most
    one shard after the initial scatter — the per-shard sessions keep their
    cursor resumability, and each shard probe is accounted as one directory
    query on that shard (the honest scatter-gather message cost).
    """

    __slots__ = (
        "_directory",
        "criterion",
        "min_processors",
        "_version",
        "_pos",
        "_yielded",
        "_sessions",
        "_heads",
        "_ranks",
        "_matched",
    )

    def __init__(
        self,
        directory: "ShardedDirectory",
        criterion: RankCriterion,
        min_processors: int = 1,
    ):
        if min_processors < 1:
            raise ValueError(f"min_processors must be at least 1, got {min_processors}")
        self._directory = directory
        self.criterion = criterion
        self.min_processors = min_processors
        self._pos = 0
        self._yielded: set = set()
        self._restart()

    def _restart(self) -> None:
        directory = self._directory
        self._version = directory.version
        self._sessions: List[DirectoryQuerySession] = [
            shard.open_session(self.criterion, self.min_processors)
            for shard in directory.shards
        ]
        self._ranks = [0] * len(self._sessions)
        self._matched: List[DirectoryQuote] = []
        self._heads: List[Optional[Tuple[Tuple[float, str], DirectoryQuote]]] = [
            self._pull(i) for i in range(len(self._sessions))
        ]

    def _pull(self, shard_index: int) -> Optional[Tuple[Tuple[float, str], DirectoryQuote]]:
        """Advance one shard's session and return its new head (None = dry)."""
        self._ranks[shard_index] += 1
        quote = self._sessions[shard_index].kth(self._ranks[shard_index])
        if quote is None:
            return None
        return (_ranking_key(self.criterion, quote), quote)

    def kth(self, rank: int) -> Optional[DirectoryQuote]:
        """The ``rank``-th matching quote across all shards (1-based)."""
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        if self._version != self._directory.version:
            self._restart()
        matched = self._matched
        heads = self._heads
        while len(matched) < rank:
            best = None
            for i, head in enumerate(heads):
                if head is not None and (best is None or head[0] < heads[best][0]):
                    best = i
            if best is None:
                break
            matched.append(heads[best][1])
            heads[best] = self._pull(best)
        return matched[rank - 1] if rank <= len(matched) else None

    def _begin_resweep(self) -> None:
        # kth() itself rebuilds the shard sessions and syncs the version stamp
        # on its next probe; only the serve position needs resetting here.
        self._pos = 0


class ShardedDirectory:
    """A federation directory partitioned across ``k`` shard peers.

    Implements the same public surface as :class:`FederationDirectory`
    (publication, membership, resumable rank-query sessions, accounting),
    so GFAs, the fault injector, the validators and the extensions are
    oblivious to the sharding.

    Parameters
    ----------
    rngs:
        One seeded generator per shard for the shards' skip-list level draws
        (the federation derives them from ``"directory/overlay/shard{i}"``).
    """

    def __init__(self, rngs: Sequence[np.random.Generator]):
        if not rngs:
            raise ValueError("a sharded directory needs at least one shard rng")
        self.shards: List[FederationDirectory] = [
            FederationDirectory(rng=rng) for rng in rngs
        ]
        # Aggregate version kept as an O(1) counter: every shard bump
        # notifies the parent, so the per-probe version check of merge
        # sessions costs one attribute read instead of an O(shards) sum.
        self._version: int = 0
        for shard in self.shards:
            shard._on_version_bump = self._note_shard_bump

    def _note_shard_bump(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_transport(self, transport, node: str = "directory") -> None:
        """Attach the federation transport to every shard peer.

        Each shard accounts its own control traffic under ``{node}/shard{i}``,
        which is what makes scatter-gather fan-out measurable.
        """
        for i, shard in enumerate(self.shards):
            shard.attach_transport(transport, node=f"{node}/shard{i}")

    def _shard_of(self, gfa_name: str) -> FederationDirectory:
        return self.shards[shard_for(gfa_name, len(self.shards))]

    # ------------------------------------------------------------------ #
    # Publication interface
    # ------------------------------------------------------------------ #
    def subscribe(
        self, gfa_name: str, spec: ResourceSpec, *, replica: bool = False
    ) -> DirectoryQuote:
        return self._shard_of(gfa_name).subscribe(gfa_name, spec, replica=replica)

    def unsubscribe(self, gfa_name: str) -> None:
        self._shard_of(gfa_name).unsubscribe(gfa_name)

    def update_quote(self, gfa_name: str, spec: ResourceSpec) -> DirectoryQuote:
        return self._shard_of(gfa_name).update_quote(gfa_name, spec)

    def report_load(self, gfa_name: str, expected_wait: float) -> None:
        self._shard_of(gfa_name).report_load(gfa_name, expected_wait)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Aggregate membership/quote version (any shard bump bumps it).

        Maintained as a live counter through the shards' bump hooks, so a
        merge session's per-probe staleness check is ``O(1)`` regardless of
        the shard count.
        """
        return self._version

    @contextmanager
    def batch_updates(self):
        """Coalesce a cross-shard storm of quote refreshes.

        Enters :meth:`FederationDirectory.batch_updates` on every shard, so
        the whole storm costs at most one version bump per *touched* shard
        (untouched shards stay clean) instead of one per call — and
        therefore at most one restart of every open merge session.
        """
        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.batch_updates())
            yield self

    @property
    def load_updates(self) -> int:
        return sum(shard.load_updates for shard in self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def quotes(self) -> List[DirectoryQuote]:
        """All published quotes (unordered snapshot across shards)."""
        return [quote for shard in self.shards for quote in shard.quotes()]

    def is_subscribed(self, gfa_name: str) -> bool:
        return self._shard_of(gfa_name).is_subscribed(gfa_name)

    def member_names(self) -> List[str]:
        return sorted(
            name for shard in self.shards for name in shard.member_names()
        )

    def quote_of(self, gfa_name: str) -> DirectoryQuote:
        return self._shard_of(gfa_name).quote_of(gfa_name)

    def load_of(self, gfa_name: str) -> float:
        return self._shard_of(gfa_name).load_of(gfa_name)

    # ------------------------------------------------------------------ #
    # Query interface
    # ------------------------------------------------------------------ #
    def open_session(
        self, criterion: RankCriterion, min_processors: int = 1
    ) -> "ShardedQuerySession":
        """Open a scatter-gather rank-query session (one per job negotiation).

        Parameters as :meth:`FederationDirectory.open_session`.
        """
        return ShardedQuerySession(self, criterion, min_processors)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def query_count(self) -> int:
        return sum(shard.query_count for shard in self.shards)

    @property
    def assumed_query_messages(self) -> int:
        return sum(shard.assumed_query_messages for shard in self.shards)

    @property
    def measured_overlay_hops(self) -> int:
        return sum(shard.measured_overlay_hops for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ShardedDirectory(shards={len(self.shards)}, quotes={len(self)}, "
            f"queries={self.query_count})"
        )


def create_directory(streams, shards: int = 1):
    """Build the directory a federation config asks for.

    ``shards == 1`` returns the plain :class:`FederationDirectory` seeded from
    the historical ``"directory/overlay"`` stream — byte-identical to every
    run recorded before sharding existed.  ``shards > 1`` returns a
    :class:`ShardedDirectory` whose shard overlays draw from independent
    ``"directory/overlay/shard{i}"`` streams.
    """
    if shards < 1:
        raise ValueError(f"directory_shards must be at least 1, got {shards}")
    if shards == 1:
        return FederationDirectory(rng=streams.get("directory/overlay"))
    return ShardedDirectory(
        [streams.get(f"directory/overlay/shard{i}") for i in range(shards)]
    )
