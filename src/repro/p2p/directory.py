"""The shared federation directory (subscribe / quote / unsubscribe / query).

Every GFA publishes a *quote* — its resource description ``R_i`` and access
price ``c_i`` — into the directory and queries it for the k-th cheapest or
k-th fastest cluster while scheduling (Fig. 1).  The directory is backed by
one :class:`~repro.p2p.overlay.SkipListIndex` per ranking criterion, so rank
queries take ``O(log n)`` hops; the measured hop counts are recorded next to
the paper's assumed ``ceil(log2 n)`` cost so the assumption can be audited.

The directory also accepts *load reports* (expected queue wait per resource).
The base Grid-Federation protocol never reads them; the coordination extension
(Ablation C, Section 2.3's "future work") uses them to rank candidates by
load-adjusted completion time and thereby avoid fruitless negotiations.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.specs import ResourceSpec
from repro.p2p.overlay import OverlayError, SkipListCursor, SkipListIndex


class RankCriterion(enum.Enum):
    """Ranking criteria supported by directory queries."""

    #: Ascending quoted access price (``c_i``) — the k-th *cheapest* cluster.
    CHEAPEST = "cheapest"
    #: Descending MIPS rating (``mu_i``) — the k-th *fastest* cluster.
    FASTEST = "fastest"


@dataclass(frozen=True)
class DirectoryQuote:
    """A published quote: the owning GFA plus its advertised resource set."""

    gfa_name: str
    spec: ResourceSpec

    @property
    def price(self) -> float:
        """Quoted access price ``c_i``."""
        return self.spec.price

    @property
    def mips(self) -> float:
        """Advertised per-processor speed ``mu_i``."""
        return self.spec.mips


@dataclass
class _QueryStats:
    queries: int = 0
    measured_hops: int = 0
    assumed_messages: int = 0


def theoretical_query_messages(system_size: int) -> int:
    """The paper's assumed directory query cost: ``O(log n)`` messages."""
    if system_size < 1:
        raise ValueError("system size must be at least 1")
    return max(1, math.ceil(math.log2(system_size))) if system_size > 1 else 1


class _ServeEachQuoteOnce:
    """Shared ``next()``/iteration semantics for query sessions.

    While membership is stable this is exactly "rank ``n`` on the ``n``-th
    call".  After a membership change (a dead member's quote invalidated by
    :meth:`FederationDirectory.unsubscribe`, a new subscriber, a re-quote),
    positional continuation would be wrong — ranks shift, so continuing at
    the old position silently *skips* live candidates the caller never
    probed, or *re-serves* quotes it already consumed.  Instead the sweep
    restarts from rank 1 and quotes already yielded are skipped by name, so
    the caller always gets the best-ranked candidate it has not seen — the
    semantics a negotiation loop needs to survive churn.

    Subclasses provide ``kth`` (positional, fresh-query semantics), the
    ``_directory``/``_version``/``_pos``/``_yielded`` state, and
    ``_begin_resweep`` (how a restart syncs their version stamp).
    """

    __slots__ = ()

    def _begin_resweep(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def next(self) -> Optional[DirectoryQuote]:
        """The next matching quote this session has not yet served."""
        if self._version != self._directory.version:
            self._begin_resweep()
        while True:
            quote = self.kth(self._pos + 1)
            if quote is None:
                return None
            self._pos += 1
            if quote.gfa_name not in self._yielded:
                self._yielded.add(quote.gfa_name)
                return quote

    def __iter__(self) -> Iterator[DirectoryQuote]:
        while True:
            quote = self.next()
            if quote is None:
                return
            yield quote


class DirectoryQuerySession(_ServeEachQuoteOnce):
    """A resumable per-job rank-query session.

    The DBC superscheduler probes the directory for ranks ``1, 2, 3, ...``
    under one ``(criterion, min_processors)`` filter while negotiating a
    single job.  Answering each probe independently re-walks the overlay from
    rank 1 (``O(k² · n)`` over a ``k``-round negotiation); a session instead
    keeps a :class:`~repro.p2p.overlay.SkipListCursor` and the list of
    filter-matching quotes seen so far, so the whole probe sequence costs one
    forward sweep — ``O(log n + n)`` worst case, ``O(log n + k)`` typical.

    Sessions are *version-stamped*: any subscribe / unsubscribe /
    ``update_quote`` bumps the directory version and the next probe
    transparently restarts its sweep, so results always equal what a fresh
    :meth:`FederationDirectory.query` would return (dynamic pricing stays
    correct).  Query accounting (query count, assumed ``O(log n)`` message
    cost, measured overlay hops) is identical in structure to the one-shot
    path: one probe equals one query.
    """

    __slots__ = (
        "_directory",
        "_index",
        "criterion",
        "min_processors",
        "_matched",
        "_cursor",
        "_version",
        "_exhausted",
        "_pos",
        "_yielded",
    )

    def __init__(
        self,
        directory: "FederationDirectory",
        criterion: RankCriterion,
        min_processors: int = 1,
    ):
        if min_processors < 1:
            raise ValueError(f"min_processors must be at least 1, got {min_processors}")
        self._directory = directory
        self.criterion = criterion
        self.min_processors = min_processors
        self._index = directory._index_for(criterion)
        self._matched: List[DirectoryQuote] = []
        self._pos = 0
        self._yielded: set = set()
        self._restart()

    def _restart(self) -> None:
        self._version = self._directory.version
        self._cursor: SkipListCursor = self._index.cursor()
        self._matched.clear()
        self._exhausted = False

    def kth(self, rank: int) -> Optional[DirectoryQuote]:
        """The ``rank``-th matching quote (1-based), or ``None`` when exhausted.

        Same contract as :meth:`FederationDirectory.query`, but consecutive
        calls resume the sweep from the last matched rank instead of
        re-scanning.
        """
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        directory = self._directory
        directory._account_query()
        if self._version != directory.version:
            self._restart()
        matched = self._matched
        if len(matched) < rank and not self._exhausted:
            cursor = self._cursor
            hops_before = cursor.hops
            min_processors = self.min_processors
            while len(matched) < rank:
                item = cursor.advance()
                if item is None:
                    self._exhausted = True
                    break
                quote = item[1]
                if quote.spec.num_processors >= min_processors:
                    matched.append(quote)
            directory._stats.measured_hops += cursor.hops - hops_before
        return matched[rank - 1] if rank <= len(matched) else None

    def _begin_resweep(self) -> None:
        # kth() itself restarts the cursor sweep and syncs the version stamp
        # on its next probe; only the serve position needs resetting here.
        self._pos = 0


class FederationDirectory:
    """Decentralised quote directory shared by all GFAs of a federation.

    Parameters
    ----------
    rng:
        Random generator for the overlay level assignment (inject a seeded
        stream for reproducible hop counts).
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng()
        self._by_price: SkipListIndex = SkipListIndex(rng=rng)
        self._by_speed: SkipListIndex = SkipListIndex(rng=rng)
        self._quotes: Dict[str, DirectoryQuote] = {}
        self._load_reports: Dict[str, float] = {}
        self._stats = _QueryStats()
        self.load_updates: int = 0
        #: Membership/quote version: bumped by subscribe, unsubscribe and
        #: update_quote.  Stamps the ranking cache and open query sessions.
        self._version: int = 0
        # Batch state: while a batch_updates() block is open, membership
        # changes set the dirty flag instead of bumping the version, so a
        # same-timestamp storm of quote refreshes (dynamic pricing reprices
        # every cluster in one tick) invalidates the ranking caches and
        # restarts open sessions exactly once.
        self._batch_depth: int = 0
        self._batch_dirty: bool = False
        # Optional hook fired on every version bump; a ShardedDirectory
        # installs one so its aggregate version stays an O(1) counter instead
        # of an O(shards) sum recomputed on every session probe.
        self._on_version_bump = None
        self._ranking_cache: Dict[Tuple[RankCriterion, int], Tuple[int, List[DirectoryQuote]]] = {}
        # Control-plane accounting: when a transport is attached (the
        # federation does it), every subscribe / quote / query RPC is counted
        # against this directory node in the transport's stats.
        self._transport = None
        self._node = "directory"

    def attach_transport(self, transport, node: str = "directory") -> None:
        """Route this directory's control-traffic accounting through ``transport``."""
        self._transport = transport
        self._node = node

    def _control(self, kind: str) -> None:
        if self._transport is not None:
            self._transport.control(self._node, kind)

    def _bump_version(self) -> None:
        if self._batch_depth:
            self._batch_dirty = True
            return
        self._version += 1
        if self._on_version_bump is not None:
            self._on_version_bump()

    @contextmanager
    def batch_updates(self):
        """Coalesce a storm of membership changes into one version bump.

        Subscribes / unsubscribes / quote updates inside the block are
        applied to the overlay immediately, but the version is bumped *once*
        at the outermost exit — so version-stamped consumers (ranking caches,
        open query sessions, sharded merge sessions) pay one invalidation for
        the whole storm instead of one per call.  This is what keeps the
        dynamic-pricing repricing tick (every cluster re-quotes at the same
        timestamp) from restarting every open negotiation sweep n times.

        Rank queries are forbidden inside the block (they raise
        :class:`~repro.p2p.overlay.OverlayError`): with the bump deferred, a
        mid-batch query could cache a half-applied ranking against the old
        version.  Publication-side reads (``quote_of``, membership tests)
        remain legal.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batch_dirty:
                self._batch_dirty = False
                self._bump_version()

    # ------------------------------------------------------------------ #
    # Publication interface (subscribe / quote / unsubscribe)
    # ------------------------------------------------------------------ #
    def subscribe(
        self, gfa_name: str, spec: ResourceSpec, *, replica: bool = False
    ) -> DirectoryQuote:
        """Publish the initial quote of a GFA joining the federation.

        ``replica=True`` mirrors a quote whose owner subscribes on another
        parallel shard: the overlay state is the same, but no control
        message is charged, so a merged run counts each subscribe once.
        """
        if gfa_name in self._quotes:
            raise OverlayError(f"GFA already subscribed: {gfa_name!r}")
        quote = DirectoryQuote(gfa_name=gfa_name, spec=spec)
        self._quotes[gfa_name] = quote
        self._by_price.insert((spec.price, gfa_name), quote)
        self._by_speed.insert((-spec.mips, gfa_name), quote)
        self._bump_version()
        if not replica:
            self._control("subscribe")
        return quote

    def update_quote(self, gfa_name: str, spec: ResourceSpec) -> DirectoryQuote:
        """Refresh a GFA's quote (used by the dynamic-pricing extension).

        Re-publishing is *not* a membership change: the GFA's latest load
        report survives the update, so the coordination extension keeps its
        pruning information when dynamic pricing re-quotes a resource.  On
        the control plane it is also *one* message — a quote update — not the
        unsubscribe/subscribe pair it decomposes into internally, and on the
        version counter it is likewise *one* bump, so consumers re-validate
        once per refresh (and once per whole storm under
        :meth:`batch_updates`).
        """
        load_report = self._load_reports.get(gfa_name)
        transport = self._transport
        self._transport = None  # suppress the inner pair's accounting
        with self.batch_updates():  # the pair is one logical version bump
            try:
                self.unsubscribe(gfa_name)
                quote = self.subscribe(gfa_name, spec)
            finally:
                self._transport = transport
        self._control("update-quote")
        if load_report is not None:
            self._load_reports[gfa_name] = load_report
        return quote

    def unsubscribe(self, gfa_name: str) -> None:
        """Withdraw a GFA's quote from the federation."""
        quote = self._quotes.pop(gfa_name, None)
        if quote is None:
            raise OverlayError(f"GFA not subscribed: {gfa_name!r}")
        self._by_price.remove((quote.spec.price, gfa_name))
        self._by_speed.remove((-quote.spec.mips, gfa_name))
        self._load_reports.pop(gfa_name, None)
        self._bump_version()
        self._control("unsubscribe")

    def report_load(self, gfa_name: str, expected_wait: float) -> None:
        """Publish a load report (expected queue wait in seconds) for a GFA."""
        if gfa_name not in self._quotes:
            raise OverlayError(f"GFA not subscribed: {gfa_name!r}")
        if expected_wait < 0:
            raise ValueError("expected wait must be non-negative")
        self._load_reports[gfa_name] = expected_wait
        self.load_updates += 1
        self._control("load-report")

    # ------------------------------------------------------------------ #
    # Query interface
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Current membership/quote version (see sessions and ranking cache)."""
        return self._version

    def _index_for(self, criterion: RankCriterion) -> SkipListIndex:
        return self._by_price if criterion is RankCriterion.CHEAPEST else self._by_speed

    def _account_query(self) -> None:
        if self._batch_depth:
            raise OverlayError(
                "rank queries are not allowed inside batch_updates() — the "
                "deferred version bump would let them cache half-applied state"
            )
        self._stats.queries += 1
        self._stats.assumed_messages += theoretical_query_messages(max(len(self._quotes), 1))
        self._control("query")

    def __len__(self) -> int:
        return len(self._quotes)

    def quotes(self) -> List[DirectoryQuote]:
        """All published quotes (unordered snapshot)."""
        return list(self._quotes.values())

    def is_subscribed(self, gfa_name: str) -> bool:
        """True if ``gfa_name`` currently has a quote in the directory."""
        return gfa_name in self._quotes

    def member_names(self) -> List[str]:
        """Sorted names of all currently subscribed GFAs."""
        return sorted(self._quotes)

    def quote_of(self, gfa_name: str) -> DirectoryQuote:
        """The quote published by a particular GFA."""
        return self._quotes[gfa_name]

    def load_of(self, gfa_name: str) -> float:
        """Latest load report for a GFA (0.0 if it never reported)."""
        return self._load_reports.get(gfa_name, 0.0)

    def query(
        self,
        criterion: RankCriterion,
        rank: int,
        min_processors: int = 1,
    ) -> Optional[DirectoryQuote]:
        """Return the ``rank``-th cluster under ``criterion`` (1-based).

        Parameters
        ----------
        criterion:
            ``CHEAPEST`` ranks by ascending price, ``FASTEST`` by descending
            MIPS rating.
        rank:
            1-based rank among the clusters that satisfy the processor filter.
        min_processors:
            Only clusters with at least this many processors are considered;
            the DBC algorithm uses it to skip clusters that can never fit the
            job (their resource description is in the directory, so no
            negotiation message is needed to exclude them).

        Returns
        -------
        DirectoryQuote or None
            ``None`` when fewer than ``rank`` clusters satisfy the filter —
            the signal that the DBC iteration is exhausted.

        Notes
        -----
        One-shot queries are served from the version-stamped ranking cache:
        the first probe under a ``(criterion, min_processors)`` filter since
        the last membership change walks the overlay once, every further probe
        is an ``O(1)`` list lookup.  Negotiation loops should prefer
        :meth:`open_session`, which resumes instead of caching.
        """
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        self._account_query()
        ranking = self._cached_ranking(criterion, min_processors)
        return ranking[rank - 1] if rank <= len(ranking) else None

    def open_session(
        self, criterion: RankCriterion, min_processors: int = 1
    ) -> "DirectoryQuerySession":
        """Open a resumable rank-query session (one per job negotiation)."""
        return DirectoryQuerySession(self, criterion, min_processors)

    def _cached_ranking(
        self, criterion: RankCriterion, min_processors: int
    ) -> List[DirectoryQuote]:
        """The filtered ranking, rebuilt only after a membership change.

        The rebuild's single level-0 sweep is charged to the measured hop
        count; cache hits cost no hops, which is exactly the point.
        """
        if self._batch_depth:
            raise OverlayError(
                "rankings are not available inside batch_updates() — the "
                "deferred version bump would let them cache half-applied state"
            )
        key = (criterion, min_processors)
        entry = self._ranking_cache.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        index = self._index_for(criterion)
        ranking = [
            quote for _key, quote in index.items() if quote.spec.num_processors >= min_processors
        ]
        self._stats.measured_hops += len(index)
        self._ranking_cache[key] = (self._version, ranking)
        return ranking

    def ranking(self, criterion: RankCriterion, min_processors: int = 1) -> List[DirectoryQuote]:
        """Full ranking under a criterion (used by reports and baselines)."""
        return list(self._cached_ranking(criterion, min_processors))

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def query_count(self) -> int:
        """Number of rank queries served."""
        return self._stats.queries

    @property
    def assumed_query_messages(self) -> int:
        """Total directory messages under the paper's O(log n) assumption."""
        return self._stats.assumed_messages

    @property
    def measured_overlay_hops(self) -> int:
        """Total links actually traversed in the overlay while serving queries."""
        return self._stats.measured_hops

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"FederationDirectory(quotes={len(self._quotes)}, queries={self._stats.queries})"
