"""The shared federation directory (subscribe / quote / unsubscribe / query).

Every GFA publishes a *quote* — its resource description ``R_i`` and access
price ``c_i`` — into the directory and queries it for the k-th cheapest or
k-th fastest cluster while scheduling (Fig. 1).  The directory keeps one
sorted ranking per criterion, and a job's probes ``k = 1, 2, 3, ...`` are
answered by one resumable :class:`DirectoryQuerySession`
(``open_session(criterion, min_processors).kth(k)``).  The paper assumes a
peer-to-peer directory whose queries cost ``O(log n)`` messages; each probe
is charged that assumed cost (:func:`theoretical_query_messages`), priced
once per membership change rather than per probe.

The directory also accepts *load reports* (expected queue wait per resource).
The base Grid-Federation protocol never reads them; the coordination extension
(Ablation C, Section 2.3's "future work") uses them to rank candidates by
load-adjusted completion time and thereby avoid fruitless negotiations.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, insort
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.specs import ResourceSpec


class OverlayError(RuntimeError):
    """Raised on invalid directory operations (duplicate or unknown GFAs,
    rank queries inside :meth:`FederationDirectory.batch_updates`)."""


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
    assumed_messages: int = 0


#: One ranking: ``(key, quote)`` pairs in ascending key order, where the key
#: is ``(price, name)`` or ``(-mips, name)`` and so unique per GFA.
_Ranking = List[Tuple[tuple, DirectoryQuote]]


def _remove(ranking: _Ranking, key: tuple) -> None:
    """Delete the pair keyed ``key`` (``(key,)`` sorts just before it)."""
    del ranking[bisect_left(ranking, (key,))]


def theoretical_query_messages(system_size: int) -> int:
    """The paper's assumed directory query cost: ``O(log n)`` messages."""
    if system_size < 1:
        raise ValueError("system size must be at least 1")
    return max(1, math.ceil(math.log2(system_size))) if system_size > 1 else 1


class DirectoryQuerySession:
    """A resumable per-job rank-query session.

    The DBC superscheduler probes the directory for ranks ``1, 2, 3, ...``
    under one ``(criterion, min_processors)`` filter while negotiating a
    single job.  Answering each probe independently would re-walk the ranking
    from rank 1 (``O(k · n)`` over a ``k``-round negotiation); a session
    instead keeps its position in the ranking and the list of filter-matching
    quotes seen so far, so the whole probe sequence costs one forward sweep —
    ``O(n)`` worst case, ``O(k)`` typical.

    Sessions are *version-stamped*: any subscribe / unsubscribe /
    ``update_quote`` bumps the directory version and the next probe
    transparently restarts its sweep, so results always equal what a fresh
    session's ``kth`` would return (dynamic pricing stays correct).  Query
    accounting: one probe is one query (its count and its assumed
    ``O(log n)`` message cost).
    """

    __slots__ = (
        "_directory",
        "_ranking",
        "criterion",
        "min_processors",
        "_matched",
        "_scan",
        "_version",
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
        # The directory's own list, changed in place: the version stamp
        # tells the session when its position no longer holds.
        self._ranking: _Ranking = directory._ranking_for(criterion)
        self._matched: List[DirectoryQuote] = []
        self._pos = 0
        self._yielded: set = set()
        self._restart()

    def _restart(self) -> None:
        self._version = self._directory.version
        #: Position in the ranking of the next quote the sweep examines.
        self._scan = 0
        self._matched.clear()

    def kth(self, rank: int) -> Optional[DirectoryQuote]:
        """The ``rank``-th matching quote (1-based), or ``None`` when exhausted.

        ``rank`` counts only the clusters that pass the session's processor
        filter; ``None`` (fewer than ``rank`` match) is the signal that the
        DBC iteration is exhausted.  Consecutive calls resume the sweep from
        the last matched rank instead of re-scanning.
        """
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        directory = self._directory
        if directory._batch_depth:
            raise OverlayError(
                "rank queries are not allowed inside batch_updates() — the "
                "deferred version bump would let them cache half-applied state"
            )
        stats = directory._stats
        stats.queries += 1
        stats.assumed_messages += directory._query_charge
        transport = directory._transport
        if transport is not None:
            transport.control("query")
        if self._version != directory._version:
            self._restart()
        matched = self._matched
        if len(matched) < rank:
            ranking = self._ranking
            end = len(ranking)
            scan = self._scan
            min_processors = self.min_processors
            while len(matched) < rank and scan < end:
                quote = ranking[scan][1]
                scan += 1
                if quote.spec.num_processors >= min_processors:
                    matched.append(quote)
            self._scan = scan
        return matched[rank - 1] if rank <= len(matched) else None

    def next(self) -> Optional[DirectoryQuote]:
        """The next matching quote this session has not yet served.

        While membership is stable this is exactly "rank ``n`` on the
        ``n``-th call".  After a membership change (a dead member's quote
        invalidated by :meth:`FederationDirectory.unsubscribe`, a new
        subscriber, a re-quote), positional continuation would be wrong —
        ranks shift, so continuing at the old position silently *skips* live
        candidates the caller never probed, or *re-serves* quotes it already
        consumed.  Instead the sweep restarts from rank 1 (:meth:`kth`
        restarts the sweep and syncs the version stamp on its next probe)
        and quotes already served are skipped by name, so the caller always
        gets the best-ranked candidate it has not seen — the semantics a
        negotiation loop needs to survive churn.
        """
        if self._version != self._directory._version:
            self._pos = 0
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


class FederationDirectory:
    """Decentralised quote directory shared by all GFAs of a federation.

    Each ranking is a sorted list of ``(key, quote)`` pairs, changed in place
    by subscribe and unsubscribe (open sessions hold the lists).
    """

    def __init__(self) -> None:
        self._by_price: _Ranking = []
        self._by_speed: _Ranking = []
        self._quotes: Dict[str, DirectoryQuote] = {}
        self._load_reports: Dict[str, float] = {}
        self._stats = _QueryStats()
        #: What one probe is charged: the paper's assumed cost at the
        #: current membership size, re-priced by subscribe and unsubscribe.
        self._query_charge: int = theoretical_query_messages(1)
        self.load_updates: int = 0
        #: Membership/quote version: bumped by subscribe, unsubscribe and
        #: update_quote.  Stamps open query sessions.
        self._version: int = 0
        # Batch state: while a batch_updates() block is open, membership
        # changes set the dirty flag instead of bumping the version, so a
        # same-timestamp storm of quote refreshes (dynamic pricing reprices
        # every cluster in one tick) restarts open sessions exactly once.
        self._batch_depth: int = 0
        self._batch_dirty: bool = False
        # Control-plane accounting: when a transport is attached (the
        # federation does it), every subscribe / quote / query RPC is counted
        # in the transport's stats.
        self._transport = None

    def attach_transport(self, transport) -> None:
        """Route this directory's control-traffic accounting through ``transport``."""
        self._transport = transport

    def _control(self, kind: str) -> None:
        if self._transport is not None:
            self._transport.control(kind)

    def _reprice_query(self) -> None:
        self._query_charge = theoretical_query_messages(max(len(self._quotes), 1))

    def _bump_version(self) -> None:
        if self._batch_depth:
            self._batch_dirty = True
            return
        self._version += 1

    @contextmanager
    def batch_updates(self):
        """Coalesce a storm of membership changes into one version bump.

        Subscribes / unsubscribes / quote updates inside the block are
        applied to the rankings immediately, but the version is bumped *once*
        at the outermost exit — so version-stamped consumers (open query
        sessions) pay one invalidation for the whole storm instead of one per
        call.  This is what keeps the
        dynamic-pricing repricing tick (every cluster re-quotes at the same
        timestamp) from restarting every open negotiation sweep n times.

        Rank queries are forbidden inside the block (they raise
        :class:`OverlayError`): with the bump deferred, a session probed
        mid-batch would keep a half-applied ranking stamped with the old
        version.  Publication-side reads (``quote_of``,
        membership tests) remain legal.
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
        parallel shard: the rankings are the same, but no control
        message is charged, so a merged run counts each subscribe once.
        """
        if gfa_name in self._quotes:
            raise OverlayError(f"GFA already subscribed: {gfa_name!r}")
        quote = DirectoryQuote(gfa_name=gfa_name, spec=spec)
        self._quotes[gfa_name] = quote
        insort(self._by_price, ((spec.price, gfa_name), quote))
        insort(self._by_speed, ((-spec.mips, gfa_name), quote))
        self._reprice_query()
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
        _remove(self._by_price, (quote.spec.price, gfa_name))
        _remove(self._by_speed, (-quote.spec.mips, gfa_name))
        self._load_reports.pop(gfa_name, None)
        self._reprice_query()
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
        """Current membership/quote version (see :class:`DirectoryQuerySession`)."""
        return self._version

    def _ranking_for(self, criterion: RankCriterion) -> _Ranking:
        return self._by_price if criterion is RankCriterion.CHEAPEST else self._by_speed

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

    def open_session(
        self, criterion: RankCriterion, min_processors: int = 1
    ) -> "DirectoryQuerySession":
        """Open a resumable rank-query session (one per job negotiation).

        Parameters
        ----------
        criterion:
            ``CHEAPEST`` ranks by ascending price, ``FASTEST`` by descending
            MIPS rating.
        min_processors:
            Only clusters with at least this many processors are considered;
            the DBC algorithm uses it to skip clusters that can never fit the
            job (their resource description is in the directory, so no
            negotiation message is needed to exclude them).
        """
        return DirectoryQuerySession(self, criterion, min_processors)

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

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"FederationDirectory(quotes={len(self._quotes)}, queries={self._stats.queries})"
