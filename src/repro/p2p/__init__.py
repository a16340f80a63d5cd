"""Decentralised federation-directory substrate.

The paper assumes that quotes are shared through "some efficient protocol
(e.g. a peer-to-peer protocol)" providing a decentralised database with
efficient updates and range/rank queries, and it models every directory query
as costing ``O(log n)`` messages.  This package implements that substrate
rather than assuming it:

* :class:`~repro.p2p.overlay.SkipListIndex` — an indexable skip list acting as
  the sorted overlay; rank (k-th) queries traverse ``O(log n)`` links and the
  traversal length is recorded as the query's hop count.
* :class:`~repro.p2p.directory.FederationDirectory` — the
  ``subscribe / quote / unsubscribe / query`` interface of Fig. 1, maintaining
  one overlay per ranking criterion (cheapest by quoted price, fastest by MIPS
  rating) plus optional load reports used by the coordination extension.
  A federation has exactly one, shared by all its GFAs.
"""

from repro.p2p.overlay import SkipListCursor, SkipListIndex, OverlayError
from repro.p2p.directory import (
    DirectoryQuote,
    DirectoryQuerySession,
    FederationDirectory,
    RankCriterion,
    theoretical_query_messages,
)

__all__ = [
    "SkipListCursor",
    "SkipListIndex",
    "OverlayError",
    "DirectoryQuote",
    "DirectoryQuerySession",
    "FederationDirectory",
    "RankCriterion",
    "theoretical_query_messages",
]
