"""Decentralised federation-directory substrate.

The paper assumes that quotes are shared through "some efficient protocol
(e.g. a peer-to-peer protocol)" providing a decentralised database with
efficient updates and range/rank queries, and it models every directory query
as costing ``O(log n)`` messages.  This package keeps the directory's state
and charges each query that assumed cost:

* :class:`~repro.p2p.directory.FederationDirectory` — the
  ``subscribe / quote / unsubscribe / query`` interface of Fig. 1, keeping
  one sorted ranking per criterion (cheapest by quoted price, fastest by MIPS
  rating) plus optional load reports used by the coordination extension.
  A federation has exactly one, shared by all its GFAs.
* :class:`~repro.p2p.directory.DirectoryQuerySession` — one job's resumable
  rank probes; each probe is one query charged
  :func:`~repro.p2p.directory.theoretical_query_messages` messages.
"""

from repro.p2p.directory import (
    DirectoryQuote,
    DirectoryQuerySession,
    FederationDirectory,
    OverlayError,
    RankCriterion,
    theoretical_query_messages,
)

__all__ = [
    "OverlayError",
    "DirectoryQuote",
    "DirectoryQuerySession",
    "FederationDirectory",
    "RankCriterion",
    "theoretical_query_messages",
]
