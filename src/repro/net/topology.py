"""Topology / latency models behind the transport layer.

A :class:`Topology` maps an ordered ``(src, dst)`` entity pair to a
:class:`LinkProfile` — one-way latency, bandwidth and datagram loss rate.
The transport consults it for every cross-entity message; the profile decides
how long a transfer takes and whether a control round trip can be lost.

Four models ship built in:

``uniform``
    Zero latency, infinite bandwidth, no loss on every pair.  This is the
    paper's implicit network model and the default: with it the transport
    delivers everything inline and a federation run is byte-identical to the
    pre-transport code paths.
``star``
    Every message crosses a central hub (two hops of fixed latency) — the
    classic single-exchange-point deployment.
``ring``
    Latency proportional to the ring distance between the two entities'
    positions, as in a sequential token-ring style overlay.
``two-tier-wan``
    Entities are grouped into sites; intra-site links are LAN-like while each
    site pair gets WAN latency / bandwidth / loss drawn once from the
    dedicated ``"net/latency"`` RNG stream, so a seed reproduces the same WAN
    weather every run.

Custom models register with :func:`register_topology` and become valid
``Scenario(transport=...)`` / ``gridfed run --topology`` values::

    from repro.net import register_topology, Topology, LinkProfile

    @register_topology("lossy-lan")
    def _lossy_lan(names, rng):
        return UniformTopology(latency_s=1e-3, loss_rate=0.01)
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LinkProfile",
    "Topology",
    "UniformTopology",
    "StarTopology",
    "RingTopology",
    "TwoTierWanTopology",
    "TOPOLOGY_REGISTRY",
    "register_topology",
    "build_topology",
    "available_topologies",
]


@dataclass(frozen=True)
class LinkProfile:
    """The network characteristics of one directed entity pair.

    Attributes
    ----------
    latency_s:
        One-way propagation latency in seconds.
    bandwidth_gbps:
        Link bandwidth in gigabits per second (``inf`` = transfer time zero).
    loss_rate:
        Probability that one *datagram-style* round trip (negotiate/reply) is
        lost on this link.  Bulk transfers (job submissions) are modelled as
        reliable streams — they retransmit and only pay latency — so link
        loss never silently destroys a job (see ``Transport.transfer``).
    """

    latency_s: float = 0.0
    bandwidth_gbps: float = math.inf
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or not math.isfinite(self.latency_s):
            raise ValueError(f"latency must be finite and non-negative, got {self.latency_s!r}")
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_gbps!r}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate must lie in [0, 1), got {self.loss_rate!r}")

    def transfer_seconds(self, size_mb: float) -> float:
        """Latency plus serialisation time for ``size_mb`` megabytes."""
        if not math.isfinite(self.bandwidth_gbps):
            return self.latency_s
        return self.latency_s + size_mb * 8e6 / (self.bandwidth_gbps * 1e9)


#: The profile of an entity talking to itself (never charged by the transport).
LOOPBACK = LinkProfile()


class Topology:
    """Base class: maps ``(src, dst)`` entity pairs to link profiles."""

    #: Registry key this instance was built from (set by :func:`build_topology`).
    name: str = "custom"

    #: True when *every* link is free — zero latency, infinite bandwidth, no
    #: loss — so the transport may take its allocation-free fast path (no
    #: per-message link lookups, no loss draws).  Conservatively False for
    #: custom models; :class:`UniformTopology` computes it from its profile.
    free: bool = False

    def link(self, src: str, dst: str) -> LinkProfile:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human summary used by the CLI."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}({self.describe()!r})"


class UniformTopology(Topology):
    """Every pair shares one profile; the zero-default is the paper's model."""

    def __init__(
        self,
        latency_s: float = 0.0,
        bandwidth_gbps: float = math.inf,
        loss_rate: float = 0.0,
    ):
        self._profile = LinkProfile(
            latency_s=latency_s, bandwidth_gbps=bandwidth_gbps, loss_rate=loss_rate
        )
        self.free = self._profile == LOOPBACK

    def link(self, src: str, dst: str) -> LinkProfile:
        if src == dst:
            return LOOPBACK
        return self._profile

    def describe(self) -> str:
        profile = self._profile
        if profile == LOOPBACK:
            return "uniform (zero latency)"
        return (
            f"uniform (latency {profile.latency_s * 1e3:.1f} ms, "
            f"loss {profile.loss_rate:.1%})"
        )


class StarTopology(Topology):
    """All traffic crosses one hub: two hops of fixed latency per message."""

    def __init__(self, hop_latency_s: float = 2e-3, bandwidth_gbps: float = 10.0):
        self.hop_latency_s = float(hop_latency_s)
        self._profile = LinkProfile(
            latency_s=2.0 * self.hop_latency_s, bandwidth_gbps=bandwidth_gbps
        )

    def link(self, src: str, dst: str) -> LinkProfile:
        if src == dst:
            return LOOPBACK
        return self._profile

    def describe(self) -> str:
        return f"star (hub hop {self.hop_latency_s * 1e3:.1f} ms)"


class RingTopology(Topology):
    """Latency proportional to the ring distance between entity positions.

    Entities unknown to the ring (the directory's control-plane nodes, probes
    in tests) are charged a single hop.
    """

    def __init__(
        self,
        names: Sequence[str],
        hop_latency_s: float = 1e-3,
        bandwidth_gbps: float = 10.0,
    ):
        if not names:
            raise ValueError("a ring topology needs at least one entity name")
        self.hop_latency_s = float(hop_latency_s)
        self.bandwidth_gbps = float(bandwidth_gbps)
        self._position: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self._size = len(self._position)

    def hops_between(self, src: str, dst: str) -> int:
        """Shortest ring distance between two entities (1 for strangers)."""
        a = self._position.get(src)
        b = self._position.get(dst)
        if a is None or b is None:
            return 1
        forward = (b - a) % self._size
        return min(forward, self._size - forward) or 1

    def link(self, src: str, dst: str) -> LinkProfile:
        if src == dst:
            return LOOPBACK
        return LinkProfile(
            latency_s=self.hops_between(src, dst) * self.hop_latency_s,
            bandwidth_gbps=self.bandwidth_gbps,
        )

    def describe(self) -> str:
        return f"ring ({self._size} positions, hop {self.hop_latency_s * 1e3:.1f} ms)"


class TwoTierWanTopology(Topology):
    """LAN sites joined by a WAN whose links are drawn from a seeded stream.

    Entities are assigned round-robin to ``sites``; intra-site traffic pays a
    fixed LAN latency while every (unordered) site pair gets its own WAN
    latency, bandwidth and datagram-loss rate drawn once at construction from
    the ``"net/latency"`` stream.  The draw order is the sorted site-pair
    order, so a ``(seed, sites)`` pair reproduces identical WAN weather
    independently of query order.
    """

    def __init__(
        self,
        names: Sequence[str],
        rng: Optional[np.random.Generator] = None,
        sites: int = 4,
        lan_latency_s: float = 5e-4,
        lan_bandwidth_gbps: float = 10.0,
        wan_latency_range_s: Tuple[float, float] = (0.02, 0.15),
        wan_bandwidth_range_gbps: Tuple[float, float] = (0.5, 2.5),
        wan_loss_range: Tuple[float, float] = (0.0, 0.02),
    ):
        if not names:
            raise ValueError("a WAN topology needs at least one entity name")
        if sites < 1:
            raise ValueError(f"sites must be at least 1, got {sites}")
        if rng is None:
            # An unseeded generator would silently break the repo's
            # reproducibility contract (every run gets different WAN
            # weather); demand the seeded "net/latency" stream instead.
            raise ValueError(
                "TwoTierWanTopology requires a seeded rng (the federation's "
                '"net/latency" stream)'
            )
        self.sites = min(sites, len(names))
        self._site_of: Dict[str, int] = {
            name: i % self.sites for i, name in enumerate(names)
        }
        self._lan = LinkProfile(latency_s=lan_latency_s, bandwidth_gbps=lan_bandwidth_gbps)
        self._wan: Dict[Tuple[int, int], LinkProfile] = {}
        for a in range(self.sites):
            for b in range(a + 1, self.sites):
                self._wan[(a, b)] = LinkProfile(
                    latency_s=float(rng.uniform(*wan_latency_range_s)),
                    bandwidth_gbps=float(rng.uniform(*wan_bandwidth_range_gbps)),
                    loss_rate=float(rng.uniform(*wan_loss_range)),
                )

    def site_of(self, name: str) -> int:
        """The site an entity lives in (strangers hash onto a stable site)."""
        site = self._site_of.get(name)
        if site is None:
            site = zlib.crc32(name.encode("utf-8")) % self.sites
        return site

    def link(self, src: str, dst: str) -> LinkProfile:
        if src == dst:
            return LOOPBACK
        # Members resolve by one dict lookup each; only strangers hash.
        site_of = self._site_of
        a = site_of.get(src)
        if a is None:
            a = self.site_of(src)
        b = site_of.get(dst)
        if b is None:
            b = self.site_of(dst)
        if a == b:
            return self._lan
        return self._wan[(a, b) if a < b else (b, a)]

    def describe(self) -> str:
        worst = max((p.latency_s for p in self._wan.values()), default=0.0)
        return f"two-tier-wan ({self.sites} sites, worst WAN latency {worst * 1e3:.0f} ms)"


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: name -> factory ``(names, rng) -> Topology``.
TOPOLOGY_REGISTRY: Dict[str, Callable[[Sequence[str], Optional[np.random.Generator]], Topology]] = {}
#: name (canonical or alias) -> canonical key.
_CANONICAL: Dict[str, str] = {}


def register_topology(key: str, *aliases: str):
    """Decorator registering a topology factory under ``key`` (and aliases).

    Factories take ``(entity_names, rng)`` — the rng is the federation's
    dedicated ``"net/latency"`` stream — and return a :class:`Topology`.
    Registration is atomic: a name collision anywhere in ``(key, *aliases)``
    raises before any of them is installed.
    """

    def decorate(factory):
        names = (key, *aliases)
        for name in names:
            if name in TOPOLOGY_REGISTRY:
                raise ValueError(f"topology {name!r} is already registered")
        for name in names:
            TOPOLOGY_REGISTRY[name] = factory
            _CANONICAL[name] = key
        return factory

    return decorate


def canonical_topology(key: str) -> str:
    """Resolve a registry name (canonical or alias) to its canonical key.

    Scenario validation runs every ``transport`` through this, so aliases
    (``"wan"``, ``"none"``) and their canonical names hash — and memoise —
    identically.
    """
    try:
        return _CANONICAL[key]
    except KeyError:
        raise ValueError(
            f"unknown topology {key!r}; registered topologies: "
            f"{', '.join(available_topologies())}"
        ) from None


def available_topologies() -> List[str]:
    """All registered topology names, sorted."""
    return sorted(TOPOLOGY_REGISTRY)


def build_topology(
    key: str,
    names: Sequence[str],
    rng: Optional[np.random.Generator] = None,
) -> Topology:
    """Resolve a registry key into a topology over ``names``."""
    try:
        factory = TOPOLOGY_REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown topology {key!r}; registered topologies: "
            f"{', '.join(available_topologies())}"
        ) from None
    topology = factory(names, rng)
    topology.name = key
    return topology


@register_topology("uniform", "none")
def _uniform(names: Sequence[str], rng) -> Topology:
    return UniformTopology()


@register_topology("star")
def _star(names: Sequence[str], rng) -> Topology:
    return StarTopology()


@register_topology("ring")
def _ring(names: Sequence[str], rng) -> Topology:
    return RingTopology(names)


@register_topology("two-tier-wan", "wan")
def _two_tier_wan(names: Sequence[str], rng) -> Topology:
    return TwoTierWanTopology(names, rng=rng)
