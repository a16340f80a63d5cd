"""The message fabric: pluggable network transport between federation entities.

Layering (see ``docs/ARCHITECTURE.md``)::

    sim  ->  net  ->  core / p2p  ->  scenario

Everything that crosses an administrative boundary in the simulation — GFA↔GFA
negotiation and job migration, GFA↔directory control traffic, and the fault
injector's network perturbations — flows through one :class:`~repro.net.
transport.Transport` per federation.  The transport asks a
:class:`~repro.net.topology.Topology` for the link profile of each
``(src, dst)`` pair, applies fault-plan perturbation windows, records each
data-plane message once in its :class:`~repro.core.messages.MessageLog`, and
delivers: inline for zero-latency links (the paper's model, byte-identical to
the pre-transport code paths) or via the simulator for links with real
latency.

Topology models are registered by name (``uniform``, ``star``, ``ring``,
``two-tier-wan``) and selected with ``Scenario(transport=...)`` or
``gridfed run --topology ...``.
"""

from repro.net.topology import (
    LinkProfile,
    RingTopology,
    StarTopology,
    Topology,
    TwoTierWanTopology,
    UniformTopology,
    available_topologies,
    build_topology,
    canonical_topology,
    register_topology,
)
from repro.net.transport import (
    CONTROL_MESSAGE_MB,
    JOB_PAYLOAD_MB,
    Transport,
    TransportStats,
)

__all__ = [
    "LinkProfile",
    "Topology",
    "UniformTopology",
    "StarTopology",
    "RingTopology",
    "TwoTierWanTopology",
    "available_topologies",
    "build_topology",
    "canonical_topology",
    "register_topology",
    "Transport",
    "TransportStats",
    "CONTROL_MESSAGE_MB",
    "JOB_PAYLOAD_MB",
]
