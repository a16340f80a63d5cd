"""Grid-Federation core: GFAs, DBC scheduling, messages and orchestration.

This package implements the paper's primary contribution — the cooperative,
incentive-based coupling of distributed clusters:

* :class:`~repro.core.gfa.GridFederationAgent` — per-cluster agent combining a
  distributed information manager (directory interaction) and a resource
  manager (admission control + LRMS management);
* :class:`~repro.core.admission.AdmissionController` — the one-to-one
  admission-control negotiation decision;
* :class:`~repro.core.messages.MessageLog` — negotiate / reply /
  job-submission / job-completion accounting of Experiments 4 and 5;
* :class:`~repro.core.policies.SharingMode` — independent, federation and
  economy (DBC) sharing environments;
* :class:`~repro.core.federation.Federation` — orchestration of a complete
  simulation run, returning a :class:`~repro.core.federation.FederationResult`.
"""

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.federation import (
    Federation,
    FederationConfig,
    FederationResult,
    ResourceOutcome,
)
from repro.core.gfa import GFAStatistics, GridFederationAgent
from repro.core.messages import GFAMessageCounters, MessageLog, MessageType
from repro.core.policies import SharingMode, rank_criterion_for
from repro.core.users import UserPopulation, start_populations

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Federation",
    "FederationConfig",
    "FederationResult",
    "ResourceOutcome",
    "GFAStatistics",
    "GridFederationAgent",
    "GFAMessageCounters",
    "MessageLog",
    "MessageType",
    "SharingMode",
    "rank_criterion_for",
    "UserPopulation",
    "start_populations",
]
