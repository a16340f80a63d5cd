"""The declarative :class:`Scenario` — one simulation run as plain data.

A :class:`Scenario` is a superset of :class:`~repro.core.federation.
FederationConfig`: beyond the sharing mode and QoS knobs it also *names* the
agent variant, pricing policy and workload source (resolved through the
:mod:`repro.scenario.registry` registries) and describes the resource set
(``system_size`` replication) and workload thinning.  Because every field is
either a primitive, an enum or a registry key, a scenario

* validates itself at construction (range checks plus registry/mode
  compatibility),
* hashes stably (:meth:`Scenario.scenario_hash`) so sweep runners can memoise
  completed points, and
* pickles cheaply, so the parallel sweep runner can ship it to worker
  processes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.cluster.lrms import SchedulingPolicy
from repro.core.federation import FederationConfig
from repro.core.policies import SharingMode
from repro.net.topology import TOPOLOGY_REGISTRY, available_topologies, canonical_topology
from repro.scenario.registry import (
    AGENT_REGISTRY,
    FAULT_REGISTRY,
    PRICING_REGISTRY,
    RESILIENCE_REGISTRY,
    WORKLOAD_REGISTRY,
)

__all__ = ["Scenario", "scenario_from_config"]


def _coerce_enum(value, enum_cls):
    """Accept an enum member, its value string or its (case-insensitive) name."""
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        lowered = value.lower()
        for member in enum_cls:
            if lowered == member.value or lowered == member.name.lower():
                return member
    raise ValueError(
        f"invalid {enum_cls.__name__} {value!r}; "
        f"expected one of {[m.value for m in enum_cls]}"
    )


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one simulation run, variants included.

    Attributes
    ----------
    mode:
        Sharing environment; also accepts the strings ``"independent"``,
        ``"federation"`` and ``"economy"``.
    agent:
        Key into the agent registry (``"default"``, ``"broadcast"``,
        ``"coordinated"``, or anything registered via ``@register_agent``).
    pricing:
        Key into the pricing registry (``"static"``, ``"demand"``).
    workload:
        Key into the workload registry (``"archive"``, ``"synthetic"``).
    oft_fraction, budget_factor, deadline_factor, lrms_policy, horizon,
    seed, keep_message_records:
        As for :class:`~repro.core.federation.FederationConfig`.
    system_size:
        Number of resources in the federation, reached by replicating the
        Table 1 clusters round-robin (``None`` = the eight Table 1 resources).
    thin:
        Keep every ``thin``-th job of each resource (1 = full workload).
    repricing_interval:
        Seconds between quote updates for demand-driven pricing variants.
    faults:
        Key into the fault registry (``"none"``, ``"crash-recover"``,
        ``"churn"``, ``"flaky-network"``, ``"load-spike"``, ``"chaos"``, or
        anything registered via ``@register_fault``).  The resolved
        :class:`~repro.faults.plan.FaultPlan` is seeded from this scenario's
        ``seed``, so a ``(seed, faults)`` pair reproduces exactly.
    transport:
        Key into the topology registry of the message fabric (``"uniform"``,
        ``"star"``, ``"ring"``, ``"two-tier-wan"``, or anything registered
        via :func:`repro.net.register_topology`).  ``"uniform"`` — the
        default — is the paper's zero-latency network and keeps runs
        byte-identical to the pre-transport code.
    directory_shards:
        Number of directory peers the federation's quotes are partitioned
        across by consistent key hashing (1 = the single shared directory;
        rank queries over more shards run scatter-gather merge sessions).
    resilience:
        Key into the resilience registry (``"paper"``, ``"noop"``,
        ``"retry"``, ``"retry-breaker"``, or anything registered via
        :func:`repro.scenario.register_resilience`).  ``"paper"`` — the
        default — installs nothing and keeps runs byte-identical to the
        pre-resilience code; active policies add bounded retry/backoff,
        per-peer circuit breakers and quote-TTL eviction to the negotiation
        path (see :mod:`repro.resilience`).
    parallel:
        Worker count for the conservative parallel engine (0 or 1 = the
        plain single-process run; ``N >= 2`` shards the federation across N
        workers, synchronised in lookahead windows — see :mod:`repro.par`).
        Values 0 and 1 are hash-transparent: they do not change
        :meth:`scenario_hash`, because the parallel engine is required to
        produce byte-identical result fingerprints and a worker knob must
        never invalidate a sweep memo.
    """

    mode: SharingMode = SharingMode.ECONOMY
    agent: str = "default"
    pricing: str = "static"
    workload: str = "archive"
    oft_fraction: float = 0.3
    budget_factor: float = 2.0
    deadline_factor: float = 2.0
    lrms_policy: SchedulingPolicy = SchedulingPolicy.FCFS
    horizon: float = 2 * 86_400.0
    seed: int = 42
    system_size: Optional[int] = None
    thin: int = 1
    repricing_interval: float = 4 * 3600.0
    faults: str = "none"
    transport: str = "uniform"
    directory_shards: int = 1
    keep_message_records: bool = False
    resilience: str = "paper"
    parallel: int = 0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", _coerce_enum(self.mode, SharingMode))
        object.__setattr__(
            self, "lrms_policy", _coerce_enum(self.lrms_policy, SchedulingPolicy)
        )
        if not 0.0 <= self.oft_fraction <= 1.0:
            raise ValueError(
                f"oft_fraction must lie in [0, 1], got {self.oft_fraction}"
            )
        if self.budget_factor <= 0:
            raise ValueError(f"budget_factor must be positive, got {self.budget_factor}")
        if self.deadline_factor <= 0:
            raise ValueError(
                f"deadline_factor must be positive, got {self.deadline_factor}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.thin < 1:
            raise ValueError(f"thin must be at least 1, got {self.thin}")
        if self.system_size is not None and self.system_size < 1:
            raise ValueError(f"system_size must be at least 1, got {self.system_size}")
        if self.repricing_interval <= 0:
            raise ValueError(
                f"repricing_interval must be positive, got {self.repricing_interval}"
            )
        if self.directory_shards < 1:
            raise ValueError(
                f"directory_shards must be at least 1, got {self.directory_shards}"
            )
        if self.parallel < 0:
            raise ValueError(f"parallel must be non-negative, got {self.parallel}")
        if self.transport not in TOPOLOGY_REGISTRY:
            raise ValueError(
                f"unknown transport topology {self.transport!r}; registered: "
                f"{', '.join(available_topologies())}"
            )
        # Aliases normalise to their canonical key so "wan" and
        # "two-tier-wan" hash (and memoise, and describe) identically.
        object.__setattr__(self, "transport", canonical_topology(self.transport))
        for registry, key in (
            (AGENT_REGISTRY, self.agent),
            (PRICING_REGISTRY, self.pricing),
            (WORKLOAD_REGISTRY, self.workload),
            (FAULT_REGISTRY, self.faults),
            (RESILIENCE_REGISTRY, self.resilience),
        ):
            entry = registry.entry(key)  # raises UnknownVariantError
            if not entry.supports(self.mode):
                supported = sorted(m.value for m in entry.modes)
                raise ValueError(
                    f"{registry.kind} variant {key!r} does not support "
                    f"mode {self.mode.value!r} (supported: {', '.join(supported)})"
                )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def to_config(self) -> FederationConfig:
        """The :class:`FederationConfig` slice of this scenario."""
        return FederationConfig(
            mode=self.mode,
            oft_fraction=self.oft_fraction,
            budget_factor=self.budget_factor,
            deadline_factor=self.deadline_factor,
            lrms_policy=self.lrms_policy,
            horizon=self.horizon,
            seed=self.seed,
            keep_message_records=self.keep_message_records,
            transport=self.transport,
            directory_shards=self.directory_shards,
            resilience=self.resilience,
        )

    def replace(self, **changes) -> "Scenario":
        """A copy of this scenario with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def scenario_hash(self) -> str:
        """Stable content hash of this scenario (hex, 64 characters).

        Two scenarios hash equal iff every field is equal; the hash is stable
        across processes and interpreter restarts, which is what lets
        :class:`~repro.scenario.runner.SweepRunner` memoise completed points.
        """
        payload = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "parallel" and value in (0, 1):
                # Worker counts <= 1 run the identical single-process path,
                # and >= 2 is fingerprint-identical by construction — keep
                # the degenerate values out of the hash so pre-parallel
                # sweep memos stay valid.
                continue
            if isinstance(value, enum.Enum):
                value = f"{type(value).__name__}.{value.name}"
            payload[field.name] = value
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line human summary used by the CLI and sweep reports."""
        size = self.system_size if self.system_size is not None else 8
        summary = (
            f"mode={self.mode.value} agent={self.agent} pricing={self.pricing} "
            f"workload={self.workload} oft={self.oft_fraction:.2f} "
            f"size={size} thin={self.thin} seed={self.seed}"
        )
        if self.faults != "none":
            summary += f" faults={self.faults}"
        if self.resilience != "paper":
            summary += f" resilience={self.resilience}"
        if self.transport != "uniform":
            summary += f" transport={self.transport}"
        if self.directory_shards != 1:
            summary += f" shards={self.directory_shards}"
        if self.parallel >= 2:
            summary += f" parallel={self.parallel}"
        return summary


def scenario_from_config(config: FederationConfig, **overrides) -> Scenario:
    """Lift a legacy :class:`FederationConfig` into a :class:`Scenario`.

    ``overrides`` set the scenario-only fields (``agent``, ``pricing``,
    ``workload``, ``system_size``, ``thin``, ...); the deprecation shims use
    this to funnel the old entry points through the new runner.
    """
    base = dict(
        mode=config.mode,
        oft_fraction=config.oft_fraction,
        budget_factor=config.budget_factor,
        deadline_factor=config.deadline_factor,
        lrms_policy=config.lrms_policy,
        horizon=config.horizon,
        seed=config.seed,
        keep_message_records=config.keep_message_records,
        transport=config.transport,
        directory_shards=config.directory_shards,
        resilience=config.resilience,
    )
    base.update(overrides)
    return Scenario(**base)
