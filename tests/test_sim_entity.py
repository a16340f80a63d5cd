"""Tests for the name → agent registry GFAs resolve each other through."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.cluster import ResourceSpec
from repro.core import Federation, FederationConfig, GridFederationAgent, SharingMode
from repro.net import Transport
from repro.p2p import FederationDirectory
from repro.sim import RandomStreams, SimulationError, Simulator
from repro.sim.entity import EntityRegistry
from repro.workload import build_federation_specs, build_workload
from repro.workload.archive import ARCHIVE_RESOURCES


def named(name):
    return SimpleNamespace(name=name)


class TestRegistry:
    def test_register_and_lookup(self):
        registry = EntityRegistry()
        probe = named("probe")
        registry.register(probe)
        assert registry.lookup("probe") is probe
        assert "probe" in registry
        assert len(registry) == 1

    def test_duplicate_names_rejected(self):
        registry = EntityRegistry()
        registry.register(named("gfa"))
        with pytest.raises(SimulationError):
            registry.register(named("gfa"))

    def test_unknown_lookup_raises(self):
        with pytest.raises(SimulationError):
            EntityRegistry().lookup("missing")

    def test_iteration_yields_entities(self):
        registry = EntityRegistry()
        names = {"a", "b", "c"}
        for name in sorted(names):
            registry.register(named(name))
        assert {e.name for e in registry} == names


def make_agent(sim, registry, name, directory=None, transport=None):
    return GridFederationAgent(
        sim=sim,
        registry=registry,
        spec=ResourceSpec(name=name, num_processors=8, mips=500.0, bandwidth_gbps=1.0, price=2.0),
        transport=transport if transport is not None else Transport(sim),
        mode=SharingMode.INDEPENDENT if directory is None else SharingMode.FEDERATION,
        directory=directory,
    )


class TestAgents:
    """GFAs register themselves; everything else resolves them by name."""

    def test_gfa_registers_itself_under_its_cluster_name(self):
        sim, registry = Simulator(), EntityRegistry()
        gfa = make_agent(sim, registry, "LANL CM5")
        assert registry.lookup("LANL CM5") is gfa
        assert (gfa.sim, gfa.name, gfa.registry) == (sim, "LANL CM5", registry)

    def test_second_agent_for_a_cluster_is_refused_before_it_subscribes(self):
        sim, registry = Simulator(), EntityRegistry()
        directory = FederationDirectory()
        transport = Transport(sim)
        directory.attach_transport(transport)
        first = make_agent(sim, registry, "CTC SP2", directory, transport)
        with pytest.raises(SimulationError, match="duplicate"):
            make_agent(sim, registry, "CTC SP2", directory, transport)
        assert registry.lookup("CTC SP2") is first
        assert len(directory) == 1
        assert transport.stats.control_by_kind == {"subscribe": 1}

    def test_federation_registry_holds_exactly_its_gfas(self):
        """Populations hand jobs to the GFA object they hold, so the registry
        names the GFAs alone."""
        resources = ARCHIVE_RESOURCES[:3]
        specs = build_federation_specs(resources)
        workload = build_workload(RandomStreams(7), resources)
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.FEDERATION))
        assert len(federation.registry) == len(specs)
        for spec in specs:
            assert federation.registry.lookup(spec.name) is federation.gfas[spec.name]
        assert f"users@{specs[0].name}" not in federation.registry

    def test_registry_pickles_with_the_agents_it_names(self):
        """Snapshots pickle the registry inside the agents' object graph: the
        copy's lookups return the copied agents, not fresh duplicates."""
        sim, registry = Simulator(), EntityRegistry()
        agents = [make_agent(sim, registry, name) for name in ("a", "b")]
        clone_registry, clone_agents = pickle.loads(pickle.dumps((registry, agents)))
        for agent in clone_agents:
            assert clone_registry.lookup(agent.name) is agent
            assert agent.registry is clone_registry
        assert clone_registry.lookup("a") is not agents[0]
