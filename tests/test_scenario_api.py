"""Tests for the Scenario dataclass, its validation and the variant registries."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.federation import FederationConfig
from repro.core.gfa import GridFederationAgent
from repro.core.policies import SharingMode
from repro.scenario import (
    AGENT_REGISTRY,
    PRICING_REGISTRY,
    Scenario,
    UnknownVariantError,
    WORKLOAD_REGISTRY,
    scenario_from_config,
)
from repro.scenario.registry import VariantRegistry


class TestRegistries:
    def test_builtin_agents_registered(self):
        for key in ("default", "gfa", "ranked", "broadcast", "coordinated"):
            assert key in AGENT_REGISTRY
        assert AGENT_REGISTRY.get("default") is GridFederationAgent

    def test_builtin_pricing_and_workloads_registered(self):
        assert "static" in PRICING_REGISTRY
        assert "demand" in PRICING_REGISTRY
        assert "dynamic" in PRICING_REGISTRY
        assert "archive" in WORKLOAD_REGISTRY
        assert "synthetic" in WORKLOAD_REGISTRY

    def test_unknown_key_raises_with_known_variants_listed(self):
        with pytest.raises(UnknownVariantError) as excinfo:
            AGENT_REGISTRY.get("no-such-agent")
        message = str(excinfo.value)
        assert "no-such-agent" in message
        assert "broadcast" in message
        # UnknownVariantError is a KeyError, so dict-style handling works too.
        assert isinstance(excinfo.value, KeyError)

    def test_register_and_lookup_custom_variant(self):
        registry = VariantRegistry("agent")

        @registry.register("mine", aliases=("mine2",))
        class MyAgent(GridFederationAgent):
            pass

        assert registry.get("mine") is MyAgent
        assert registry.get("mine2") is MyAgent
        assert registry.available() == ["mine", "mine2"]

    def test_duplicate_registration_rejected(self):
        registry = VariantRegistry("pricing")
        registry.register("x")(object())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x")(object())

    def test_mode_restriction_recorded(self):
        entry = AGENT_REGISTRY.entry("broadcast")
        assert not entry.supports(SharingMode.INDEPENDENT)
        assert entry.supports(SharingMode.ECONOMY)
        assert AGENT_REGISTRY.entry("default").supports(SharingMode.INDEPENDENT)


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        scenario = Scenario()
        assert scenario.mode is SharingMode.ECONOMY
        assert scenario.agent == "default"

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_oft_fraction_range(self, value):
        with pytest.raises(ValueError, match=r"oft_fraction must lie in \[0, 1\]"):
            Scenario(oft_fraction=value)

    def test_budget_factor_positive(self):
        with pytest.raises(ValueError, match="budget_factor must be positive"):
            Scenario(budget_factor=0.0)

    def test_deadline_factor_positive(self):
        with pytest.raises(ValueError, match="deadline_factor must be positive"):
            Scenario(deadline_factor=-1.0)

    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            Scenario(horizon=0.0)

    def test_thin_at_least_one(self):
        with pytest.raises(ValueError, match="thin must be at least 1"):
            Scenario(thin=0)

    def test_system_size_at_least_one(self):
        with pytest.raises(ValueError, match="system_size must be at least 1"):
            Scenario(system_size=0)

    def test_unknown_agent_rejected_at_construction(self):
        with pytest.raises(UnknownVariantError):
            Scenario(agent="definitely-not-registered")

    def test_broadcast_agent_rejects_independent_mode(self):
        with pytest.raises(ValueError, match="does not support"):
            Scenario(agent="broadcast", mode=SharingMode.INDEPENDENT)

    def test_demand_pricing_rejects_federation_mode(self):
        with pytest.raises(ValueError, match="does not support"):
            Scenario(pricing="demand", mode=SharingMode.FEDERATION)

    def test_mode_accepts_strings(self):
        assert Scenario(mode="federation").mode is SharingMode.FEDERATION
        assert Scenario(mode="ECONOMY").mode is SharingMode.ECONOMY
        with pytest.raises(ValueError, match="invalid SharingMode"):
            Scenario(mode="anarchy")

    def test_lrms_policy_accepts_strings(self):
        from repro.cluster.lrms import SchedulingPolicy

        assert Scenario(lrms_policy="easy").lrms_policy is SchedulingPolicy.EASY_BACKFILL
        assert Scenario(lrms_policy="fcfs").lrms_policy is SchedulingPolicy.FCFS


class TestKernelKnobsAreGone:
    """The simulator has one event kernel, so nothing selects one."""

    def test_scenario_has_no_engine_field(self):
        assert "engine" not in {field.name for field in dataclasses.fields(Scenario)}
        with pytest.raises(TypeError, match="engine"):
            Scenario(engine="heap")

    def test_config_has_no_engine_or_workers_field(self):
        names = {field.name for field in dataclasses.fields(FederationConfig)}
        assert not names & {"engine", "workers"}
        for knob in ("engine", "workers"):
            with pytest.raises(TypeError, match=knob):
                FederationConfig(**{knob: "heap" if knob == "engine" else 2})


class TestFederationConfigValidation:
    def test_oft_fraction_range(self):
        with pytest.raises(ValueError, match=r"oft_fraction must lie in \[0, 1\], got 2.0"):
            FederationConfig(oft_fraction=2.0)

    def test_budget_factor_positive(self):
        with pytest.raises(ValueError, match="budget_factor must be positive, got 0"):
            FederationConfig(budget_factor=0)

    def test_deadline_factor_positive(self):
        with pytest.raises(ValueError, match="deadline_factor must be positive, got -2.0"):
            FederationConfig(deadline_factor=-2.0)

    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon must be positive, got -1"):
            FederationConfig(horizon=-1)


class TestScenarioDerivedViews:
    def test_to_config_round_trip(self):
        scenario = Scenario(mode="federation", oft_fraction=0.7, seed=7, horizon=1000.0)
        config = scenario.to_config()
        assert config.mode is SharingMode.FEDERATION
        assert config.oft_fraction == pytest.approx(0.7)
        assert config.seed == 7
        assert config.horizon == 1000.0
        lifted = scenario_from_config(config)
        assert lifted.mode is scenario.mode
        assert lifted.seed == scenario.seed

    def test_scenario_from_config_applies_overrides(self):
        scenario = scenario_from_config(
            FederationConfig(mode=SharingMode.ECONOMY), agent="broadcast", thin=5
        )
        assert scenario.agent == "broadcast"
        assert scenario.thin == 5

    def test_replace_revalidates(self):
        scenario = Scenario()
        with pytest.raises(ValueError):
            scenario.replace(oft_fraction=3.0)

    def test_scenario_pickles(self):
        scenario = Scenario(agent="coordinated", system_size=10)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario


class TestScenarioHash:
    def test_hash_is_hex_and_stable(self):
        a = Scenario(seed=1)
        b = Scenario(seed=1)
        assert a.scenario_hash() == b.scenario_hash()
        assert len(a.scenario_hash()) == 64
        int(a.scenario_hash(), 16)  # parses as hex

    def test_hash_changes_with_any_field(self):
        base = Scenario()
        assert base.scenario_hash() != Scenario(seed=43).scenario_hash()
        assert base.scenario_hash() != Scenario(thin=2).scenario_hash()
        assert base.scenario_hash() != Scenario(agent="broadcast").scenario_hash()
        assert base.scenario_hash() != Scenario(mode="federation").scenario_hash()

    def test_hash_survives_replace_round_trip(self):
        base = Scenario()
        assert base.replace(seed=99).replace(seed=42).scenario_hash() == base.scenario_hash()
