"""Tests for the Scenario dataclass, its validation and the variant registries."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.federation import FederationConfig
from repro.core.gfa import GridFederationAgent
from repro.core.policies import SharingMode
from repro.scenario import (
    AGENT_REGISTRY,
    PRICING_REGISTRY,
    Scenario,
    UnknownVariantError,
    WORKLOAD_REGISTRY,
    run_scenario,
    scenario_from_config,
)
from repro.scenario.registry import VariantRegistry
from repro.sim import RandomStreams
from repro.workload import build_federation_specs, build_workload
from repro.workload.archive import ARCHIVE_RESOURCES


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


class TestScenarioFromConfigRuns:
    """A ``FederationConfig`` lifted by ``scenario_from_config`` and run on
    explicit specs and workload, as the examples and the ablation benchmarks
    do, runs like the equivalent Scenario building its own inputs."""

    RESOURCES = ARCHIVE_RESOURCES[:4]
    THIN = 8

    def _explicit_inputs(self, seed):
        specs = build_federation_specs(self.RESOURCES)
        workload = {
            name: jobs[:: self.THIN]
            for name, jobs in build_workload(RandomStreams(seed), self.RESOURCES).items()
        }
        return specs, workload

    @staticmethod
    def _summary(result):
        return (
            len(result.jobs),
            result.message_log.total_messages,
            tuple(
                (name, round(outcome.incentive, 9))
                for name, outcome in sorted(result.resources.items())
            ),
        )

    def test_runs_every_supplied_job_under_the_config_mode(self):
        specs, workload = self._explicit_inputs(seed=9)
        config = FederationConfig(mode=SharingMode.ECONOMY, seed=1)
        result = run_scenario(scenario_from_config(config), specs=specs, workload=workload)
        assert len(result.jobs) == sum(len(jobs) for jobs in workload.values())
        assert result.config.mode is SharingMode.ECONOMY

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"agent": "broadcast"}, {"agent": "coordinated"}, {"pricing": "demand"}],
        ids=["default", "broadcast", "coordinated", "demand"],
    )
    def test_explicit_inputs_run_like_the_built_scenario(self, overrides):
        specs, workload = self._explicit_inputs(seed=3)
        config = FederationConfig(mode=SharingMode.ECONOMY, seed=3)
        lifted = run_scenario(
            scenario_from_config(config, **overrides), specs=specs, workload=workload
        )
        built = run_scenario(
            Scenario(mode=SharingMode.ECONOMY, seed=3, thin=self.THIN, **overrides),
            resources=self.RESOURCES,
        )
        assert lifted.config.mode is SharingMode.ECONOMY
        assert self._summary(lifted) == self._summary(built)


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


class TestRemovedEntryPointsTable:
    """The "Removed entry points" table in docs/API.md matches the package:
    the old names are importable from nowhere, and every replacement is
    importable from ``repro`` or ``repro.experiments``."""

    PACKAGES = ("repro.core", "repro.experiments", "repro.baselines", "repro.extensions")

    def _modules(self):
        modules = [repro]
        for name in self.PACKAGES:
            package = importlib.import_module(name)
            modules.append(package)
            modules.extend(
                importlib.import_module(info.name)
                for info in pkgutil.iter_modules(package.__path__, name + ".")
            )
        return modules

    def test_removed_names_are_gone_and_replacements_exist(self):
        api = (Path(__file__).resolve().parents[1] / "docs" / "API.md").read_text()
        section = api.split("## Removed entry points", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        assert len(rows) == 9
        modules = self._modules()
        public = (repro, importlib.import_module("repro.experiments"))
        for removed, replacement in rows:
            for name in re.findall(r"(\w+)\(", removed):
                assert not [m.__name__ for m in modules if hasattr(m, name)], name
            for name in re.findall(r"(\w+)\(", replacement):
                assert any(hasattr(m, name) for m in public), name


class TestRemovedParametersTable:
    """Every name the "Removed parameters and flags" table in docs/API.md
    spells out is gone: ``Owner.member`` attributes, ``function(...,
    name=...)`` keyword parameters and ``gridfed <command> --flag``
    options."""

    #: Where the owners and functions the table names live.
    MODULES = ("repro", "repro.p2p", "repro.perf", "repro.service.daemon")

    def _removed_cells(self):
        api = (Path(__file__).resolve().parents[1] / "docs" / "API.md").read_text()
        section = api.split("## Removed parameters and flags", 1)[1].split("\n## ", 1)[0]
        return " ".join(
            line.split("|")[1] for line in section.splitlines() if line.startswith("| `")
        )

    def _lookup(self, name):
        for module in map(importlib.import_module, self.MODULES):
            if hasattr(module, name):
                return getattr(module, name)
        raise AssertionError(f"{name} is defined in none of {self.MODULES}")

    def test_members_are_gone(self):
        members = re.findall(r"`(\w+)\.(\w+)`", self._removed_cells())
        assert len(members) == 5
        for owner, member in members:
            assert not hasattr(self._lookup(owner), member), f"{owner}.{member}"

    def test_keyword_parameters_are_gone(self):
        parameters = re.findall(r"`(\w+)\(\.\.\., (\w+)=[^`]*\)`", self._removed_cells())
        assert len(parameters) == 3
        for function, name in parameters:
            signature = inspect.signature(self._lookup(function))
            assert name not in signature.parameters, f"{function}({name}=)"

    def test_flags_are_gone(self, capsys):
        from repro.cli import build_parser

        flags = re.findall(r"`gridfed (\w+) (--[\w-]+)`", self._removed_cells())
        assert len(flags) == 1
        for command, flag in flags:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, flag, "x"])
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_directories_hold_no_cache(self):
        from repro.p2p import FederationDirectory, ShardedDirectory

        rng = np.random.default_rng(0)
        for directory in (FederationDirectory(rng=rng), ShardedDirectory([rng, rng])):
            assert not [name for name in vars(directory) if "cache" in name]
