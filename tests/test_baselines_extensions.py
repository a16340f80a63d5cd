"""Tests for the broadcast baseline, the related-systems catalogue and the extensions."""

from __future__ import annotations

import pytest

from repro.baselines import RELATED_SYSTEMS, related_systems_rows
from repro.core import FederationConfig, SharingMode
from repro.economy.pricing import DemandDrivenPricingPolicy
from repro.extensions.dynamic_pricing import DynamicPricingFederation
from repro.scenario import run_scenario, scenario_from_config
from repro.sim import RandomStreams
from repro.workload import build_federation_specs, build_workload
from repro.workload.archive import ARCHIVE_RESOURCES
from repro.workload.job import JobStatus

SMALL = ARCHIVE_RESOURCES[:4]


def setup(seed=9, thin=4):
    specs = build_federation_specs(SMALL)
    workload = {n: j[::thin] for n, j in build_workload(RandomStreams(seed), SMALL).items()}
    return specs, workload


class TestCatalogue:
    def test_table4_has_ten_systems_with_grid_federation_coordinated(self):
        assert len(RELATED_SYSTEMS) == 10
        by_name = {s.name: s for s in RELATED_SYSTEMS}
        assert by_name["Grid-Federation"].scheduling_mechanism == "Coordinated"
        assert by_name["Grid-Federation"].scheduling_parameters == "User-centric"
        assert by_name["Nimrod-G"].scheduling_mechanism == "Non-coordinated"

    def test_rows_ready_for_rendering(self):
        headers, rows = related_systems_rows()
        assert len(rows) == 10
        assert all(len(r) == len(headers) for r in rows)


class TestBroadcastBaseline:
    def test_broadcast_uses_more_messages_than_directory_ranking(self):
        """Ablation A: broadcast costs O(n) messages per migrated job, the
        Grid-Federation's ranked iteration far fewer on the same workload."""
        specs, workload_a = setup()
        _, workload_b = setup()
        config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.3, seed=1)
        ranked = run_scenario(scenario_from_config(config), specs=specs, workload=workload_a)
        broadcast = run_scenario(
            scenario_from_config(config, agent="broadcast"), specs=specs, workload=workload_b
        )
        migrated_ranked = sum(o.stats.migrated_out for o in ranked.resources.values())
        migrated_broadcast = sum(o.stats.migrated_out for o in broadcast.resources.values())
        if migrated_broadcast and migrated_ranked:
            per_job_ranked = ranked.message_log.total_messages / migrated_ranked
            per_job_broadcast = broadcast.message_log.total_messages / migrated_broadcast
            assert per_job_broadcast > per_job_ranked

    def test_broadcast_jobs_reach_terminal_states(self):
        specs, workload = setup()
        result = run_scenario(
            scenario_from_config(
                FederationConfig(mode=SharingMode.ECONOMY, seed=1), agent="broadcast"
            ),
            specs=specs,
            workload=workload,
        )
        assert all(j.status in (JobStatus.COMPLETED, JobStatus.REJECTED) for j in result.jobs)
        assert result.total_incentive() > 0

    def test_broadcast_rejects_independent_mode(self):
        with pytest.raises(ValueError, match="does not support mode"):
            scenario_from_config(
                FederationConfig(mode=SharingMode.INDEPENDENT), agent="broadcast"
            )


class TestCoordinationExtension:
    def test_coordination_never_increases_negotiation_messages(self):
        specs, workload_a = setup()
        _, workload_b = setup()
        config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.3, seed=1)
        base = run_scenario(scenario_from_config(config), specs=specs, workload=workload_a)
        coordinated = run_scenario(
            scenario_from_config(config, agent="coordinated"), specs=specs, workload=workload_b
        )
        assert coordinated.message_log.total_messages <= base.message_log.total_messages
        # The directory actually absorbed load reports.
        assert coordinated.directory.load_updates > 0

    def test_coordination_preserves_terminal_states(self):
        specs, workload = setup()
        result = run_scenario(
            scenario_from_config(
                FederationConfig(mode=SharingMode.ECONOMY, seed=1), agent="coordinated"
            ),
            specs=specs,
            workload=workload,
        )
        assert all(j.status in (JobStatus.COMPLETED, JobStatus.REJECTED) for j in result.jobs)

    def test_coordination_rejects_independent_mode(self):
        with pytest.raises(ValueError, match="does not support mode"):
            scenario_from_config(
                FederationConfig(mode=SharingMode.INDEPENDENT), agent="coordinated"
            )


class TestDynamicPricingExtension:
    def test_prices_respond_to_demand(self):
        specs, workload = setup()
        federation = DynamicPricingFederation(
            specs,
            workload,
            FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.0, seed=1),
            pricing_policy=DemandDrivenPricingPolicy(sensitivity=1.0),
            repricing_interval=6 * 3600.0,
        )
        result = federation.run()
        assert federation.repricings > 0
        # Every resource has a recorded price trajectory and at least one
        # resource's price moved away from its static quote.
        assert set(federation.price_history) == {s.name for s in specs}
        moved = any(
            len(set(round(p, 6) for p in history)) > 1
            for history in federation.price_history.values()
        )
        assert moved
        assert all(j.status in (JobStatus.COMPLETED, JobStatus.REJECTED) for j in result.jobs)

    def test_demand_pricing_scenario_runs(self):
        specs, workload = setup(thin=8)
        result = run_scenario(
            scenario_from_config(
                FederationConfig(mode=SharingMode.ECONOMY, seed=2), pricing="demand"
            ),
            specs=specs,
            workload=workload,
        )
        assert result.total_incentive() > 0

    def test_requires_economy_mode_and_positive_interval(self):
        specs, workload = setup(thin=8)
        with pytest.raises(ValueError):
            DynamicPricingFederation(
                specs, workload, FederationConfig(mode=SharingMode.FEDERATION)
            )
        with pytest.raises(ValueError):
            DynamicPricingFederation(
                specs,
                workload,
                FederationConfig(mode=SharingMode.ECONOMY),
                repricing_interval=0.0,
            )
