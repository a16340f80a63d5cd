"""End-to-end fault runs: the acceptance demonstrations of the subsystem.

* an *empty* fault plan is byte-identical to a plain run (zero-fault path);
* the canonical seeded crash/recover plan drives all five experiment shapes
  to completion with every invariant checker passing;
* fingerprints are deterministic for a fixed ``(seed, plan)``;
* the individual fault mechanics (kill + re-negotiate, lazy discovery,
  graceful churn, load spikes, lossy networks) leave the observable traces
  they are supposed to.
"""

from __future__ import annotations

import pytest

from _shapes import EXPERIMENT_SHAPES, HORIZON, canonical_crash_plan
from repro.faults import FaultPlan
from repro.metrics.collectors import downtime_by_resource, fault_metrics, sla_violation_rate
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.validate import validate_result
from repro.workload.job import JobStatus

ECONOMY = EXPERIMENT_SHAPES["exp3_economy"]


class TestZeroFaultPath:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        """`FaultPlan()` must not perturb anything: same fingerprint as a run
        that never heard of the faults package."""
        plain = run_scenario(ECONOMY)
        with_empty_plan = run_scenario(ECONOMY, fault_plan=FaultPlan())
        assert result_fingerprint(plain) == result_fingerprint(with_empty_plan)
        assert with_empty_plan.faults is None

    def test_faults_none_key_is_byte_identical_too(self):
        plain = run_scenario(ECONOMY)
        via_registry = run_scenario(ECONOMY.replace(faults="none"))
        assert result_fingerprint(plain) == result_fingerprint(via_registry)

    def test_zero_fault_run_has_no_fault_artifacts(self):
        result = run_scenario(ECONOMY)
        assert result.failed_jobs() == []
        assert all(job.resubmissions == 0 for job in result.jobs)
        assert result.network.timeouts == 0
        assert result.network.transit_losses == 0


class TestCanonicalCrashPlanAcrossAllShapes:
    @pytest.mark.parametrize("name", sorted(EXPERIMENT_SHAPES))
    def test_shape_completes_with_all_invariants_passing(self, name):
        result = run_scenario(
            EXPERIMENT_SHAPES[name], fault_plan=canonical_crash_plan(), validate=True
        )
        assert validate_result(result) == []
        assert result.faults is not None
        assert result.faults.crashes == 2
        # every submitted job reached a terminal state
        terminal = (JobStatus.COMPLETED, JobStatus.REJECTED, JobStatus.FAILED)
        assert all(job.status in terminal for job in result.jobs)

    def test_economy_shape_exercises_the_full_fault_machinery(self, crash_plan):
        result = run_scenario(ECONOMY, fault_plan=crash_plan)
        report = result.faults
        metrics = fault_metrics(result)
        # crashes landed on busy clusters: work was killed and re-negotiated
        assert report.renegotiations > 0
        assert any(job.resubmissions > 0 for job in result.jobs)
        # dead clusters were discovered through negotiation timeouts
        assert report.negotiation_timeouts > 0
        assert result.network.timeouts == report.negotiation_timeouts
        # some jobs were attributably lost (crashed origin or transit loss)
        assert metrics.jobs_lost > 0
        assert all(job.failure for job in result.failed_jobs())
        # downtime covers both crash windows
        downtime = downtime_by_resource(result)
        assert downtime["LANL Origin"] == pytest.approx(9_000.0)
        assert downtime["KTH SP2"] == pytest.approx(4_000.0)
        # degraded service shows up as SLA violations among completions
        assert sla_violation_rate(result) > 0.0

    def test_fingerprint_deterministic_for_fixed_seed_and_plan(self, crash_plan):
        first = run_scenario(ECONOMY, fault_plan=crash_plan)
        second = run_scenario(ECONOMY, fault_plan=crash_plan)
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_different_seed_changes_the_outcome(self, crash_plan):
        base = run_scenario(ECONOMY, fault_plan=crash_plan)
        other = run_scenario(ECONOMY.replace(seed=43), fault_plan=crash_plan)
        assert result_fingerprint(base) != result_fingerprint(other)


class TestFaultMechanics:
    def test_crash_kills_and_recovery_restores_service(self):
        plan = FaultPlan().crash("LANL Origin", at=5_000.0, duration=9_000.0)
        result = run_scenario(ECONOMY, fault_plan=plan, validate=True)
        report = result.faults
        assert report.crashes == 1 and report.recoveries == 1
        assert report.downtime["LANL Origin"] == pytest.approx(9_000.0)
        # the cluster worked again after recovery
        lanl_completions = [
            job
            for job in result.completed_jobs()
            if job.executed_on == "LANL Origin" and job.finish_time > 14_000.0
        ]
        assert lanl_completions
        # and it is back in the directory at the end
        assert result.directory.is_subscribed("LANL Origin")

    def test_unrecovered_crash_leaves_cluster_out(self):
        plan = FaultPlan().crash("LANL Origin", at=5_000.0)  # never recovers
        result = run_scenario(ECONOMY, fault_plan=plan, validate=True)
        assert result.faults.recoveries == 0
        # downtime extends to the end of the observation period
        assert result.faults.downtime["LANL Origin"] == pytest.approx(
            result.observation_period - 5_000.0
        )
        # local submissions while down were attributably lost
        lost_reasons = {job.failure for job in result.failed_jobs()}
        assert any("down at submission" in reason for reason in lost_reasons)

    def test_graceful_churn_serves_locally_and_rejoins(self):
        plan = FaultPlan().leave("LANL Origin", at=1_000.0).rejoin("LANL Origin", at=20_000.0)
        result = run_scenario(ECONOMY, fault_plan=plan, validate=True)
        assert result.faults.departures == 1 and result.faults.rejoins == 1
        # graceful churn loses nothing — jobs are only rejected, never failed
        assert result.failed_jobs() == []
        assert result.directory.is_subscribed("LANL Origin")

    def test_load_spike_degrades_the_target_cluster(self):
        spike = FaultPlan().load_spike("LANL Origin", at=2_000.0, duration=8_000.0, fraction=0.9)
        clean = run_scenario(ECONOMY)
        spiked = run_scenario(ECONOMY, fault_plan=spike, validate=True)
        assert spiked.faults.load_spikes == 1
        assert spiked.faults.background_jobs == 1
        # background load is not part of the workload accounting...
        assert len(spiked.jobs) == len(clean.jobs)
        # ...but it occupies the cluster: utilisation goes up, or work that
        # ran there moves elsewhere
        assert result_fingerprint(spiked) != result_fingerprint(clean)

    def test_lossy_network_times_out_negotiations(self):
        plan = FaultPlan().perturb(0.0, 2 * HORIZON, loss_rate=0.5)
        result = run_scenario(ECONOMY, fault_plan=plan, validate=True)
        assert result.faults.negotiation_timeouts > 0
        # lost round trips recorded their NEGOTIATE but no REPLY
        from repro.core.messages import MessageType

        log = result.message_log
        assert log.count_by_type(MessageType.NEGOTIATE) > log.count_by_type(MessageType.REPLY)

    def test_unknown_fault_target_is_rejected_at_install_time(self):
        plan = FaultPlan().crash("No Such Cluster", at=1.0)
        with pytest.raises(ValueError, match="unknown clusters"):
            run_scenario(ECONOMY, fault_plan=plan)


class TestFaultVariantsThroughScenarioAPI:
    @pytest.mark.parametrize("key", ["crash-recover", "churn", "flaky-network", "load-spike", "chaos"])
    def test_builtin_variant_runs_and_validates(self, key):
        scenario = ECONOMY.replace(faults=key, thin=20)
        result = run_scenario(scenario, validate=True)
        assert validate_result(result) == []
        assert result.faults is not None

    def test_variant_plans_are_seed_deterministic(self):
        scenario = ECONOMY.replace(faults="crash-recover", thin=20)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_unknown_variant_fails_scenario_validation(self):
        with pytest.raises(KeyError):
            Scenario(faults="definitely-not-registered")

    def test_faults_key_participates_in_scenario_hash(self):
        assert ECONOMY.scenario_hash() != ECONOMY.replace(faults="chaos").scenario_hash()
