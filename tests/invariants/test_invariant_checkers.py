"""The invariant checkers themselves: clean runs pass, corrupted runs fail.

The second half is a *mutation-test* suite: each test deliberately injects
one accounting bug into an otherwise valid result and asserts that exactly
the right checker catches it.  A checker that cannot catch its own target
corruption is decoration, not validation.
"""

from __future__ import annotations

import pytest

from _shapes import EXPERIMENT_SHAPES, canonical_crash_plan
from repro.scenario import Scenario, run_scenario
from repro.validate import (
    InvariantViolation,
    RuntimeValidator,
    assert_valid,
    check_budget_accounting,
    check_directory_consistency,
    check_fault_attribution,
    check_job_conservation,
    check_message_accounting,
    check_timeline_consistency,
    validate_result,
)
from repro.workload.job import JobStatus


def _federation(scenario: Scenario):
    """A built, unstarted federation for ``scenario``, as ``run_scenario``
    would build it, without faults or a validator."""
    from repro.scenario.registry import AGENT_REGISTRY, PRICING_REGISTRY, WORKLOAD_REGISTRY
    from repro.scenario.runner import resolve_resources
    from repro.sim.rng import RandomStreams
    from repro.workload.archive import build_federation_specs
    from repro.workload.job import reset_job_counter

    archive = resolve_resources(scenario, None)
    specs = build_federation_specs(archive)
    reset_job_counter()
    streams = RandomStreams(scenario.seed)
    workload = WORKLOAD_REGISTRY.get(scenario.workload)(scenario, streams, archive)
    return PRICING_REGISTRY.get(scenario.pricing)(
        scenario, specs, workload, scenario.to_config(), AGENT_REGISTRY.get(scenario.agent)
    )


@pytest.fixture(scope="module")
def economy_result():
    return run_scenario(EXPERIMENT_SHAPES["exp3_economy"])


@pytest.fixture(scope="module")
def faulty_result():
    return run_scenario(
        EXPERIMENT_SHAPES["exp3_economy"], fault_plan=canonical_crash_plan()
    )


class TestCleanRunsAreValid:
    @pytest.mark.parametrize("name", sorted(EXPERIMENT_SHAPES))
    def test_all_experiment_shapes_pass_every_checker(self, name):
        result = run_scenario(EXPERIMENT_SHAPES[name])
        assert validate_result(result) == []

    def test_assert_valid_is_silent_on_clean_run(self, economy_result):
        assert_valid(economy_result)

    def test_faulty_run_is_also_internally_consistent(self, faulty_result):
        assert validate_result(faulty_result) == []


class TestMutationsAreCaught:
    """Deliberately corrupt a result; the matching checker must object."""

    def test_dropped_completion_breaks_conservation(self, economy_result):
        job = economy_result.completed_jobs()[0]
        original = job.status
        job.status = JobStatus.RUNNING  # "the simulator forgot to finish it"
        try:
            violations = check_job_conservation(economy_result)
            assert any("non-terminal" in v.message for v in violations)
            with pytest.raises(InvariantViolation):
                assert_valid(economy_result)
        finally:
            job.status = original

    def test_unattributed_failure_breaks_conservation(self, faulty_result):
        job = faulty_result.failed_jobs()[0]
        original = job.failure
        job.failure = None  # lost, but nobody says why
        try:
            violations = check_job_conservation(faulty_result)
            assert any("attribution" in v.message for v in violations)
        finally:
            job.failure = original

    def test_failure_without_fault_plan_breaks_conservation(self, economy_result):
        job = economy_result.completed_jobs()[0]
        original = (job.status, job.failure, job.executed_on)
        job.status = JobStatus.FAILED
        job.failure = "phantom fault"
        try:
            violations = check_job_conservation(economy_result)
            assert any("no fault plan" in v.message for v in violations)
        finally:
            job.status, job.failure, job.executed_on = original

    def test_time_travel_breaks_timeline(self, economy_result):
        job = economy_result.completed_jobs()[0]
        original = job.finish_time
        job.finish_time = job.start_time - 10.0
        try:
            violations = check_timeline_consistency(economy_result)
            assert any("finished before it started" in v.message for v in violations)
        finally:
            job.finish_time = original

    def test_skimmed_payment_breaks_budget_accounting(self, economy_result):
        """The committed accounting-bug mutation: a job's settled cost is
        silently inflated after the bank transfer — per-job costs and the
        double-entry ledger no longer reconcile."""
        job = next(j for j in economy_result.completed_jobs() if j.cost_paid)
        original = job.cost_paid
        job.cost_paid = original * 2.0 + 1.0
        try:
            violations = check_budget_accounting(economy_result)
            assert any("ledger volume" in v.message for v in violations)
            with pytest.raises(InvariantViolation):
                assert_valid(economy_result)
        finally:
            job.cost_paid = original

    def test_rogue_ledger_entry_breaks_budget_accounting(self, economy_result):
        bank = economy_result.bank
        bank.transfer(payer="user/nowhere/0", payee="owner/nowhere", amount=123.0)
        try:
            violations = check_budget_accounting(economy_result)
            assert any("ledger volume" in v.message for v in violations)
        finally:
            # undo: strip the rogue transaction and its account effects
            txn = bank._ledger.pop()
            for owner in (txn.payer, txn.payee):
                account = bank.account(owner)
                account.transactions.pop()
            bank.account(txn.payer).balance += txn.amount
            bank.account(txn.payer).total_debited -= txn.amount
            bank.account(txn.payee).balance -= txn.amount
            bank.account(txn.payee).total_credited -= txn.amount

    def test_miscounted_job_messages_break_message_accounting(self, economy_result):
        job = next(j for j in economy_result.jobs if j.messages > 0)
        job.messages += 1
        try:
            violations = check_message_accounting(economy_result)
            assert any(f"GFA {job.origin} " in v.message for v in violations)
        finally:
            job.messages -= 1

    def test_unbalanced_ledger_breaks_message_accounting(self, economy_result):
        log = economy_result.message_log
        slot = log._slots[log.gfa_names()[0]]
        log._remote[slot] += 1
        try:
            violations = check_message_accounting(economy_result)
            assert any("per-GFA sums" in v.message for v in violations)
        finally:
            log._remote[slot] -= 1

    def test_uncarried_message_breaks_message_accounting(self, economy_result):
        network = economy_result.network
        network.messages -= 1
        try:
            violations = check_message_accounting(economy_result)
            assert any("transport carried" in v.message for v in violations)
        finally:
            network.messages += 1

    def test_ghost_directory_member_breaks_consistency(self, economy_result):
        from repro.cluster.specs import ResourceSpec

        directory = economy_result.directory
        ghost = ResourceSpec(
            name="Ghost Cluster", num_processors=4, mips=500.0, bandwidth_gbps=1.0, price=1.0
        )
        directory.subscribe("Ghost Cluster", ghost)
        try:
            violations = check_directory_consistency(economy_result)
            assert any("unknown clusters" in v.message for v in violations)
        finally:
            directory.unsubscribe("Ghost Cluster")

    def test_vanished_member_breaks_consistency(self, economy_result):
        directory = economy_result.directory
        quote = directory.quote_of("CTC SP2")
        directory.unsubscribe("CTC SP2")
        try:
            violations = check_directory_consistency(economy_result)
            assert any("fault-free run ended" in v.message for v in violations)
        finally:
            directory.subscribe("CTC SP2", quote.spec)

    def test_fudged_renegotiation_counter_breaks_attribution(self, faulty_result):
        report = faulty_result.faults
        report.renegotiations += 1
        try:
            violations = check_fault_attribution(faulty_result)
            assert any("re-negotiations" in v.message for v in violations)
        finally:
            report.renegotiations -= 1

    def test_fudged_loss_counter_breaks_attribution(self, faulty_result):
        report = faulty_result.faults
        report.jobs_lost += 1
        try:
            violations = check_fault_attribution(faulty_result)
            assert any("lost jobs" in v.message for v in violations)
        finally:
            report.jobs_lost -= 1


class TestRuntimeValidator:
    def test_validate_flag_checks_fault_events_at_runtime(self, crash_plan):
        scenario = EXPERIMENT_SHAPES["exp3_economy"]
        result = run_scenario(scenario, fault_plan=crash_plan, validate=True)
        assert result.faults is not None
        assert result.faults.crashes == 2

    def test_runtime_validator_counts_checkpoints(self, crash_plan):
        federation = _federation(EXPERIMENT_SHAPES["exp3_economy"])
        federation.install_faults(crash_plan)
        validator = federation.install_validator()
        federation.run()
        # crash x2 + auto-recover x2 + leave + rejoin + spike = 7 checkpoints
        assert validator.fault_events_checked == 7
        assert validator.results_validated == 1

    def test_runtime_validator_raises_on_planted_runtime_breach(self, crash_plan):
        """Sabotage the injector's ground truth: the very next fault event
        checkpoint must blow up, proving the runtime hooks actually check."""
        federation = _federation(EXPERIMENT_SHAPES["exp3_economy"])
        injector = federation.install_faults(crash_plan)
        federation.install_validator()
        injector._expected.discard("CTC SP2")  # claim a live member was delisted
        with pytest.raises(InvariantViolation):
            federation.run()

    def test_nodes_released_behind_the_lrms_back_are_caught(self, crash_plan):
        """A live cluster whose free count takes back a running job's
        processors while the job still runs breaks processor conservation
        at the next fault checkpoint."""
        federation = _federation(EXPERIMENT_SHAPES["exp3_economy"])
        injector = federation.install_faults(crash_plan)
        validator = federation.install_validator()
        federation.start()
        federation.sim.run(until=4_000.0)
        event = crash_plan.scheduled()[0]
        validator.after_fault(injector, event)  # consistent so far
        lrms, job = next(
            (gfa.lrms, job)
            for gfa in federation.gfas.values()
            if gfa.alive
            for job in gfa.lrms.running_jobs()
        )
        lrms._free += job.num_processors
        with pytest.raises(InvariantViolation, match="runtime-nodes"):
            validator.after_fault(injector, event)

    def test_undrained_pool_at_the_end_is_caught(self):
        """A processor still taken after the run drained (a start whose
        finish never handed it back) fails the end-of-run check."""
        scenario = Scenario(mode="federation", workload="synthetic", horizon=6 * 3600.0, thin=40, seed=7)
        federation = _federation(scenario)
        validator = federation.install_validator()
        result = federation.run()
        assert validator.results_validated == 1
        next(iter(federation.gfas.values())).lrms._free -= 1
        with pytest.raises(InvariantViolation, match="drained-nodes"):
            validator.validate_end(federation, result)

    def test_a_processor_leaked_before_a_crash_is_caught(self, crash_plan):
        """A crash hands back its killed jobs' processors, not a reset to
        the cluster's size, so a processor lost before it leaves the dead
        cluster short, and the checkpoint after the crash says so."""
        federation = _federation(EXPERIMENT_SHAPES["exp3_economy"])
        federation.install_faults(crash_plan)
        federation.install_validator()
        federation.start()
        federation.sim.run(until=4_500.0)  # the first crash is at 5,000 s
        federation.gfas["LANL Origin"].lrms._free -= 1
        with pytest.raises(InvariantViolation, match="dead cluster LANL Origin still has"):
            federation.sim.run()

    def test_a_job_left_running_at_the_end_is_caught(self):
        """A job still listed as running after the run drained fails the
        end-of-run check even when the free count reads the full size."""
        scenario = Scenario(mode="federation", workload="synthetic", horizon=6 * 3600.0, thin=40, seed=7)
        federation = _federation(scenario)
        validator = federation.install_validator()
        result = federation.run()
        job = result.completed_jobs()[0]
        lrms = federation.gfas[job.executed_on].lrms
        lrms._running[job.job_id] = (job, job.finish_time, -1)
        with pytest.raises(InvariantViolation, match="drained-nodes"):
            validator.validate_end(federation, result)

    def test_validator_rejects_installation_after_run(self):
        scenario = Scenario(mode="economy", workload="synthetic", horizon=6 * 3600.0, thin=40, seed=7)
        federation = _federation(scenario)
        federation.run()
        with pytest.raises(RuntimeError):
            federation.install_validator(RuntimeValidator())
