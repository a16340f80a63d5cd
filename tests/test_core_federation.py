"""Integration tests: full Federation runs on the calibrated archive workload."""

from __future__ import annotations

import pytest

from repro.core import Federation, FederationConfig, SharingMode, run_federation
from repro.core.users import UserPopulation
from repro.scenario import run_scenario
from repro.sim import RandomStreams
from repro.workload import build_federation_specs, build_workload
from repro.workload.archive import ARCHIVE_RESOURCES
from repro.workload.job import JobStatus, QoSStrategy
from tests.test_golden_fingerprints import GOLDEN_SCENARIOS


def small_setup(seed=7, n_resources=4):
    """A reduced federation (first four Table 1 resources) to keep tests fast."""
    resources = ARCHIVE_RESOURCES[:n_resources]
    specs = build_federation_specs(resources)
    workload = build_workload(RandomStreams(seed), resources)
    # Thin the workload: every third job is enough to exercise the machinery.
    workload = {name: jobs[::3] for name, jobs in workload.items()}
    return specs, workload


@pytest.fixture(scope="module")
def economy_result():
    specs, workload = small_setup()
    config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.3, seed=11)
    return run_federation(specs, workload, config)


class TestConstruction:
    def test_unknown_workload_resource_rejected(self):
        specs, workload = small_setup()
        workload["Martian Cluster"] = []
        with pytest.raises(ValueError):
            Federation(specs, workload)

    def test_federation_runs_only_once(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.INDEPENDENT))
        federation.run()
        with pytest.raises(RuntimeError):
            federation.run()

    def test_qos_assigned_to_every_job(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.ECONOMY))
        for jobs in federation.workload.values():
            for job in jobs:
                assert job.budget is not None and job.budget > 0
                assert job.deadline is not None and job.deadline > 0
                assert job.strategy in (QoSStrategy.OFT, QoSStrategy.OFC)

    def test_non_economy_modes_have_no_strategies_or_bank(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.FEDERATION))
        assert federation.bank is None
        for jobs in federation.workload.values():
            assert all(job.strategy is QoSStrategy.NONE for job in jobs)


class TestLazyArrivals:
    def test_start_leaves_one_pending_arrival_per_population(self):
        """Each non-empty population queues only its next arrival; the fault
        plan and the repricing ticker are the only other pending events."""
        from repro.extensions.dynamic_pricing import DynamicPricingFederation
        from repro.faults.plan import FaultPlan

        specs, workload = small_setup()
        workload[specs[-1].name] = []
        federation = DynamicPricingFederation(
            specs, workload, FederationConfig(mode=SharingMode.ECONOMY)
        )
        plan = FaultPlan().crash(specs[0].name, at=3600.0, duration=900.0)
        federation.install_faults(plan)
        federation.start()
        populations = sum(1 for jobs in workload.values() if jobs)
        assert populations == len(specs) - 1
        ticker = 1
        assert federation.sim.pending == populations + len(plan.scheduled()) + ticker


def _arrivals_by_population(sim):
    """Live pending arrivals in the heap, counted per population."""
    counts = {}
    for _time, _priority, _seq, event in sim._heap:
        callback = event.callback
        if not event.cancelled and getattr(callback, "__func__", None) is UserPopulation._submit:
            counts[callback.__self__.name] = counts.get(callback.__self__.name, 0) + 1
    return counts


class TestLazyArrivalsOnGoldenShapes:
    """The lazy-arrival contract on each golden experiment shape: one pending
    arrival per non-empty population, every job submitted exactly once at its
    submit time, in ``(time, reserved seq)`` order."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_start_leaves_one_arrival_per_non_empty_population(self, name, monkeypatch):
        observed = []
        original = Federation.start

        def recording_start(self):
            original(self)
            non_empty = {
                population.name
                for population in self.populations.values()
                if population.jobs
            }
            observed.append((non_empty, _arrivals_by_population(self.sim)))

        monkeypatch.setattr(Federation, "start", recording_start)
        run_scenario(GOLDEN_SCENARIOS[name])
        ((non_empty, arrivals),) = observed
        assert non_empty
        assert arrivals == {population: 1 for population in non_empty}

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_every_job_arrives_once_at_its_submit_time_in_key_order(
        self, name, monkeypatch
    ):
        arrivals = []
        populations = set()
        original = UserPopulation._submit

        def recording_submit(self):
            job = self._jobs[self.submitted]
            arrivals.append(
                (self.sim.now, self._first_seq + self.submitted, job.submit_time, job.job_id)
            )
            populations.add(self)
            original(self)

        monkeypatch.setattr(UserPopulation, "_submit", recording_submit)
        run_scenario(GOLDEN_SCENARIOS[name])
        total = sum(len(population.jobs) for population in populations)
        assert len(arrivals) == total > 0
        assert len({job_id for *_rest, job_id in arrivals}) == total
        assert all(now == submit_time for now, _seq, submit_time, _id in arrivals)
        keys = [(now, seq) for now, seq, _submit_time, _id in arrivals]
        assert keys == sorted(keys)
        assert len(set(seq for _now, seq in keys)) == total

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_pending_arrivals_stay_bounded_by_the_population_count(
        self, name, monkeypatch
    ):
        worst = []
        original = UserPopulation._submit

        def probing_submit(self):
            original(self)
            counts = _arrivals_by_population(self.sim)
            worst.append((max(counts.values(), default=0), sum(counts.values())))

        monkeypatch.setattr(UserPopulation, "_submit", probing_submit)
        result = run_scenario(GOLDEN_SCENARIOS[name])
        clusters = len(result.specs)
        assert worst
        assert max(per_population for per_population, _ in worst) == 1
        assert max(total for _, total in worst) <= clusters


class TestRunInvariants:
    def test_every_job_reaches_a_terminal_state(self, economy_result):
        for job in economy_result.jobs:
            assert job.status in (JobStatus.COMPLETED, JobStatus.REJECTED)
            if job.status is JobStatus.COMPLETED:
                assert job.executed_on is not None
                assert job.finish_time is not None
                assert job.finish_time >= job.submit_time
            else:
                assert job.executed_on is None

    def test_resource_accounting_consistent_with_jobs(self, economy_result):
        res = economy_result
        for name, outcome in res.resources.items():
            stats = outcome.stats
            assert stats.submitted_local == len(res.jobs_of(name))
            assert stats.accepted_local + stats.migrated_out + stats.rejected == stats.submitted_local
            assert 0.0 <= outcome.utilisation <= 1.0

    def test_incentives_match_bank_and_job_costs(self, economy_result):
        res = economy_result
        total_cost = sum(j.cost_paid for j in res.completed_jobs() if j.cost_paid)
        assert res.total_incentive() == pytest.approx(total_cost, rel=1e-9)
        assert res.bank.total_volume() == pytest.approx(total_cost, rel=1e-9)

    def test_completed_jobs_meet_deadline_and_budget(self, economy_result):
        """The DBC algorithm only places jobs where the QoS constraints hold,
        so every completed job satisfies its QoS."""
        for job in economy_result.completed_jobs():
            assert job.qos_satisfied, (
                f"job {job.job_id} on {job.executed_on}: finish={job.finish_time}, "
                f"deadline={job.absolute_deadline}, cost={job.cost_paid}, budget={job.budget}"
            )

    def test_message_totals_consistent(self, economy_result):
        log = economy_result.message_log
        total_local = sum(log.local_messages(g) for g in log.gfa_names())
        total_remote = sum(log.remote_messages(g) for g in log.gfa_names())
        assert total_local == log.total_messages
        assert total_remote == log.total_messages
        per_job_total = sum(log.per_job_counts().values())
        assert per_job_total == log.total_messages
        # Migrated jobs exchange at least 4 messages (negotiate, reply,
        # submission, completion); locally placed jobs may have none.
        for job in economy_result.completed_jobs():
            if job.was_migrated:
                assert job.messages >= 4

    def test_observation_period_covers_all_finishes(self, economy_result):
        last_finish = max(j.finish_time for j in economy_result.completed_jobs())
        assert economy_result.observation_period >= last_finish
        assert economy_result.observation_period >= economy_result.config.horizon

    def test_determinism_same_seed_same_outcome(self):
        specs, workload_a = small_setup(seed=3, n_resources=3)
        _, workload_b = small_setup(seed=3, n_resources=3)
        config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.5, seed=5)
        res_a = run_federation(specs, workload_a, config)
        res_b = run_federation(specs, workload_b, config)
        assert res_a.message_log.total_messages == res_b.message_log.total_messages
        assert res_a.total_incentive() == pytest.approx(res_b.total_incentive())
        placements_a = [(j.executed_on, j.status.name) for j in res_a.jobs]
        placements_b = [(j.executed_on, j.status.name) for j in res_b.jobs]
        assert placements_a == placements_b


class TestModeComparison:
    def test_federation_accepts_at_least_as_many_jobs_as_independent(self):
        """The paper's core claim: federating increases the acceptance rate."""
        specs, workload_ind = small_setup(seed=13)
        _, workload_fed = small_setup(seed=13)
        independent = run_federation(
            specs, workload_ind, FederationConfig(mode=SharingMode.INDEPENDENT, seed=1)
        )
        federated = run_federation(
            specs, workload_fed, FederationConfig(mode=SharingMode.FEDERATION, seed=1)
        )
        assert len(federated.rejected_jobs()) <= len(independent.rejected_jobs())
        assert len(federated.completed_jobs()) >= len(independent.completed_jobs())

    def test_independent_mode_exchanges_no_messages(self):
        specs, workload = small_setup(seed=13)
        res = run_federation(specs, workload, FederationConfig(mode=SharingMode.INDEPENDENT))
        assert res.message_log.total_messages == 0
        assert all(outcome.stats.migrated_out == 0 for outcome in res.resources.values())
