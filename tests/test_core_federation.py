"""Integration tests: full Federation runs on the calibrated archive workload."""

from __future__ import annotations

import pickle

import pytest

from repro.core import Federation, FederationConfig, SharingMode
from repro.core.users import UserPopulation
from repro.p2p import FederationDirectory, RankCriterion
from repro.scenario import run_scenario, scenario_from_config
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
    return run_scenario(scenario_from_config(config), specs=specs, workload=workload)


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


    def test_message_log_is_the_transports_ledger(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.FEDERATION))
        assert federation.message_log is federation.transport.log
        assert federation.message_log.gfa_names() == sorted(spec.name for spec in specs)
        result = federation.run()
        assert result.message_log is federation.transport.log
        assert result.network is federation.transport.stats
        assert result.network.messages == result.message_log.total_messages > 0

    def test_federation_builds_one_plain_directory(self):
        """A federated run has one plain directory on the run's transport:
        building the federation subscribes each cluster once, and that is
        all the control traffic before the run starts.  Independent mode
        has no directory and no control traffic."""
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.FEDERATION))
        assert type(federation.directory) is FederationDirectory
        assert federation.directory.member_names() == sorted(spec.name for spec in specs)
        assert federation.transport.stats.control_by_kind == {"subscribe": len(specs)}
        independent = Federation(
            specs, workload, FederationConfig(mode=SharingMode.INDEPENDENT)
        )
        assert independent.directory is None
        assert independent.transport.stats.control_messages == 0

    def test_directory_draws_nothing_from_the_federation_streams(self):
        """The directory's rankings are a pure function of the quotes: the
        federation opens no ``directory/`` stream, and two seeds build the
        same rankings."""
        specs, workload = small_setup()
        directories = []
        for seed in (42, 43):
            federation = Federation(
                specs, workload, FederationConfig(mode=SharingMode.FEDERATION, seed=seed)
            )
            assert not any(key.startswith("directory/") for key in federation.streams._cache)
            directories.append(federation.directory)
        for criterion in RankCriterion:
            first, second = (d._ranking_for(criterion) for d in directories)
            assert [q.gfa_name for _k, q in first] == [q.gfa_name for _k, q in second]

    def test_federation_builds_one_population_per_member(self):
        """Each cluster gets one population that holds the cluster's GFA and
        the cluster's workload."""
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.FEDERATION))
        assert list(federation.populations) == [spec.name for spec in specs]
        for spec in specs:
            population = federation.populations[spec.name]
            assert type(population) is UserPopulation
            assert population.gfa is federation.gfas[spec.name]
            assert population.name == f"users@{spec.name}"
            assert sorted(j.job_id for j in population.jobs) == sorted(
                j.job_id for j in federation.workload[spec.name]
            )


class TestFedArrivals:
    def test_start_feeds_every_arrival_behind_the_faults_and_the_ticker(self):
        """Every job's arrival is on the feed; the fault plan and the
        repricing ticker are the only events in the heap."""
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
        jobs = sum(len(jobs) for jobs in workload.values())
        ticker = 1
        assert federation.sim.queue_size == len(plan.scheduled()) + ticker
        assert federation.sim.pending == jobs + len(plan.scheduled()) + ticker


class TestEventCount:
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_a_uniform_fault_free_run_fires_an_arrival_per_job_and_a_finish_per_start(
        self, mode
    ):
        """An arrival hands its job to the GFA in the same event: on the
        zero-latency transport with no faults, the only events are one
        arrival per job and one finish per job that started."""
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=mode))
        federation.run()
        jobs = [job for jobs in federation.workload.values() for job in jobs]
        started = sum(1 for job in jobs if job.start_time is not None)
        assert 0 < started <= len(jobs)
        assert federation.sim.events_processed == len(jobs) + started


def _heap_arrivals(sim):
    """Live heap entries that are population arrivals."""
    return sum(
        1
        for _time, _priority, seq, callback, _args in sim._heap
        if seq in sim._live and getattr(callback, "__func__", callback) is UserPopulation._submit
    )


class TestFedArrivalsOnGoldenShapes:
    """The arrival contract on each golden experiment shape: every job
    arrives once, at its submit time, in ``(time, seq)`` order; no arrival
    is ever in the heap; and ``pending``, ``next_event_time`` and ``drain``
    include the feed."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_start_feeds_every_job_and_drain_yields_it_in_key_order(self, name, monkeypatch):
        observed = []
        original = Federation.start

        def recording_start(self):
            original(self)
            order = {name: index for index, name in enumerate(self.populations)}
            jobs = sum(len(population.jobs) for population in self.populations.values())
            sim = self.sim
            observed.append((jobs, sim.pending, len(sim._live), _heap_arrivals(sim)))
            # Drain a copy: the arrivals come out in (time, population order,
            # job order), each at its job's submit time, among the heap's
            # events in key order.
            copy = pickle.loads(pickle.dumps(sim))
            entries = list(copy.drain())
            keys = [entry[:3] for entry in entries]
            assert keys == sorted(keys)
            submitted = dict.fromkeys(order, 0)
            arrivals = []
            for time, priority, _seq, callback, args in entries:
                if callback.__qualname__ != "UserPopulation._submit":
                    continue
                (population,) = args
                position = submitted[population.gfa.name]
                submitted[population.gfa.name] = position + 1
                assert time == population.jobs[position].submit_time
                assert priority == 0
                arrivals.append((time, order[population.gfa.name], position))
            assert arrivals == sorted(arrivals)
            assert len(arrivals) == jobs
            assert copy.pending == 0

        monkeypatch.setattr(Federation, "start", recording_start)
        run_scenario(GOLDEN_SCENARIOS[name])
        ((jobs, pending, live, heap_arrivals),) = observed
        assert jobs > 0
        assert heap_arrivals == 0
        assert pending == jobs + live

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_every_job_arrives_once_at_its_submit_time_in_key_order(
        self, name, monkeypatch
    ):
        arrivals = []
        populations = []
        original = UserPopulation._submit

        def recording_submit(self):
            job = self._jobs[self.submitted]
            if self not in populations:
                populations.append(self)
            arrivals.append((self.sim.now, self.name, self.submitted, job.submit_time, job.job_id))
            original(self)

        monkeypatch.setattr(UserPopulation, "_submit", recording_submit)
        result = run_scenario(GOLDEN_SCENARIOS[name])
        total = sum(len(population.jobs) for population in populations)
        assert len(arrivals) == total > 0
        assert len({job_id for *_rest, job_id in arrivals}) == total
        assert all(now == submit_time for now, _n, _i, submit_time, _id in arrivals)
        # The (time, seq) order: population order (the specs') breaks ties
        # in time, then each population's own job order.
        rank = {f"users@{spec.name}": index for index, spec in enumerate(result.specs)}
        keys = [(now, rank[name], index) for now, name, index, _t, _id in arrivals]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_no_arrival_enters_the_heap_and_pending_counts_the_feed(self, name, monkeypatch):
        checks = []
        original = UserPopulation._submit
        arrived = [0]

        def probing_submit(self):
            original(self)
            arrived[0] += 1
            sim = self.sim
            fed = len(sim._feed_times)
            next_arrival = sim._feed_times[-1] if fed else None
            next_time = sim.next_event_time()
            checks.append(
                (
                    _heap_arrivals(sim),
                    sim.pending == len(sim._live) + fed,
                    next_arrival is None or next_time <= next_arrival,
                    fed + arrived[0],
                )
            )

        monkeypatch.setattr(UserPopulation, "_submit", probing_submit)
        result = run_scenario(GOLDEN_SCENARIOS[name])
        total = len(result.jobs)
        assert checks
        assert all(check == (0, True, True, total) for check in checks)


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
        per_job_total = sum(job.messages for job in economy_result.jobs)
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
        res_a = run_scenario(scenario_from_config(config), specs=specs, workload=workload_a)
        res_b = run_scenario(scenario_from_config(config), specs=specs, workload=workload_b)
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
        independent = run_scenario(
            scenario_from_config(FederationConfig(mode=SharingMode.INDEPENDENT, seed=1)),
            specs=specs,
            workload=workload_ind,
        )
        federated = run_scenario(
            scenario_from_config(FederationConfig(mode=SharingMode.FEDERATION, seed=1)),
            specs=specs,
            workload=workload_fed,
        )
        assert len(federated.rejected_jobs()) <= len(independent.rejected_jobs())
        assert len(federated.completed_jobs()) >= len(independent.completed_jobs())

    def test_independent_mode_exchanges_no_messages(self):
        specs, workload = small_setup(seed=13)
        res = run_scenario(
            scenario_from_config(FederationConfig(mode=SharingMode.INDEPENDENT)),
            specs=specs,
            workload=workload,
        )
        assert res.message_log.total_messages == 0
        assert all(outcome.stats.migrated_out == 0 for outcome in res.resources.values())
