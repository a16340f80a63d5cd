"""Unit tests for the fault-injection subsystem's building blocks.

End-to-end behaviour (runs under fault plans, invariant checking) lives in
``tests/invariants/``; this module covers the pieces in isolation: plan
construction and validation, the LRMS crash primitive, GFA fail/recover
bookkeeping, and the CLI surface.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.cluster.lrms import SpaceSharedLRMS
from repro.cluster.specs import ResourceSpec
from repro.faults import FaultEvent, FaultKind, FaultPlan, NetworkPerturbation
from repro.scenario import FAULT_REGISTRY, Scenario
from repro.sim.engine import Simulator
from repro.workload.job import Job, JobStatus


def make_spec(name="Test", procs=8, mips=500.0):
    return ResourceSpec(
        name=name, num_processors=procs, mips=mips, bandwidth_gbps=1.0, price=1.0
    )


def make_job(origin="Test", procs=2, length=10_000.0, submit=0.0):
    return Job(
        origin=origin,
        user_id=1,
        submit_time=submit,
        num_processors=procs,
        length_mi=length,
    )


class TestFaultPlanConstruction:
    def test_builders_accumulate_immutably(self):
        empty = FaultPlan()
        plan = empty.crash("A", at=10.0, duration=5.0).leave("B", at=20.0)
        assert empty.is_empty()
        assert len(plan.events) == 2
        assert plan.targets() == ["A", "B"]

    def test_scheduled_sorts_by_time(self):
        plan = FaultPlan().leave("B", at=20.0).crash("A", at=10.0)
        assert [e.target for e in plan.scheduled()] == ["A", "B"]

    def test_empty_plan_with_zero_rate_window_is_still_empty(self):
        plan = FaultPlan().perturb(0.0, 100.0, loss_rate=0.0, submission_delay=0.0)
        assert plan.is_empty()

    def test_lossy_window_makes_plan_non_empty(self):
        assert not FaultPlan().perturb(0.0, 100.0, loss_rate=0.1).is_empty()

    def test_perturbation_lookup_respects_windows(self):
        plan = FaultPlan().perturb(10.0, 20.0, loss_rate=0.5)
        assert plan.perturbation_at(5.0) is None
        assert plan.perturbation_at(10.0).loss_rate == 0.5
        assert plan.perturbation_at(20.0) is None  # half-open window

    def test_validate_targets_flags_strangers(self):
        plan = FaultPlan().crash("Nope", at=1.0)
        with pytest.raises(ValueError, match="unknown clusters"):
            plan.validate_targets(["A", "B"])

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.CRASH, target="A")
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.CRASH, target="")
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.CRASH, target="A", duration=0.0)
        with pytest.raises(ValueError):  # spikes need a duration
            FaultEvent(time=0.0, kind=FaultKind.LOAD_SPIKE, target="A")
        with pytest.raises(ValueError):  # and a sane fraction
            FaultEvent(
                time=0.0, kind=FaultKind.LOAD_SPIKE, target="A", duration=1.0, fraction=1.5
            )

    def test_window_validation(self):
        with pytest.raises(ValueError):
            NetworkPerturbation(start=10.0, end=10.0)
        with pytest.raises(ValueError):
            NetworkPerturbation(start=0.0, end=1.0, loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkPerturbation(start=0.0, end=1.0, submission_delay=-1.0)

    def test_describe_summarises(self):
        assert FaultPlan().describe() == "no faults"
        plan = FaultPlan().crash("A", at=1.0).perturb(0.0, 10.0, loss_rate=0.25)
        assert "1 events" in plan.describe()
        assert "25%" in plan.describe()


class TestLRMSFailAll:
    def test_kills_running_and_queued_and_frees_nodes(self):
        sim = Simulator()
        lrms = SpaceSharedLRMS(sim, make_spec(procs=4))
        wide = make_job(procs=4)
        waiting = make_job(procs=2)
        lrms.submit(wide)  # starts immediately, occupies everything
        lrms.submit(waiting)  # queues behind it
        sim.run(until=1.0)
        assert lrms.running_count == 1 and lrms.queue_length == 1
        killed = lrms.fail_all()
        assert [j.job_id for j in killed] == [wide.job_id, waiting.job_id]
        assert lrms.running_count == 0
        assert lrms.queue_length == 0
        assert lrms.free_processors == 4
        # the cancelled finish event never fires
        sim.run()
        assert wide.status is not JobStatus.COMPLETED

    def test_cancels_every_running_jobs_finish_event(self):
        """A crash takes each killed job's finish out of the heap: nothing
        stale fires later, and the simulator has nothing pending."""
        sim = Simulator()
        lrms = SpaceSharedLRMS(sim, make_spec(procs=4))
        running = [make_job(procs=1) for _ in range(3)]
        for job in running:
            lrms.submit(job)
        lrms.submit(make_job(procs=2))  # queued: it has no finish event yet
        assert (sim.pending, lrms.running_count, lrms.queue_length) == (3, 3, 1)
        lrms.fail_all()
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0
        assert sim.queue_size == 0

    def test_partial_work_counts_toward_utilisation(self):
        sim = Simulator()
        lrms = SpaceSharedLRMS(sim, make_spec(procs=4, mips=1.0))
        job = make_job(procs=4, length=400.0)  # 100 s runtime
        lrms.submit(job)
        sim.run(until=30.0)
        lrms.fail_all()
        assert lrms.busy_node_seconds == pytest.approx(4 * 30.0)

    def test_fail_all_on_idle_lrms_is_a_noop(self):
        sim = Simulator()
        lrms = SpaceSharedLRMS(sim, make_spec())
        assert lrms.fail_all() == []


class TestGFAFaultBookkeeping:
    def _federation(self):
        from repro.core.federation import Federation, FederationConfig
        from repro.core.policies import SharingMode

        specs = [make_spec("A", 8), make_spec("B", 8)]
        jobs = {"A": [make_job("A", submit=0.0)], "B": []}
        return Federation(specs, jobs, FederationConfig(mode=SharingMode.FEDERATION))

    def test_fail_recover_tracks_downtime(self):
        federation = self._federation()
        gfa = federation.gfas["A"]
        assert gfa.alive and gfa.joined
        gfa.fail(100.0)
        assert not gfa.alive
        gfa.recover(250.0)
        assert gfa.alive
        assert gfa.downtime_intervals == [(100.0, 250.0)]
        assert gfa.downtime(1_000.0) == pytest.approx(150.0)

    def test_open_downtime_extends_to_period_end(self):
        federation = self._federation()
        gfa = federation.gfas["A"]
        gfa.fail(100.0)
        assert gfa.downtime(1_000.0) == pytest.approx(900.0)

    def test_double_fail_and_recover_are_idempotent(self):
        federation = self._federation()
        gfa = federation.gfas["A"]
        assert gfa.fail(10.0) == [] or True  # first fail returns killed jobs
        assert gfa.fail(20.0) == []  # second is a no-op
        gfa.recover(30.0)
        gfa.recover(40.0)  # no-op
        assert gfa.downtime_intervals == [(10.0, 30.0)]

    def test_submission_to_dead_gfa_fails_the_job(self):
        federation = self._federation()
        gfa = federation.gfas["A"]
        gfa.fail(0.0)
        result = federation.run()
        (job,) = result.jobs
        assert job.status is JobStatus.FAILED
        assert "down at submission" in job.failure


class TestFaultRegistry:
    def test_builtin_variants_are_registered(self):
        for key in ("none", "crash-recover", "churn", "flaky-network", "load-spike", "chaos"):
            assert key in FAULT_REGISTRY

    def test_none_variant_yields_empty_plan(self):
        from repro.scenario import resolve_fault_plan
        from repro.workload.archive import build_federation_specs

        plan = resolve_fault_plan(Scenario(), build_federation_specs())
        assert plan.is_empty()

    def test_churn_variant_refuses_independent_mode(self):
        with pytest.raises(ValueError, match="does not support"):
            Scenario(mode="independent", faults="churn")

    def test_crash_recover_supports_all_modes(self):
        Scenario(mode="independent", faults="crash-recover")  # must not raise

    def test_random_plan_factories_are_seed_stable(self):
        from repro.scenario import resolve_fault_plan
        from repro.workload.archive import build_federation_specs

        specs = build_federation_specs()
        scenario = Scenario(faults="chaos")
        assert resolve_fault_plan(scenario, specs) == resolve_fault_plan(scenario, specs)


class TestCLI:
    def test_run_with_faults_and_validate(self, capsys):
        rc = cli_main(
            ["run", "--faults", "crash-recover", "--thin", "40", "--validate"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults: crashes=" in out
        assert "invariants: all checks passed" in out

    def test_run_without_faults_prints_no_fault_line(self, capsys):
        rc = cli_main(["run", "--thin", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults:" not in out

    def test_unknown_fault_variant_is_a_clean_cli_error(self, capsys):
        rc = cli_main(["run", "--faults", "nope", "--thin", "40"])
        assert rc == 2
        assert "unknown fault variant" in capsys.readouterr().err

    def test_sweep_accepts_faults(self, capsys):
        rc = cli_main(
            ["sweep", "--faults", "load-spike", "--profiles", "0", "100", "--thin", "40"]
        )
        assert rc == 0
        assert "Scenario sweep" in capsys.readouterr().out


class TestDirectoryMembershipHelpers:
    def test_is_subscribed_and_member_names(self):
        from repro.p2p import FederationDirectory

        directory = FederationDirectory()
        directory.subscribe("B", make_spec("B"))
        directory.subscribe("A", make_spec("A"))
        assert directory.is_subscribed("A")
        assert not directory.is_subscribed("C")
        assert directory.member_names() == ["A", "B"]
