"""Unit tests for the GridFederationAgent scheduling behaviour.

These tests build tiny, hand-crafted federations (2-3 clusters, a handful of
jobs) so that every placement decision can be predicted analytically.
"""

from __future__ import annotations

import pytest

from repro.cluster import ResourceSpec
from repro.core import (
    GridFederationAgent,
    MessageType,
    SharingMode,
)
from repro.economy.bank import GridBank
from repro.net import Transport
from repro.p2p import FederationDirectory
from repro.sim import Simulator
from repro.sim.entity import EntityRegistry
from repro.workload.job import Job, JobStatus, QoSStrategy


def make_spec(name, procs=16, mips=1000.0, bandwidth=2.0, price=4.0):
    return ResourceSpec(name=name, num_processors=procs, mips=mips, bandwidth_gbps=bandwidth, price=price)


def make_job(origin, procs=4, runtime=100.0, mips=1000.0, deadline=None, budget=None,
             strategy=QoSStrategy.NONE, submit=0.0):
    """Job whose compute time is ``runtime`` on a cluster of speed ``mips``."""
    return Job(
        origin=origin,
        user_id=0,
        submit_time=submit,
        num_processors=procs,
        length_mi=runtime * mips * procs,
        deadline=deadline,
        budget=budget,
        strategy=strategy,
    )


def build_world(specs, mode, bank=None):
    """GFAs sharing one transport; its ``log`` is the world's message ledger."""
    sim = Simulator()
    registry = EntityRegistry()
    transport = Transport(sim)
    directory = None if mode is SharingMode.INDEPENDENT else FederationDirectory()
    gfas = {
        spec.name: GridFederationAgent(
            sim=sim,
            registry=registry,
            spec=spec,
            transport=transport,
            mode=mode,
            directory=directory,
            bank=bank,
        )
        for spec in specs
    }
    return sim, gfas, transport.log, directory


class TestIndependentMode:
    def test_feasible_job_runs_locally(self):
        sim, gfas, log, _ = build_world([make_spec("A")], SharingMode.INDEPENDENT)
        job = make_job("A", runtime=100.0, deadline=250.0)
        gfas["A"].submit_local_job(job)
        sim.run()
        assert job.status is JobStatus.COMPLETED
        assert job.executed_on == "A"
        assert log.total_messages == 0
        assert gfas["A"].stats.accepted_local == 1

    def test_infeasible_job_rejected_without_federation(self):
        sim, gfas, _, _ = build_world([make_spec("A")], SharingMode.INDEPENDENT)
        blocker = make_job("A", procs=16, runtime=1000.0, deadline=1e9)
        tight = make_job("A", procs=16, runtime=100.0, deadline=300.0)
        gfas["A"].submit_local_job(blocker)
        gfas["A"].submit_local_job(tight)
        sim.run()
        assert tight.status is JobStatus.REJECTED
        assert gfas["A"].stats.rejected == 1
        assert gfas["A"].stats.rejection_rate == pytest.approx(0.5)

    def test_requires_no_directory(self):
        sim, gfas, _, directory = build_world([make_spec("A")], SharingMode.INDEPENDENT)
        assert directory is None

    def test_wrong_origin_rejected(self):
        sim, gfas, _, _ = build_world([make_spec("A")], SharingMode.INDEPENDENT)
        with pytest.raises(ValueError):
            gfas["A"].submit_local_job(make_job("B"))


class TestFederationMode:
    def test_overflow_job_migrates_to_fastest_available(self):
        specs = [make_spec("slow", mips=500.0), make_spec("fast", mips=2000.0)]
        sim, gfas, log, _ = build_world(specs, SharingMode.FEDERATION)
        # Block "slow" completely, then submit a job that cannot meet its
        # deadline locally: it must migrate to "fast".
        blocker = make_job("slow", procs=16, runtime=1000.0, mips=500.0, deadline=1e9)
        overflow = make_job("slow", procs=8, runtime=100.0, mips=500.0, deadline=300.0)
        gfas["slow"].submit_local_job(blocker)
        gfas["slow"].submit_local_job(overflow)
        sim.run()
        assert overflow.status is JobStatus.COMPLETED
        assert overflow.executed_on == "fast"
        assert overflow.was_migrated is True
        assert gfas["slow"].stats.migrated_out == 1
        assert gfas["fast"].stats.remote_received == 1
        # negotiate + reply + job-submission + job-completion
        assert overflow.messages == 4
        assert log.count_by_type(MessageType.NEGOTIATE) == 1
        assert log.count_by_type(MessageType.JOB_COMPLETION) == 1

    def test_job_rejected_when_no_cluster_can_meet_deadline(self):
        specs = [make_spec("A"), make_spec("B")]
        sim, gfas, log, _ = build_world(specs, SharingMode.FEDERATION)
        for name in ("A", "B"):
            gfas[name].submit_local_job(
                make_job(name, procs=16, runtime=1000.0, deadline=1e9)
            )
        doomed = make_job("A", procs=16, runtime=100.0, deadline=150.0)
        gfas["A"].submit_local_job(doomed)
        sim.run()
        assert doomed.status is JobStatus.REJECTED
        # One failed negotiation with B (A's own feasibility is checked without
        # messages): negotiate + reply.
        assert doomed.messages == 2

    def test_local_execution_preferred_when_feasible(self):
        specs = [make_spec("A", mips=500.0), make_spec("B", mips=2000.0)]
        sim, gfas, log, _ = build_world(specs, SharingMode.FEDERATION)
        job = make_job("A", runtime=100.0, mips=500.0, deadline=500.0)
        gfas["A"].submit_local_job(job)
        sim.run()
        assert job.executed_on == "A"
        assert log.total_messages == 0


class TestEconomyMode:
    def test_ofc_job_goes_to_cheapest_feasible_cluster(self):
        specs = [
            make_spec("origin", price=5.0),
            make_spec("cheap", price=1.0),
            make_spec("mid", price=3.0),
        ]
        bank = GridBank()
        sim, gfas, log, _ = build_world(specs, SharingMode.ECONOMY, bank=bank)
        job = make_job("origin", runtime=100.0, deadline=400.0, budget=1e9,
                       strategy=QoSStrategy.OFC)
        gfas["origin"].submit_local_job(job)
        sim.run()
        assert job.executed_on == "cheap"
        assert job.cost_paid == pytest.approx(1.0 * 100.0)
        assert bank.earnings_of("owner/cheap") == pytest.approx(100.0)
        assert bank.balance(f"user/origin/0") == pytest.approx(-100.0)

    def test_oft_job_goes_to_fastest_cluster_within_budget(self):
        specs = [
            make_spec("origin", mips=800.0, price=2.0),
            make_spec("fast", mips=2000.0, price=10.0),
            make_spec("faster-but-pricey", mips=4000.0, price=100.0),
        ]
        bank = GridBank()
        sim, gfas, _, _ = build_world(specs, SharingMode.ECONOMY, bank=bank)
        # Budget allows "fast" (10 * l / (2000 p)) but not "faster-but-pricey".
        job = make_job("origin", runtime=100.0, mips=800.0, deadline=1e6,
                       budget=450.0, strategy=QoSStrategy.OFT)
        gfas["origin"].submit_local_job(job)
        sim.run()
        assert job.executed_on == "fast"
        assert job.cost_paid <= job.budget

    def test_local_cluster_used_without_messages_when_it_ranks_first(self):
        specs = [make_spec("cheap-origin", price=1.0), make_spec("other", price=5.0)]
        bank = GridBank()
        sim, gfas, log, _ = build_world(specs, SharingMode.ECONOMY, bank=bank)
        job = make_job("cheap-origin", runtime=100.0, deadline=1e6, budget=1e9,
                       strategy=QoSStrategy.OFC)
        gfas["cheap-origin"].submit_local_job(job)
        sim.run()
        assert job.executed_on == "cheap-origin"
        assert log.total_messages == 0
        # The owner still earns the incentive for the local job.
        assert bank.earnings_of("owner/cheap-origin") == pytest.approx(100.0)

    def test_job_dropped_when_all_candidates_exhaust(self):
        specs = [make_spec("A", price=1.0), make_spec("B", price=2.0)]
        bank = GridBank()
        sim, gfas, log, _ = build_world(specs, SharingMode.ECONOMY, bank=bank)
        # Two blockers from A: the first lands on A (cheapest), the second
        # cannot meet a 1500 s deadline behind it and spills over to B, so
        # both clusters are now busy for ~1000 s.
        blocker_a = make_job("A", procs=16, runtime=1000.0, deadline=1e9, budget=1e9,
                             strategy=QoSStrategy.OFC)
        blocker_b = make_job("A", procs=16, runtime=1000.0, deadline=1500.0, budget=1e9,
                             strategy=QoSStrategy.OFC)
        gfas["A"].submit_local_job(blocker_a)
        gfas["A"].submit_local_job(blocker_b)
        doomed = make_job("A", procs=16, runtime=100.0, deadline=150.0, budget=1e9,
                          strategy=QoSStrategy.OFC)
        gfas["A"].submit_local_job(doomed)
        sim.run()
        assert blocker_a.executed_on == "A"
        assert blocker_b.executed_on == "B"
        assert doomed.status is JobStatus.REJECTED
        assert doomed.negotiation_rounds == 2  # considered both clusters

    def test_budget_prunes_candidates_without_messages(self):
        specs = [make_spec("origin", price=2.0), make_spec("expensive", mips=4000.0, price=1000.0)]
        bank = GridBank()
        sim, gfas, log, _ = build_world(specs, SharingMode.ECONOMY, bank=bank)
        # OFT would prefer "expensive" (fastest) but it blows the budget, so
        # the job stays home; no negotiation messages are exchanged.
        job = make_job("origin", runtime=100.0, mips=1000.0, deadline=1e6, budget=300.0,
                       strategy=QoSStrategy.OFT)
        gfas["origin"].submit_local_job(job)
        sim.run()
        assert job.executed_on == "origin"
        assert log.total_messages == 0

    def test_economy_mode_requires_directory(self):
        sim = Simulator()
        registry = EntityRegistry()
        with pytest.raises(ValueError):
            GridFederationAgent(
                sim=sim,
                registry=registry,
                spec=make_spec("X"),
                transport=Transport(sim),
                mode=SharingMode.ECONOMY,
                directory=None,
                bank=GridBank(),
            )

    def test_incentive_earned_property(self):
        specs = [make_spec("A", price=2.0), make_spec("B", price=1.0)]
        bank = GridBank()
        sim, gfas, _, _ = build_world(specs, SharingMode.ECONOMY, bank=bank)
        job = make_job("A", runtime=50.0, deadline=1e6, budget=1e9, strategy=QoSStrategy.OFC)
        gfas["A"].submit_local_job(job)
        sim.run()
        assert gfas["B"].incentive_earned == pytest.approx(50.0)
        assert gfas["A"].incentive_earned == 0.0


class TestLedgerWiring:
    def test_transport_is_required(self):
        """A hand-built agent cannot fall back to a private ledger."""
        with pytest.raises(TypeError):
            GridFederationAgent(
                sim=Simulator(),
                registry=EntityRegistry(),
                spec=make_spec("X"),
                mode=SharingMode.INDEPENDENT,
            )

    def test_agents_register_in_the_shared_ledger(self):
        specs = [make_spec("C"), make_spec("A"), make_spec("B")]
        _sim, gfas, log, _ = build_world(specs, SharingMode.FEDERATION)
        assert all(gfa.transport.log is log for gfa in gfas.values())
        # Zero-message agents still appear in the reports.
        assert log.gfa_names() == ["A", "B", "C"]
        assert all(log.counters(name).total == 0 for name in gfas)
