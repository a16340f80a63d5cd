"""Tests for admission control (the one-to-one negotiation decision)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceSpec, SpaceSharedLRMS
from repro.cluster.specs import execution_time
from repro.core.admission import TOO_LATE, TOO_WIDE, AdmissionController, AdmissionDecision
from repro.par.shard import RemoteClusterProxy
from repro.sim import Simulator
from repro.workload.job import Job


def make_spec(procs=16):
    return ResourceSpec(name="cluster", num_processors=procs, mips=1000.0, bandwidth_gbps=2.0, price=4.0)


def make_job(procs=4, runtime=100.0, deadline=None, spec=None):
    spec = spec or make_spec()
    return Job(
        origin=spec.name,
        user_id=0,
        submit_time=0.0,
        num_processors=procs,
        length_mi=runtime * spec.mips * procs,
        deadline=deadline,
    )


@pytest.fixture()
def controller():
    sim = Simulator()
    spec = make_spec()
    lrms = SpaceSharedLRMS(sim, spec)
    return sim, lrms, AdmissionController(lrms)


class TestDecisions:
    def test_idle_cluster_accepts_feasible_job(self, controller):
        _, _, admission = controller
        decision = admission.evaluate(make_job(runtime=100.0, deadline=500.0))
        assert decision.accepted is True
        assert decision.estimated_completion == pytest.approx(100.0)
        assert admission.accepted == 1

    def test_loaded_cluster_refuses_tight_deadline(self, controller):
        _, lrms, admission = controller
        lrms.submit(make_job(procs=16, runtime=1000.0))
        decision = admission.evaluate(make_job(procs=16, runtime=100.0, deadline=200.0))
        assert decision.accepted is False
        assert decision.estimated_completion == pytest.approx(1100.0)
        assert "deadline" in decision.reason

    def test_oversized_job_refused_with_reason(self, controller):
        _, _, admission = controller
        big_spec = make_spec(procs=64)
        decision = admission.evaluate(make_job(procs=32, spec=big_spec, deadline=1e9))
        assert decision.accepted is False
        assert decision.estimated_completion is None
        assert "processors" in decision.reason

    def test_job_without_deadline_always_admitted_if_it_fits(self, controller):
        _, lrms, admission = controller
        lrms.submit(make_job(procs=16, runtime=1000.0))
        decision = admission.evaluate(make_job(procs=16, runtime=100.0, deadline=None))
        assert decision.accepted is True

    def test_statistics_accumulate(self, controller):
        _, lrms, admission = controller
        lrms.submit(make_job(procs=16, runtime=1000.0))
        admission.evaluate(make_job(runtime=10.0, deadline=1e6))
        admission.evaluate(make_job(procs=16, runtime=10.0, deadline=20.0))
        assert admission.enquiries == 2
        assert admission.accepted == 1
        assert admission.refused == 1
        assert admission.acceptance_ratio == pytest.approx(0.5)

    def test_acceptance_ratio_with_no_enquiries(self, controller):
        _, _, admission = controller
        assert admission.acceptance_ratio == 0.0


# --------------------------------------------------------------------------- #
# Oracle: decisions and their reasons against the eagerly formatted ones
# --------------------------------------------------------------------------- #
def parent_evaluate(lrms, job):
    """``AdmissionController.evaluate`` before refusals stopped formatting
    their reason, as ``(accepted, estimated_completion, reason)``."""
    spec = lrms.spec
    if not spec.can_run(job):
        return (False, None, f"requires {job.num_processors} > {spec.num_processors} processors")
    estimate = lrms.estimate_completion_time(job)
    deadline = job.absolute_deadline
    if deadline is not None and estimate > deadline + 1e-9:
        return (
            False,
            estimate,
            f"estimated completion {estimate:.1f} exceeds deadline {deadline:.1f}",
        )
    return (True, estimate, "deadline guarantee granted")


def parent_proxy_answer(proxy, job):
    """``RemoteClusterProxy.handle_admission_request`` before the same change
    (it charges the proxy's ``_bump`` on acceptance, as the new one does)."""
    spec = proxy.spec
    if not spec.can_run(job):
        return (False, None, f"requires {job.num_processors} > {spec.num_processors} processors")
    now = proxy.shard.sim.now
    runtime = execution_time(job, spec)
    estimate = max(now, proxy._tail) + proxy._bump + runtime
    deadline = job.absolute_deadline
    if deadline is not None and estimate > deadline + 1e-9:
        return (False, estimate, f"snapshot estimate {estimate:.1f} exceeds deadline {deadline:.1f}")
    proxy._bump += runtime * job.num_processors / spec.num_processors
    return (True, estimate, "snapshot admission granted")


#: Enquiries: (processors, runtime on the 16-processor cluster, deadline or
#: None); up to twice the cluster's width, so some are too wide.
_ENQUIRIES = st.lists(
    st.tuples(
        st.integers(1, 32),
        st.floats(1.0, 5000.0),
        st.one_of(st.none(), st.floats(1.0, 20000.0)),
    ),
    min_size=1,
    max_size=25,
)


def _enquiry_job(procs, runtime, deadline, submit_time=0.0):
    spec = make_spec()
    return Job(
        origin="elsewhere",
        user_id=0,
        submit_time=submit_time,
        num_processors=procs,
        length_mi=runtime * spec.mips * min(procs, spec.num_processors),
        deadline=deadline,
    )


class TestDecisionOracle:
    @given(load=_ENQUIRIES, enquiries=_ENQUIRIES)
    @settings(max_examples=150, deadline=None)
    def test_decisions_and_reasons_match_the_eager_ones(self, load, enquiries):
        """On a cluster loaded with the fitting jobs of ``load``, every
        enquiry's answer, estimate, reason text (refused late, accepted,
        too wide) and the controller's counters equal the eager code's on a
        twin cluster."""
        worlds = []
        for _ in range(2):
            sim = Simulator()
            lrms = SpaceSharedLRMS(sim, make_spec())
            for procs, runtime, _deadline in load:
                if procs <= 16:
                    lrms.submit(_enquiry_job(procs, runtime, None))
            worlds.append(lrms)
        lrms, twin = worlds
        admission = AdmissionController(lrms)
        accepted = refused = 0
        for procs, runtime, deadline in enquiries:
            decision = admission.evaluate(_enquiry_job(procs, runtime, deadline))
            expected = parent_evaluate(twin, _enquiry_job(procs, runtime, deadline))
            assert (decision.accepted, decision.estimated_completion, decision.reason) == expected
            accepted += expected[0]
            refused += not expected[0]
        assert (admission.enquiries, admission.accepted, admission.refused) == (
            len(enquiries),
            accepted,
            refused,
        )

    @given(
        enquiries=_ENQUIRIES,
        now=st.floats(0.0, 1000.0),
        tail=st.floats(0.0, 5000.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_proxy_answers_match_the_eager_ones(self, enquiries, now, tail):
        """The parallel engine's snapshot proxy: the same answers, estimates,
        reasons and accumulated bump as the eager code."""
        shard = SimpleNamespace(sim=SimpleNamespace(now=now))
        proxy = RemoteClusterProxy("remote", make_spec(), shard)
        twin = RemoteClusterProxy("remote", make_spec(), shard)
        for p in (proxy, twin):
            p.update_load(tail)
        for procs, runtime, deadline in enquiries:
            decision = proxy.handle_admission_request(_enquiry_job(procs, runtime, deadline))
            expected = parent_proxy_answer(twin, _enquiry_job(procs, runtime, deadline))
            assert (decision.accepted, decision.estimated_completion, decision.reason) == expected
            assert proxy._bump == twin._bump

    def test_reason_is_read_from_the_stored_values(self):
        decision = AdmissionDecision(False, 1234.56, TOO_LATE, 1234.56, 1000.04)
        assert decision.reason == "estimated completion 1234.6 exceeds deadline 1000.0"
        assert AdmissionDecision(True, 1.0, "granted {as is}").reason == "granted {as is}"
        wide = AdmissionDecision(False, None, TOO_WIDE, 32, 16)
        assert wide.reason == "requires 32 > 16 processors"
