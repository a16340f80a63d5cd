"""Simulation-invariant validation harness.

A single golden run cannot tell a correct simulator from a subtly broken one;
what can is a set of *invariants* that must hold for every run, fault-ridden
or not.  This module defines those invariants as composable checkers over a
:class:`~repro.core.federation.FederationResult`:

* **job conservation** — every submitted job ends in exactly one terminal
  state (completed, rejected, or attributably lost to a fault); no job is
  silently dropped;
* **timeline consistency** — submit ≤ start ≤ finish for every completed job
  and the observation period covers the last completion;
* **budget accounting** — the GridBank's double-entry ledger balances, the
  sum of owner incentives equals the sum of user spending equals the sum of
  per-job costs;
* **message accounting** — the message log's per-GFA local and remote sums
  equal its total, each GFA's local count equals the messages its own jobs
  record, and the transport carried exactly the total;
* **directory consistency** — the federation directory's end-of-run
  membership equals the set of live, joined clusters (modulo the documented
  lazy-discovery window for crashed members);
* **fault attribution** — fault counters cross-check against observed job
  states: lost jobs carry reasons, re-negotiation counts match per-job
  resubmission counts, downtime windows are well-formed.

The checkers run in three harnesses:

1. as plain pytest assertions (``tests/invariants/``), including
   hypothesis-style property tests over random fault plans;
2. as an opt-in runtime assertion mode —
   ``run_scenario(scenario, validate=True)`` — which re-checks the runtime
   invariants after every applied fault event and the full suite at the end;
3. ad hoc, via :func:`validate_result` / :func:`assert_valid` on any result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, TYPE_CHECKING

from repro.core.federation import FederationResult
from repro.workload.job import JobStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.federation import Federation
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent

__all__ = [
    "Violation",
    "InvariantViolation",
    "check_job_conservation",
    "check_timeline_consistency",
    "check_budget_accounting",
    "check_message_accounting",
    "check_directory_consistency",
    "check_fault_attribution",
    "ALL_CHECKS",
    "validate_result",
    "assert_valid",
    "check_fingerprint_determinism",
    "RuntimeValidator",
]

_EPS = 1e-6
_TERMINAL = (JobStatus.COMPLETED, JobStatus.REJECTED, JobStatus.FAILED)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which checker flagged it and why."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


class InvariantViolation(AssertionError):
    """Raised by :func:`assert_valid` / the runtime validator on any breach."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} invariant violation(s):\n  {lines}")


# --------------------------------------------------------------------------- #
# Checkers
# --------------------------------------------------------------------------- #
def check_job_conservation(result: FederationResult) -> List[Violation]:
    """Every submitted job completes, is rejected, or is lost to a fault."""
    violations: List[Violation] = []
    name = "job-conservation"
    for job in result.jobs:
        if job.status not in _TERMINAL:
            violations.append(
                Violation(name, f"job {job.job_id} ended in non-terminal state {job.status.name}")
            )
            continue
        if job.status is JobStatus.FAILED:
            if result.faults is None:
                violations.append(
                    Violation(name, f"job {job.job_id} failed but no fault plan was active")
                )
            elif not job.failure:
                violations.append(
                    Violation(name, f"failed job {job.job_id} carries no fault attribution")
                )
        elif job.status is JobStatus.COMPLETED:
            if job.executed_on is None:
                violations.append(
                    Violation(name, f"completed job {job.job_id} has no executing resource")
                )
            if job.finish_time is None or job.start_time is None:
                violations.append(
                    Violation(name, f"completed job {job.job_id} lacks start/finish times")
                )
        elif job.executed_on is not None:  # REJECTED
            violations.append(
                Violation(name, f"rejected job {job.job_id} still records a placement")
            )
    return violations


def check_timeline_consistency(result: FederationResult) -> List[Violation]:
    """Timestamps are ordered and the observation period covers the run."""
    violations: List[Violation] = []
    name = "timeline"
    last_finish = 0.0
    for job in result.completed_jobs():
        if job.start_time < job.submit_time - _EPS:
            violations.append(
                Violation(name, f"job {job.job_id} started before its submission")
            )
        if job.finish_time < job.start_time - _EPS:
            violations.append(
                Violation(name, f"job {job.job_id} finished before it started")
            )
        last_finish = max(last_finish, job.finish_time)
    if result.observation_period + _EPS < last_finish:
        violations.append(
            Violation(
                name,
                f"observation period {result.observation_period} ends before the "
                f"last completion at {last_finish}",
            )
        )
    return violations


def check_budget_accounting(result: FederationResult) -> List[Violation]:
    """The GridBank double-entry ledger reconciles with per-job costs."""
    violations: List[Violation] = []
    name = "budget-accounting"
    bank = result.bank
    if bank is None:
        for job in result.jobs:
            if job.cost_paid is not None:
                violations.append(
                    Violation(name, f"job {job.job_id} paid a cost without a bank")
                )
        return violations
    total_cost = 0.0
    for job in result.jobs:
        if job.status is JobStatus.COMPLETED:
            if job.cost_paid is None:
                violations.append(
                    Violation(name, f"completed economy job {job.job_id} settled no cost")
                )
            elif job.cost_paid < -_EPS:
                violations.append(
                    Violation(name, f"job {job.job_id} paid a negative cost {job.cost_paid}")
                )
            else:
                total_cost += job.cost_paid
        elif job.cost_paid is not None:
            violations.append(
                Violation(
                    name,
                    f"job {job.job_id} in state {job.status.name} settled a cost",
                )
            )
    ledger_volume = bank.total_volume()
    if abs(ledger_volume - total_cost) > max(_EPS, 1e-9 * max(ledger_volume, total_cost)):
        violations.append(
            Violation(
                name,
                f"ledger volume {ledger_volume} != sum of per-job costs {total_cost}",
            )
        )
    credited = sum(bank.account(owner).total_credited for owner in bank.accounts())
    debited = sum(bank.account(owner).total_debited for owner in bank.accounts())
    if abs(credited - debited) > max(_EPS, 1e-9 * max(credited, debited)):
        violations.append(
            Violation(name, f"double-entry breach: credited {credited} != debited {debited}")
        )
    incentives = result.total_incentive()
    owner_credit = sum(
        bank.account(owner).total_credited
        for owner in bank.accounts()
        if owner.startswith("owner/")
    )
    if abs(incentives - owner_credit) > max(_EPS, 1e-9 * max(incentives, owner_credit)):
        violations.append(
            Violation(
                name,
                f"reported incentives {incentives} != owner credits {owner_credit}",
            )
        )
    return violations


def check_message_accounting(result: FederationResult) -> List[Violation]:
    """The ledger reconciles with itself, with the jobs and with the transport.

    Each side is kept independently: the ledger's per-GFA local and remote
    counts, each job's own ``Job.messages``, and the transport's message
    counter.  Every message is local to exactly one GFA (the job's origin),
    so a GFA's local count must equal the messages its own jobs record.
    """
    violations: List[Violation] = []
    name = "message-accounting"
    log = result.message_log
    total = log.total_messages
    local_total = sum(log.counters(gfa).local for gfa in log.gfa_names())
    remote_total = sum(log.counters(gfa).remote for gfa in log.gfa_names())
    if local_total != total or remote_total != total:
        violations.append(
            Violation(
                name,
                f"per-GFA sums (local {local_total}, remote {remote_total}) != "
                f"total {total}",
            )
        )
    by_origin: Dict[str, int] = {}
    for job in result.jobs:
        by_origin[job.origin] = by_origin.get(job.origin, 0) + job.messages
    for gfa in sorted(set(log.gfa_names()) | set(by_origin)):
        local = log.counters(gfa).local
        recorded = by_origin.get(gfa, 0)
        if local != recorded:
            violations.append(
                Violation(
                    name,
                    f"GFA {gfa} has {local} local messages but its jobs record "
                    f"{recorded}",
                )
            )
    network = result.network
    if network is not None and network.messages != total:
        violations.append(
            Violation(
                name,
                f"transport carried {network.messages} messages but the log has {total}",
            )
        )
    return violations


def check_directory_consistency(result: FederationResult) -> List[Violation]:
    """Directory membership matches the live, joined clusters."""
    violations: List[Violation] = []
    name = "directory"
    directory = result.directory
    if directory is None:
        return violations
    members = directory.member_names()
    known = set(result.resource_names())
    strangers = [m for m in members if m not in known]
    if strangers:
        violations.append(Violation(name, f"directory lists unknown clusters {strangers}"))
    if result.faults is not None:
        expected = result.faults.expected_members
        if members != expected:
            violations.append(
                Violation(
                    name,
                    f"membership {members} != live/joined ground truth {expected}",
                )
            )
    elif members != sorted(known):
        violations.append(
            Violation(
                name,
                f"fault-free run ended with membership {members}, expected all "
                f"of {sorted(known)}",
            )
        )
    return violations


def check_fault_attribution(result: FederationResult) -> List[Violation]:
    """Fault counters cross-check against observed job states and downtime."""
    violations: List[Violation] = []
    name = "fault-attribution"
    failed = result.failed_jobs()
    resubmissions = sum(job.resubmissions for job in result.jobs)
    if result.faults is None:
        if failed:
            violations.append(
                Violation(name, f"{len(failed)} jobs failed without a fault plan")
            )
        if resubmissions:
            violations.append(
                Violation(name, f"{resubmissions} resubmissions without a fault plan")
            )
        return violations
    report = result.faults
    if len(failed) != report.jobs_lost:
        violations.append(
            Violation(
                name,
                f"report counts {report.jobs_lost} lost jobs but {len(failed)} "
                f"jobs are FAILED",
            )
        )
    if resubmissions != report.renegotiations:
        violations.append(
            Violation(
                name,
                f"report counts {report.renegotiations} re-negotiations but jobs "
                f"record {resubmissions} resubmissions",
            )
        )
    for cluster, seconds in report.downtime.items():
        if seconds < -_EPS or seconds > result.observation_period + _EPS:
            violations.append(
                Violation(
                    name,
                    f"{cluster} downtime {seconds}s outside the observation "
                    f"period {result.observation_period}s",
                )
            )
    for cluster, intervals in report.downtime_intervals.items():
        previous_end = -1.0
        for start, end in intervals:
            if end < start:
                violations.append(
                    Violation(name, f"{cluster} has inverted downtime window ({start}, {end})")
                )
            if start < previous_end:
                violations.append(
                    Violation(name, f"{cluster} has overlapping downtime windows")
                )
            previous_end = end
    return violations


#: Every result-level invariant checker, in report order.
ALL_CHECKS: Sequence[Callable[[FederationResult], List[Violation]]] = (
    check_job_conservation,
    check_timeline_consistency,
    check_budget_accounting,
    check_message_accounting,
    check_directory_consistency,
    check_fault_attribution,
)


def validate_result(result: FederationResult) -> List[Violation]:
    """Run every invariant checker and collect all violations."""
    violations: List[Violation] = []
    for check in ALL_CHECKS:
        violations.extend(check(result))
    return violations


def assert_valid(result: FederationResult) -> None:
    """Raise :class:`InvariantViolation` if any invariant is broken."""
    violations = validate_result(result)
    if violations:
        raise InvariantViolation(violations)


def check_fingerprint_determinism(scenario, runs: int = 2) -> str:
    """Run ``scenario`` ``runs`` times; raise unless every fingerprint matches.

    Returns the (unique) fingerprint.  This is the determinism invariant: for
    a fixed seed *and fault plan*, the simulation must be a pure function.
    """
    from repro.scenario import result_fingerprint, run_scenario

    digests = {result_fingerprint(run_scenario(scenario)) for _ in range(max(2, runs))}
    if len(digests) != 1:
        raise InvariantViolation(
            [
                Violation(
                    "determinism",
                    f"scenario {scenario.describe()} produced {len(digests)} distinct "
                    f"fingerprints across {max(2, runs)} runs",
                )
            ]
        )
    return next(iter(digests))


class RuntimeValidator:
    """Opt-in runtime assertion mode for federation runs.

    Installed through :meth:`repro.core.federation.Federation.
    install_validator` (which ``run_scenario(..., validate=True)`` does for
    you).  Two hook points:

    * :meth:`after_fault` — called by the fault injector after every applied
      fault event; checks the *runtime* invariants that are only observable
      mid-run (directory membership vs. ground truth, dead clusters hold no
      work, every live cluster's free plus running processors equal its
      size);
    * :meth:`validate_end` — called by ``Federation.run`` on the assembled
      result; checks that every cluster runs no job and has all its
      processors free again, then runs the full result-level suite.

    Raises :class:`InvariantViolation` at the first breached checkpoint.
    """

    def __init__(self) -> None:
        #: Fault events checked so far (observability for tests).
        self.fault_events_checked = 0
        #: End-of-run validations performed.
        self.results_validated = 0

    def after_fault(self, injector: "FaultInjector", event: "FaultEvent") -> None:
        """Check the runtime invariants right after one fault application."""
        violations: List[Violation] = []
        directory = injector.directory
        if directory is not None:
            members = directory.member_names()
            expected = injector.expected_members()
            if members != expected:
                violations.append(
                    Violation(
                        "runtime-directory",
                        f"after {event.kind.value} on {event.target!r}: membership "
                        f"{members} != ground truth {expected}",
                    )
                )
        for name, gfa in injector.gfas.items():
            if not gfa.alive:
                if gfa.lrms.running_count or gfa.lrms.queue_length:
                    violations.append(
                        Violation(
                            "runtime-liveness",
                            f"dead cluster {name} still holds "
                            f"{gfa.lrms.running_count} running / "
                            f"{gfa.lrms.queue_length} queued jobs",
                        )
                    )
                if gfa.lrms.free_processors != gfa.spec.num_processors:
                    violations.append(
                        Violation(
                            "runtime-liveness",
                            f"dead cluster {name} still has nodes allocated",
                        )
                    )
                continue
            # Node conservation: every processor is free or held by a running
            # job (load-spike background jobs run through the LRMS too).
            free = gfa.lrms.free_processors
            held = sum(job.num_processors for job in gfa.lrms.running_jobs())
            if free + held != gfa.spec.num_processors:
                violations.append(
                    Violation(
                        "runtime-nodes",
                        f"cluster {name}: {free} free + {held} held by running "
                        f"jobs != {gfa.spec.num_processors} processors",
                    )
                )
        self.fault_events_checked += 1
        if violations:
            raise InvariantViolation(violations)

    def validate_end(self, federation: "Federation", result: FederationResult) -> None:
        """Check that every cluster drained, then run the result-level suite."""
        self.results_validated += 1
        violations = []
        for name, gfa in federation.gfas.items():
            lrms = gfa.lrms
            if lrms.running_count or lrms.free_processors != gfa.spec.num_processors:
                violations.append(
                    Violation(
                        "drained-nodes",
                        f"cluster {name}: {lrms.free_processors} free processors and "
                        f"{lrms.running_count} running jobs after the run drained, "
                        f"not all {gfa.spec.num_processors} processors free",
                    )
                )
        if violations:
            raise InvariantViolation(violations)
        assert_valid(result)
