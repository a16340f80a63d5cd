"""Admission control: the resource-manager half of the GFA.

Before a job is migrated, its origin GFA sends an admission-control enquiry to
the candidate GFA asking for a guarantee that the job will complete within its
deadline.  The contacted GFA answers immediately by consulting its LRMS
(queue length, expected response time, utilisation — all folded into the
availability-profile completion estimate).

:class:`AdmissionController` encapsulates that decision so it can be unit
tested independently of the messaging machinery, and keeps the acceptance /
refusal statistics reported by the metrics package.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.lrms import SpaceSharedLRMS
from repro.workload.job import Job

#: Refusal reasons, formatted only when a decision's ``reason`` is read.
TOO_WIDE = "requires {} > {} processors"
TOO_LATE = "estimated completion {:.1f} exceeds deadline {:.1f}"


class AdmissionDecision:
    """Outcome of one admission-control evaluation.

    ``reason`` may be a ``str.format`` template filled from ``values`` when
    the reason is read: most refusals are never explained to anyone, so a
    refusal stores its numbers instead of formatting them.
    """

    __slots__ = ("accepted", "estimated_completion", "_reason", "_values")

    def __init__(
        self, accepted: bool, estimated_completion: Optional[float], reason: str, *values
    ) -> None:
        self.accepted = accepted
        self.estimated_completion = estimated_completion
        self._reason = reason
        self._values = values

    @property
    def reason(self) -> str:
        """Why the enquiry was answered this way."""
        return self._reason.format(*self._values) if self._values else self._reason

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"AdmissionDecision(accepted={self.accepted}, "
            f"estimated_completion={self.estimated_completion}, reason={self.reason!r})"
        )


class AdmissionController:
    """Evaluates admission-control enquiries against a cluster's LRMS.

    Parameters
    ----------
    lrms:
        The LRMS whose load determines feasibility.
    """

    def __init__(self, lrms: SpaceSharedLRMS):
        self.lrms = lrms
        self.enquiries = 0
        self.accepted = 0
        self.refused = 0

    def evaluate(self, job: Job) -> AdmissionDecision:
        """Decide whether ``job`` can be completed within its deadline here.

        A job without a deadline is always admissible (subject to fitting on
        the cluster at all); a job that is too wide for the cluster is always
        refused.
        """
        self.enquiries += 1
        lrms = self.lrms
        spec = lrms.spec
        if not spec.can_run(job):
            self.refused += 1
            return AdmissionDecision(False, None, TOO_WIDE, job.num_processors, spec.num_processors)
        estimate = lrms.estimate_completion_time(job)
        deadline = job.absolute_deadline
        if deadline is not None and estimate > deadline + 1e-9:
            self.refused += 1
            return AdmissionDecision(False, estimate, TOO_LATE, estimate, deadline)
        self.accepted += 1
        return AdmissionDecision(True, estimate, "deadline guarantee granted")

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of enquiries answered positively (0 if none received)."""
        return self.accepted / self.enquiries if self.enquiries else 0.0

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"AdmissionController({self.lrms.spec.name!r}, enquiries={self.enquiries}, "
            f"accepted={self.accepted})"
        )
