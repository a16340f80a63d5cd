"""Sender-initiated broadcast superscheduler (NASA-superscheduler style).

The related-work baseline the paper contrasts itself against most directly is
the grid superscheduler of Shan, Oliker and Biswas, whose sender-initiated
(S-I) job-migration algorithm broadcasts a resource enquiry to *every* other
grid scheduler, collects the expected turnaround from each, and migrates the
job to the minimum-turnaround site.  The broadcast makes every remote
placement cost ``O(n)`` messages, which is exactly the scalability concern the
Grid-Federation's directory-ranked candidate iteration avoids.

:class:`BroadcastGFA` reuses the whole Grid-Federation substrate (LRMS,
admission control, message accounting, GridBank) but replaces the candidate
selection with the broadcast protocol, so Ablation A compares the two
approaches on identical workloads.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.specs import execution_cost
from repro.core.gfa import GridFederationAgent
from repro.workload.job import Job


class BroadcastGFA(GridFederationAgent):
    """A GFA that selects remote candidates by broadcast instead of ranking.

    Local feasibility is checked first (as in the NASA superscheduler, where a
    job only enters the migration path when the local wait exceeds the site
    threshold); otherwise the GFA broadcasts a negotiate message to every
    other GFA, receives a reply from each, and picks the accepting site with
    the smallest estimated completion time.
    """

    def _schedule_economy(self, job: Job) -> None:
        # Broadcast superscheduling is system-centric: it ignores OFT/OFC and
        # optimises turnaround, so both economy and plain federation modes
        # funnel through the same broadcast path.
        self._schedule_broadcast(job)

    def _schedule_federation(self, job: Job) -> None:
        self._schedule_broadcast(job)

    def _schedule_broadcast(self, job: Job) -> None:
        if self.spec.can_run(job) and self.lrms.can_meet_deadline(job):
            self._accept_locally(job)
            return
        if not self.joined:
            # Departed from the federation: broadcast has nobody to ask.
            self._reject(job)
            return
        best_name: Optional[str] = None
        best_completion = float("inf")
        for quote in self.directory.quotes():
            if quote.gfa_name == self.name:
                continue
            remote: GridFederationAgent = self.registry.lookup(quote.gfa_name)
            job.negotiation_rounds += 1
            decision = self._enquire(remote, job)
            if decision is None:
                continue  # timed out: dead peer or lost round trip
            if not decision.accepted:
                self.stats.negotiations_refused += 1
                continue
            if job.budget is not None and execution_cost(job, quote.spec) > job.budget + 1e-9:
                continue
            if decision.estimated_completion < best_completion:
                best_completion = decision.estimated_completion
                best_name = quote.gfa_name
        if best_name is None:
            self._reject(job)
            return
        self._migrate(self.directory.quote_of(best_name), job)

