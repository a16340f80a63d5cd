"""Coordinated superscheduling through directory load updates (Ablation C).

Section 2.3 of the paper observes that "the current coordination scheme can be
improved by making GFAs dynamically update their local resource utilisation
metrics into the decentralised federation directory", which "can significantly
reduce the number of negotiation messages required to schedule a job", and
leaves it to future work.  This module implements that improvement:

* every :class:`CoordinatedGFA` publishes its expected queue wait (the FCFS
  queue-tail delay of its LRMS) into the directory whenever its LRMS state
  changes;
* while scheduling, a GFA skips — without any negotiate/reply exchange — every
  candidate whose *published* wait already makes the job's deadline
  unattainable.  The admission handshake is still performed with the surviving
  candidate (published loads may be slightly stale), so the deadline guarantee
  is unchanged.

Ablation C compares the negotiation-message count of this scheme against the
base protocol on identical workloads, also reporting how many load updates the
directory absorbed in exchange.
"""

from __future__ import annotations

from repro.cluster.specs import execution_time
from repro.core.gfa import GridFederationAgent
from repro.p2p.directory import DirectoryQuote
from repro.workload.job import Job


class CoordinatedGFA(GridFederationAgent):
    """A GFA that publishes and consumes load reports via the directory."""

    def _publish_load(self) -> None:
        # A departed or discovered-dead cluster has no directory entry to
        # attach a load report to; publishing resumes once it is re-listed.
        if self.directory is not None and self.directory.is_subscribed(self.name):
            self.directory.report_load(self.name, self.lrms.expected_wait())

    # -- publication hooks: every LRMS state change refreshes the report ---- #
    def _accept_locally(self, job: Job) -> None:
        super()._accept_locally(job)
        self._publish_load()

    def receive_remote_job(self, job: Job, origin_gfa: str) -> None:
        super().receive_remote_job(job, origin_gfa)
        self._publish_load()

    def _on_lrms_completion(self, job: Job) -> None:
        super()._on_lrms_completion(job)
        self._publish_load()

    # -- consumption: prune hopeless candidates before negotiating --------- #
    def _candidate_is_hopeless(self, quote: DirectoryQuote, job: Job) -> bool:
        """True if the published load already rules the candidate out."""
        if job.deadline is None:
            return False
        published_wait = self.directory.load_of(quote.gfa_name)
        earliest_completion = self.sim.now + published_wait + execution_time(job, quote.spec)
        return earliest_completion > job.absolute_deadline + 1e-9

    def _negotiate(self, quote: DirectoryQuote, job: Job) -> bool:
        if self._candidate_is_hopeless(quote, job):
            self.stats.negotiations_refused += 1
            return False
        return super()._negotiate(quote, job)

