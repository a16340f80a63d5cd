"""The transport: every cross-entity message of a federation flows through here.

One :class:`Transport` per federation routes

* GFA↔GFA **negotiation round trips** (:meth:`Transport.roundtrip`) — the
  NEGOTIATE is always accounted; the REPLY only when the round trip survives
  the responder's liveness, the fault plan's perturbation windows and the
  link's datagram loss;
* GFA↔GFA **job migration** (:meth:`Transport.transfer`) — a reliable bulk
  transfer that can be delayed by link latency / bandwidth and by slow-network
  windows, or lost outright by a lossy fault window (attributed through the
  injector);
* GFA↔GFA **completion notifications** (:meth:`Transport.notify`) — one-way,
  always delivered;
* GFA↔directory **control traffic** (:meth:`Transport.control`) — subscribe /
  quote / query messages, counted per kind.

The transport owns the run's one message ledger, :attr:`Transport.log` (a
:class:`~repro.core.messages.MessageLog`), and records every data-plane
message into it exactly once, which is how Experiment 4/5 message counts are
*derived* from actual traffic instead of being instrumented at call sites.

Determinism: the default ``uniform`` topology with no fault plan draws no
random numbers and delivers everything inline, so the default path stays
byte-identical to the pre-transport code.  Fault-window draws come from the
injector's ``"faults/network"`` stream (the legacy draw order is preserved);
link-loss draws come from the federation's ``"net/latency"`` stream.

Fast path: when the topology is *free* (zero latency, infinite bandwidth, no
loss — the paper's model) and no fault windows are installed, the data-plane
methods short-circuit past link lookups, window scans, loss draws and latency
accounting straight to the counter updates.  Every recorded count is
identical to the slow path's — only per-message overhead (and the
per-transfer fate-tuple allocation) disappears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.messages import MessageLog, MessageType
from repro.net.topology import Topology, UniformTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import NetworkPerturbation
    from repro.sim.engine import Simulator
    from repro.workload.job import Job

__all__ = ["Transport", "TransportStats", "CONTROL_MESSAGE_MB", "JOB_PAYLOAD_MB"]

#: Nominal size of a control message (negotiate / reply / completion receipt).
CONTROL_MESSAGE_MB = 0.002
#: Nominal size of a migrated job's input sandbox.
JOB_PAYLOAD_MB = 8.0


@dataclass
class TransportStats:
    """Traffic measured by one transport over one run.

    Carried on :attr:`repro.core.federation.FederationResult.network`.  The
    per-type, per-GFA and per-job message counts live in the transport's
    :class:`~repro.core.messages.MessageLog`; these are the link-level
    measurements around them.
    """

    #: Data-plane messages carried (equals ``MessageLog.total_messages``).
    messages: int = 0
    #: Megabytes pushed over data-plane links.
    volume_mb: float = 0.0
    #: One-way link latency accumulated by delivered data-plane messages.
    latency_s: float = 0.0
    #: Round trips that never completed (dead peer, window loss, link loss).
    timeouts: int = 0
    #: Round trips lost to *topology* datagram loss specifically.
    link_losses: int = 0
    #: Job transfers destroyed by a lossy fault window.
    transit_losses: int = 0
    #: Transfers that arrived later than they were sent (latency or windows).
    delayed_deliveries: int = 0
    #: Control-plane (directory) messages, total and per kind.
    control_messages: int = 0
    control_by_kind: Dict[str, int] = field(default_factory=dict)

    def merge_from(self, other: "TransportStats") -> None:
        """Fold another transport's traffic into this one (purely additive).

        Used by the parallel engine: each shard runs its own transport, and
        every data-plane message is carried by exactly one shard's transport,
        so summing the stats reproduces the single-transport accounting.
        """
        self.messages += other.messages
        self.volume_mb += other.volume_mb
        self.latency_s += other.latency_s
        self.timeouts += other.timeouts
        self.link_losses += other.link_losses
        self.transit_losses += other.transit_losses
        self.delayed_deliveries += other.delayed_deliveries
        self.control_messages += other.control_messages
        for kind, count in other.control_by_kind.items():
            self.control_by_kind[kind] = self.control_by_kind.get(kind, 0) + count


#: Shared fate tuple returned by every fast-path transfer: the default path
#: hands a job over synchronously, so no per-transfer tuple is allocated.
_DELIVER_INLINE: Tuple[str, float] = ("deliver", 0.0)

#: Read once: on Python 3.11 an enum member lookup on its class is a
#: Python-level call, and every round trip books a NEGOTIATE.
_NEGOTIATE = MessageType.NEGOTIATE


class Transport:
    """Routes, perturbs and accounts every cross-entity message.

    Parameters
    ----------
    sim:
        The federation's simulator (its clock decides which fault window is
        active).
    topology:
        The link model; defaults to the free :class:`UniformTopology`.
    rng:
        Generator for *link-level* datagram loss draws (the federation passes
        its ``"net/latency"`` stream).  Never touched by loss-free topologies.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Optional[Topology] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.topology = topology if topology is not None else UniformTopology()
        self._rng = rng
        self.stats = TransportStats()
        #: The run's one message ledger (Experiment 4/5 counts).
        self.log = MessageLog()
        #: Fault-plan perturbation windows (installed by the fault injector).
        self._windows: Sequence["NetworkPerturbation"] = ()
        self._fault_rng: Optional[np.random.Generator] = None
        # The short-circuit is legal iff every link is free and no fault
        # window can ever perturb a message; recomputed when windows arrive.
        self._fast = self.topology.free

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def set_perturbations(
        self, windows: Sequence["NetworkPerturbation"], rng: np.random.Generator
    ) -> None:
        """Install a fault plan's degraded-network windows.

        Called by :class:`~repro.faults.injector.FaultInjector`; ``rng`` is
        the plan's dedicated ``"faults/network"`` stream, so window draws are
        identical to the pre-transport per-call hooks.
        """
        self._windows = tuple(windows)
        self._fault_rng = rng
        self._fast = self.topology.free and not self._windows

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def roundtrip(
        self,
        src: str,
        dst: str,
        job: "Job",
        responder_alive: bool = True,
        size_mb: float = CONTROL_MESSAGE_MB,
    ) -> bool:
        """One NEGOTIATE/REPLY exchange; ``True`` iff the round trip completes.

        The request is always recorded (it was sent).  The reply is recorded
        only when it arrives: a dead responder never answers, an active lossy
        fault window loses the round trip with its probability, and a lossy
        link (WAN topologies) drops the datagram with the link's rate.
        Latency is charged to the accounting, not to the simulation clock —
        the paper models negotiation as instantaneous in simulated time.
        The fate is decided first (no draw once it is lost); then one ledger
        call books the NEGOTIATE and any REPLY, and the sums add them in
        that order.
        """
        replied = responder_alive
        link_lost = False
        if self._fast:
            # Free links, no windows: nothing can delay or lose the round
            # trip, so skip the link lookup and the window/loss machinery.
            latency_s = 0.0
        else:
            link = self.topology.link(src, dst)
            latency_s = link.latency_s
            if replied and self._windows:
                window = self._window_at(self.sim.now)
                if window is not None and window.loss_rate > 0.0:
                    replied = not (self._fault_rng.random() < window.loss_rate)
            link_lost = replied and link.loss_rate > 0.0 and self._draw() < link.loss_rate
            if link_lost:
                replied = False
        self.log.record(_NEGOTIATE, src, dst, job, replied)
        stats = self.stats
        stats.volume_mb += size_mb
        stats.latency_s += latency_s
        if replied:
            stats.messages += 2
            stats.volume_mb += size_mb
            stats.latency_s += latency_s
            return True
        stats.messages += 1
        stats.timeouts += 1
        if link_lost:
            stats.link_losses += 1
        return False

    def transfer(
        self,
        src: str,
        dst: str,
        job: "Job",
        size_mb: float = JOB_PAYLOAD_MB,
    ) -> Tuple[str, float]:
        """Ship a job's payload; returns ``(fate, delay_seconds)``.

        ``fate`` is ``"deliver"`` or ``"lost"``.  Transfers are reliable
        streams over the topology — link loss only costs retransmissions,
        never the job — so the only way to lose one is an active lossy fault
        window (in which case the caller attributes the job through the
        injector).  Delivered transfers are delayed by the window's
        ``submission_delay`` plus the link's latency and serialisation time;
        a zero delay (the default path) means the caller delivers inline,
        exactly like the pre-transport synchronous hand-off.
        """
        if self._fast:
            self._record(MessageType.JOB_SUBMISSION, src, dst, job, size_mb, 0.0)
            return _DELIVER_INLINE
        link = self.topology.link(src, dst)
        self._record(MessageType.JOB_SUBMISSION, src, dst, job, size_mb, link.latency_s)
        delay = 0.0
        window = self._window_at(self.sim.now) if self._windows else None
        if window is not None:
            if window.loss_rate > 0.0 and self._fault_rng.random() < window.loss_rate:
                self.stats.transit_losses += 1
                return ("lost", 0.0)
            delay += window.submission_delay
        delay += link.transfer_seconds(size_mb)
        if delay > 0.0:
            self.stats.delayed_deliveries += 1
        return ("deliver", delay)

    def notify(
        self,
        src: str,
        dst: str,
        mtype: MessageType,
        job: "Job",
        size_mb: float = CONTROL_MESSAGE_MB,
    ) -> None:
        """A one-way, reliable notification (job-completion receipts)."""
        if self._fast:
            self._record(mtype, src, dst, job, size_mb, 0.0)
            return
        link = self.topology.link(src, dst)
        self._record(mtype, src, dst, job, size_mb, link.latency_s)

    # ------------------------------------------------------------------ #
    # Control plane (directory traffic)
    # ------------------------------------------------------------------ #
    def control(self, kind: str, messages: int = 1) -> None:
        """Account ``messages`` control-plane messages of one ``kind``.

        Control traffic is deliberately kept out of the message ledger: the
        paper excludes directory messages from its Experiment 4/5 counts, so
        they live in :class:`TransportStats` only.
        """
        stats = self.stats
        stats.control_messages += messages
        stats.control_by_kind[kind] = stats.control_by_kind.get(kind, 0) + messages

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _window_at(self, now: float) -> Optional["NetworkPerturbation"]:
        for window in self._windows:
            if window.active_at(now):
                return window
        return None

    def _draw(self) -> float:
        if self._rng is None:  # pragma: no cover - defensive: lossy topology, no rng
            raise RuntimeError("transport has a lossy topology but no rng")
        return self._rng.random()

    def _record(
        self,
        mtype: MessageType,
        sender: str,
        receiver: str,
        job: "Job",
        size_mb: float,
        latency_s: float,
    ) -> None:
        stats = self.stats
        stats.messages += 1
        stats.volume_mb += size_mb
        stats.latency_s += latency_s
        self.log.record(mtype, sender, receiver, job)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Transport({self.topology.describe()}, messages={self.stats.messages}, "
            f"timeouts={self.stats.timeouts})"
        )
