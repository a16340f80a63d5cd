"""The benchmark's workloads: what each runs, why, and what it should move.

A run of a simulation workload at ``--seed S`` drives the scenario seeds
``S, S+1, ..., S+K-1`` (``K`` = ``seeds``), one fresh interpreter per
scenario, and reports medians over them.  One scenario's cost moves by about
±10% from one seed to the next (different job sizes give different queue
lengths); covering K seeds in a run keeps that from swamping run-to-run
noise.  The daemon workload instead repeats one closed loop over the same 40
scenario seeds ``S .. S+39``, so its repetitions also check determinism.

Sizes and layer shares were measured at seed 42 on a 2-vCPU VM.  Its speed
drifted: hypervisor steal came and went in spells of minutes, and even
without steal a fixed pure-Python loop's time moved by up to 1.8x.  So the
simulation workloads' timings are reported at a reference host speed (see
``run.CALIB_REF_S``), and the end-to-end timing bounds still sit at 0.25.

``econ-wan-128``: the Exp-5 economy (OFT 30%), 128 clusters, ``thin=8``, the
two-tier WAN transport, serial.  5,376 jobs, 21,396 events, ~59 MB.
Why: LRMS admission estimates are ~82% of wall (23,105 estimates take 6.8 s
of an 8.3 s run; 7,064 profile builds; reuse 0.69), the serial hot path of
incremental availability profiles.  It is also the only serial workload with
real directory (5,376 sessions, 23,255 probes), WAN-transport (56,056
messages, 5,268 delayed transfers) and GridBank (5,376 transfers) traffic.

``fed-1024``: the Table-3 federation, 1,024 clusters, ``thin=8``, uniform
network, serial.  43,008 jobs, 129,024 events, ~195 MB.
Why: workload generation (~40% of wall; ~340k jobs generated, thinned to
43k) and the event kernel with ~43k standing arrivals carry it.  Its LRMS
time is writes: 43,008 submits with ~1% profile reuse, because each submit
changes the queue, so a change that makes estimates cheaper by making
submits costlier shows up here.  Only 880 negotiations, 31 directory
sessions, 1,822 messages on the uniform fast path, and no bank.

``econ-wan-128-par2``: workload 1's exact scenarios through
``try_parallel_run(workers=2, backend="oracle")``: the two-shard model the
process backend runs, with the same fingerprint, in one process.  3,066
barrier windows, 4,150 cross-shard messages (1.86 MB), worker load 57%/43%,
``deadline_met_pct`` 98.196 against serial's 100 (the sharded model's drift).
Why: the only ``par`` workload; its shared input makes serial and sharded
runs directly comparable.  About half the admission enquiries hit O(1) proxy
snapshots instead of ``cluster`` estimates.  The process backend was
measured first and dropped: on two vCPUs its barrier windows amplify
hypervisor steal, and five runs put its ``wall_s`` spread at 32% while
``cpu_s`` spread 9%.  So IPC and pickling cost is not measured here.

``daemon-closed-loop``: an in-process ``GridfedDaemon`` (one worker thread)
and one closed-loop ``DaemonClient`` (one request outstanding at a time),
the process pinned to one CPU.
40 distinct scenario seeds of the paper's 8-cluster federation at
``thin=30``, each submitted fresh and then twice more (served from the
persistent cache): 120 submissions, one ``/health`` call per fresh one.
Why: the only workload the ``service`` layer dominates.  A fresh run takes
~20 ms plain but 130-250 ms under the daemon's hourly checkpoints (52
snapshots).  With one fresh submission per two repeats, ``turnaround_p50_ms``
lands on the cache-read path and ``turnaround_p90_ms`` on the snapshot-write
path.  Every submit reads every record twice, so submit latency grows from
~3 ms to ~11 ms between the first and last ten submissions.

Predictions: which layer metric should move which end-to-end metric, where.

==========  ===========================================  ====================
layer       moves (workload where it does most work)     does little in
==========  ===========================================  ====================
cluster     wall_s, cpu_s, jobs_per_s on econ-wan-128;   fed-1024 (estimates
            also -par2 (half the enquiries are O(1)      ~17% of wall, reuse
            proxy answers)                               ~0.01); submit_s
                                                         there guards
                                                         jobs_per_s
workload    setup_s on fed-1024 (~2 s)                   econ-wan-128 (0.25 s)
sim         jobs_per_s, peak_rss_mb on fed-1024          econ-wan-128 (0.6 s)
core        wall_s on econ-wan-128 (22,835               fed-1024 (880)
            negotiations, 24% accepted)
p2p         econ-wan-128 (5,376 sessions)                fed-1024 (31)
net         econ-wan-128 (56,056 WAN messages)           fed-1024 (1,822)
economy     econ-wan-128 (5,376 transfers)               fed-1024 (no bank)
par         wall_s, cpu_s on econ-wan-128-par2 (window   absent elsewhere
            stepping, proxies, cross-shard traffic)
service     turnaround_p90_ms, submissions_per_s         absent elsewhere
            (snapshots); turnaround_p50_ms (cache
            reads, records read) on daemon-closed-loop
trace       nothing: overhead and unattributed share     -
            describe the trace itself
==========  ===========================================  ====================

``faults``, ``resilience``, ``extensions`` and ``baselines`` are off in
every workload.  ``repro.validate`` runs only as the correctness check,
outside the timed region.

Seed-42 digests (``result_fingerprint``; for the daemon, the sha256 of its
40 fresh fingerprints in submission order) are in :data:`WORKLOADS`; at
seed 7 every workload also ran clean (no violation, no failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["WORKLOADS", "Workload", "DAEMON_SCENARIOS", "DAEMON_REPEATS"]

_ECON_WAN_128 = {
    "mode": "economy",
    "oft_fraction": 0.3,
    "system_size": 128,
    "thin": 8,
    "transport": "two-tier-wan",
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: "serial", "par" or "daemon".
    kind: str
    #: Scenario fields (the seed is added per scenario).
    fields: Dict[str, object] = field(default_factory=dict)
    workers: int = 0
    #: Scenario seeds one cycle covers (simulation workloads).
    seeds: int = 1
    #: Nominal seconds one cycle takes; ``--seconds`` buys whole cycles.
    cycle_s: float = 10.0
    #: Leading hex digits of the seed-42 digest.
    seed42_digest: Optional[str] = None


#: Distinct scenarios the daemon workload submits fresh, and how many more
#: times each is resubmitted (served from the cache).
DAEMON_SCENARIOS = 40
DAEMON_REPEATS = 2

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("econ-wan-128", "serial", _ECON_WAN_128, seeds=3, cycle_s=27.0,
                 seed42_digest="90af5ba0"),
        Workload("fed-1024", "serial", {"mode": "federation", "system_size": 1024, "thin": 8},
                 seeds=3, cycle_s=21.0, seed42_digest="6bd5ac4c"),
        Workload("econ-wan-128-par2", "par", _ECON_WAN_128, workers=2, seeds=3, cycle_s=17.0,
                 seed42_digest="7ae02905"),
        Workload("daemon-closed-loop", "daemon", {"mode": "federation", "thin": 30},
                 cycle_s=8.0, seed42_digest="223d5ac2"),
    )
}
