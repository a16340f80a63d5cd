"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --work DIR

Drives the package only through its public entry points
(``repro.scenario.run_scenario``, ``repro.par.try_parallel_run`` and
``repro.service.GridfedDaemon`` / ``DaemonClient``), checks the outputs
outside the timed region, and prints one JSON line with this repetition's
samples.  ``run.py`` starts one of these per measurement, so peak RSS is per
repetition and no warm state carries over between them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import List, Optional

from workloads import DAEMON_REPEATS, DAEMON_SCENARIOS, WORKLOADS, Workload

#: Client poll interval while a fresh daemon submission runs.  Fresh runs
#: take 130-250 ms, so this bounds the turnaround quantisation to ~5%.
DAEMON_POLL_S = 0.01

#: Where the simulation clock starts: the serial kernel's run loop, or the
#: parallel coordinator's first window dispatch.  The first name that fired
#: wins; the later ones keep ``setup_s`` measurable if a refactor drops it.
CLOCK_START = {
    "serial": ("repro.sim.engine:Simulator.run", "repro.core.federation:Federation.start"),
    "par": ("repro.par.engine:OracleShardHandle.step_begin",
            "repro.par.engine:OracleShardHandle.step_finish"),
}

#: The sharded workload runs the parallel engine's in-process backend: the
#: same model and fingerprint as the process backend, but no barrier waits
#: on two vCPUs, whose steal made two-worker wall time swing by 30%.
PAR_BACKEND = "oracle"


def host_steal_s() -> Optional[float]:
    """Host steal time summed over all CPUs (the ``cpu`` line of /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of the largest of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibrate(rounds: int = 300_000) -> float:
    """Seconds a fixed pure-Python event loop takes on this machine right now.

    Even with no hypervisor steal, this loop's time moved by up to 1.8x
    within minutes on the 2-vCPU VM the bounds were set on, and the
    workloads' times moved with it; ``run.py`` scales simulation timings by
    it.
    """
    import heapq

    start = time.perf_counter()
    queue = [(float(key), key) for key in range(256)]
    heapq.heapify(queue)
    load: dict = {}
    for _ in range(rounds):
        when, key = heapq.heappop(queue)
        slot = key & 63
        load[slot] = load.get(slot, 0.0) * 0.5 + when
        heapq.heappush(queue, (when + 1.0 + (key % 7) * 0.25, key))
    return time.perf_counter() - start


class TimedRegion:
    """Wall, CPU and host steal across the measured region, plus the host
    speed (:func:`calibrate`) averaged over just before and just after it.
    """

    def __enter__(self) -> "TimedRegion":
        self.calib0 = calibrate()
        self.steal0 = host_steal_s()
        self.cpu0 = cpu_s()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.cpu_s = cpu_s() - self.cpu0
        steal1 = host_steal_s()
        self.steal_s = (
            steal1 - self.steal0 if steal1 is not None and self.steal0 is not None else None
        )
        self.calib_s = (self.calib0 + calibrate()) / 2

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def deadline_counts(jobs) -> List[int]:
    """[jobs completed by their deadline, jobs submitted]."""
    from repro.workload import JobStatus

    met = 0
    for job in jobs:
        deadline = job.absolute_deadline
        if job.status is JobStatus.COMPLETED and (
            deadline is None or job.finish_time <= deadline + 1e-9
        ):
            met += 1
    return [met, len(jobs)]


def check_result(result, errors: List[str], label: str) -> str:
    """Validate one federation result; returns its fingerprint."""
    from repro.scenario import result_fingerprint
    from repro.validate import validate_result

    violations = validate_result(result)
    if violations:
        errors.append(f"{label}: {len(violations)} invariant violation(s), first: {violations[0]}")
    return result_fingerprint(result)


def run_simulation(workload: Workload, seed: int, tracer):
    from repro.par import try_parallel_run
    from repro.scenario import Scenario, run_scenario
    from spans import ClockProbe

    scenario = Scenario(**workload.fields, seed=seed)
    probe = ClockProbe()
    for where in CLOCK_START[workload.kind]:
        probe.watch(where)
    errors: List[str] = []
    with TimedRegion() as region:
        if workload.kind == "par":
            result, par = try_parallel_run(
                scenario, workers=workload.workers, backend=PAR_BACKEND
            )
        else:
            result = run_scenario(scenario)
    probe.uninstall()
    if tracer is not None:
        tracer.uninstall()
    if workload.kind == "par":
        if result is None or not par.ran_parallel:
            raise SystemExit(f"seed {seed}: not sharded: {par.fallback_reason}")
        if par.degraded or par.restarts or par.worker_failures:
            errors.append(
                f"sharded run was disturbed: degraded={par.degraded} "
                f"restarts={par.restarts} worker_failures={par.worker_failures}"
            )
    fired = [probe.first[where] for where in CLOCK_START[workload.kind] if where in probe.first]
    if not fired:
        errors.append("no clock-start name fired: " + ", ".join(CLOCK_START[workload.kind]))
    setup_s = (fired[0] if fired else region.end) - region.start

    fingerprint = check_result(result, errors, f"seed {seed}")
    sample = {
        "wall_s": region.wall_s,
        "setup_s": setup_s,
        "serve_s": region.wall_s,
        "cpu_s": region.cpu_s,
        "steal_s": region.steal_s,
        "calib_s": region.calib_s,
        "jobs": len(result.jobs),
        "deadline": deadline_counts(result.jobs),
        "turnarounds_ms": [1000.0 * region.wall_s],
        "digest": fingerprint,
        "errors": errors,
    }
    return sample, [result], region


def run_daemon(workload: Workload, seed: int, tracer, work_dir: str):
    from repro.scenario import Scenario
    from repro.service import DaemonClient, DaemonState, GridfedDaemon, PersistentResultCache

    scenarios = [
        Scenario(**workload.fields, seed=seed + index) for index in range(DAEMON_SCENARIOS)
    ]
    state_dir = os.path.join(work_dir, f"daemon-{os.getpid()}")
    errors: List[str] = []
    turnarounds: List[float] = []
    records: List[List[dict]] = []
    daemon = None
    if hasattr(os, "sched_setaffinity"):
        # Its threads share one interpreter lock, so one CPU costs no
        # parallelism; on a 2-vCPU VM pinning cut a loop's wall by 7% when
        # quiet and by 20% under hypervisor steal, and halved the steal seen.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with TimedRegion() as region:
            daemon = GridfedDaemon(state_dir, workers=1)
            daemon.start()
            client = DaemonClient(daemon.address)
            client.health()
            setup_end = time.perf_counter()
            for scenario in scenarios:
                group = []
                for _ in range(1 + DAEMON_REPEATS):
                    start = time.perf_counter()
                    sid = client.submit(scenario)
                    group.append(client.wait(sid, timeout=120.0, poll=DAEMON_POLL_S))
                    turnarounds.append(1000.0 * (time.perf_counter() - start))
                records.append(group)
                client.health()
    finally:
        if daemon is not None:
            daemon.stop()
    if tracer is not None:
        tracer.uninstall()

    cache = PersistentResultCache(DaemonState(state_dir).cache_dir())
    results = []
    fingerprints = []
    for scenario, group in zip(scenarios, records):
        fresh = group[0]
        for position, record in enumerate(group):
            if record.get("status") != "completed":
                errors.append(f"{record.get('id')}: ended {record.get('status')} ({record.get('error')})")
            elif bool(record.get("cached")) != (position > 0):
                errors.append(f"{record.get('id')}: cached={record.get('cached')} at position {position}")
            elif record.get("fingerprint") != fresh.get("fingerprint"):
                errors.append(f"{record.get('id')}: fingerprint differs from its fresh run")
        try:
            result = cache[scenario.scenario_hash()]
        except KeyError:
            errors.append(f"seed {scenario.seed}: no cached result")
            continue
        fingerprint = check_result(result, errors, f"seed {scenario.seed}")
        if fingerprint != fresh.get("fingerprint"):
            errors.append(f"seed {scenario.seed}: cached result does not match its record")
        fingerprints.append(fingerprint)
        results.append(result)
    met, submitted = 0, 0
    for result in results:
        counts = deadline_counts(result.jobs)
        met, submitted = met + counts[0], submitted + counts[1]
    setup_s = setup_end - region.start
    sample = {
        "wall_s": region.wall_s,
        "setup_s": setup_s,
        "serve_s": region.wall_s - setup_s,
        "cpu_s": region.cpu_s,
        "steal_s": region.steal_s,
        "calib_s": region.calib_s,
        "jobs": sum(len(result.jobs) for result in results),
        "deadline": [met, submitted],
        "turnarounds_ms": turnarounds,
        "digest": hashlib.sha256(",".join(fingerprints).encode("ascii")).hexdigest(),
        "errors": errors,
    }
    return sample, results, region


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    if workload.kind == "daemon":
        sample, results, region = run_daemon(workload, args.seed, tracer, args.work)
    else:
        sample, results, region = run_simulation(workload, args.seed, tracer)
    sample["peak_rss_mb"] = peak_rss_mb()
    sample["submissions"] = len(sample["turnarounds_ms"])

    if tracer is not None:
        unreadable: set = set()
        sample["layers"] = layers.layer_metrics(
            tracer.totals(), results, wall_s=region.wall_s, window=(region.start, region.end),
            unreadable=unreadable,
        )
        sample["unmeasured"] = layers.unmeasured_layers(tracer, unreadable)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
