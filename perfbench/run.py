"""The simulator's benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 24] [--trace 0|1]

Run from the root of a checkout; it imports ``repro`` from ``src/``.  Each
repetition runs in a fresh interpreter (``rep.py``).  With ``--trace 0`` a
run makes as many whole cycles over the workload's scenario seeds as fit in
``--seconds`` (at least one) and reports each end-to-end metric as the median
over the repetitions of each repetition's own value (a simulation run is one
submission, so its turnaround is its wall time).  A simulation run's timings
are scaled to a reference host speed (:data:`CALIB_REF_S`); the raw ones are
on the ``rep`` lines.  A median ignores a repetition that steal slowed more
than the others.  With ``--trace 1`` it makes one untraced and one traced
repetition at ``--seed`` and reports the per-layer metrics; the untraced one
gives the tracing overhead.  End-to-end metrics never come from a traced
repetition.

Before the result it prints one ``rep`` line per repetition, one ``digest``
line per scenario seed and one ``diagnostics`` line.  The ``rep`` and
``diagnostics`` lines carry host steal seconds (from ``/proc/stat``, summed
over all CPUs), the wall-minus-CPU gap and ``calib_s``, the time of the
fixed pure-Python loop run beside each repetition, so a run slowed by a
noisy host can be told apart from a slow program.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status 0 means the run measured something (``correct`` says whether
every output passed the checks); 1 means nothing could be measured; 2 means
the program is missing, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: (metric, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("deadline_met_pct", "%"),
    ("turnaround_p50_ms", "ms"),
    ("turnaround_p90_ms", "ms"),
    ("submissions_per_s", "1/s"),
)

#: :func:`rep.calibrate`'s typical time on the 2-vCPU VM the bounds were set
#: on.  A simulation repetition's timings are scaled by ``CALIB_REF_S /
#: calib_s``, its own calibration beside the timed region, so that they read
#: as seconds at that reference speed: the host's speed drifted by up to 1.8x
#: within minutes, and one ten-run set's ``wall_s`` spread was 0.22 raw and
#: 0.10 scaled.  The daemon's timings stay raw: its time is mostly waiting
#: (fsync, polls, thread hand-offs) that the loop does not predict, and
#: scaling doubled its spread.
CALIB_REF_S = 0.30

#: A run must end within 180 s; no repetition starts that could end later.
RUN_DEADLINE_S = 170.0


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, trace: int, work: str, timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = os.path.join(work, "tmp")
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--work", work,
    ]
    # Its own session, so killing a timed-out repetition kills all it started.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RepFailed(f"{workload} seed {seed}: no result within {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise RepFailed(f"{workload} seed {seed}: exited {child.returncode}")
    return json.loads(lines[-1])


def plan(workload: Workload, seed: int, seconds: float, trace: int) -> List[Tuple[int, int]]:
    """(scenario seed, traced) of every repetition a run makes."""
    if trace:
        return [(seed, 0), (seed, 1)]
    cycles = max(1, round(seconds / workload.cycle_s))
    return [(seed + k, 0) for _ in range(cycles) for k in range(workload.seeds)]


def quantile(values: List[float], fraction: float) -> float:
    """Linear-interpolated quantile (inclusive), defined for one value too."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(workload: Workload, samples: List[dict]) -> Dict[str, float]:
    """Medians over the repetitions of each repetition's own value; the
    timings of simulation runs are at the reference host speed."""

    def median(per_rep) -> float:
        return statistics.median(per_rep(s) for s in samples)

    def scale(s: dict) -> float:
        return 1.0 if workload.kind == "daemon" else CALIB_REF_S / s["calib_s"]

    met = sum(s["deadline"][0] for s in samples)
    submitted = sum(s["deadline"][1] for s in samples)
    return {
        "wall_s": median(lambda s: s["wall_s"] * scale(s)),
        "setup_s": median(lambda s: s["setup_s"] * scale(s)),
        "cpu_s": median(lambda s: s["cpu_s"] * scale(s)),
        "jobs_per_s": median(lambda s: s["jobs"] / (s["wall_s"] - s["setup_s"]) / scale(s)),
        "peak_rss_mb": median(lambda s: s["peak_rss_mb"]),
        "deadline_met_pct": 100.0 * met / submitted if submitted else 0.0,
        "turnaround_p50_ms": median(lambda s: quantile(s["turnarounds_ms"], 0.5) * scale(s)),
        "turnaround_p90_ms": median(lambda s: quantile(s["turnarounds_ms"], 0.9) * scale(s)),
        "submissions_per_s": median(lambda s: len(s["turnarounds_ms"]) / s["serve_s"] / scale(s)),
    }


def describe(sample: dict, seed: int) -> str:
    steal = sample.get("steal_s")
    return "rep " + json.dumps({
        "seed": seed,
        "wall_s": round(sample["wall_s"], 4),
        "setup_s": round(sample["setup_s"], 4),
        "cpu_s": round(sample["cpu_s"], 4),
        "steal_s": None if steal is None else round(steal, 2),
        "wall_minus_cpu_s": round(sample["wall_s"] - sample["cpu_s"], 4),
        "calib_s": round(sample["calib_s"], 4),
        "peak_rss_mb": round(sample["peak_rss_mb"], 1),
        "deadline_met": sample["deadline"],
        "digest": sample["digest"][:16],
        "errors": sample["errors"],
    })


def report_digests(workload: Workload, seeds: List[int], samples: List[dict]) -> int:
    """Print each seed's digest; returns how many seeds gave more than one."""
    by_seed: Dict[int, set] = {}
    for seed, sample in zip(seeds, samples):
        by_seed.setdefault(seed, set()).add(sample["digest"])
    unstable = 0
    for seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            print(f"benchmark: seed {seed} gave {len(digests)} different digests", file=sys.stderr)
            unstable += 1
        for digest in sorted(digests):
            note = ""
            if seed == 42 and workload.seed42_digest:
                note = (" (the recorded seed-42 digest)" if digest.startswith(workload.seed42_digest)
                        else f" (differs from the recorded seed-42 digest {workload.seed42_digest})")
            print(f"digest {workload.name} seed={seed} {digest}{note}")
    return unstable


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"benchmark: no program under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(work_root, str(os.getpid()))
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    samples: List[dict] = []
    seeds: List[int] = []
    attempted = failed = 0
    try:
        longest = 0.0
        for seed, traced in plan(workload, args.seed, args.seconds, args.trace):
            left = RUN_DEADLINE_S - (time.monotonic() - started)
            if samples and left < 1.5 * longest:
                break
            rep_started = time.monotonic()
            try:
                sample = run_rep(args.workload, seed, traced, work, left)
            except RepFailed as exc:
                print(f"benchmark: {exc}", file=sys.stderr)
                attempted += 1
                failed += 1
                break
            longest = max(longest, time.monotonic() - rep_started)
            print(describe(sample, seed), flush=True)
            for error in sample["errors"]:
                print(f"benchmark: seed {seed}: {error}", file=sys.stderr)
            samples.append(sample)
            seeds.append(seed)
            attempted += sample["submissions"]
            failed += min(len(sample["errors"]), sample["submissions"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    failed += report_digests(workload, seeds, samples)

    steals = [s["steal_s"] for s in samples if s.get("steal_s") is not None]
    print("diagnostics " + json.dumps({
        "repetitions": len(samples),
        "steal_s_median": round(statistics.median(steals), 2) if steals else None,
        "steal_s_total": round(sum(steals), 2) if steals else None,
        "wall_minus_cpu_s_median": round(
            statistics.median(s["wall_s"] - s["cpu_s"] for s in samples), 4
        ) if samples else None,
        "calib_s_median": round(statistics.median(s["calib_s"] for s in samples), 4)
        if samples else None,
    }))

    metrics: Dict[str, Dict[str, object]] = {}
    if args.trace and len(samples) == 2:
        untraced, traced = samples
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0)
        if traced["unmeasured"]:
            print("unmeasured layers: " + ", ".join(traced["unmeasured"]))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    elif not args.trace and samples:
        values = end_to_end(workload, samples)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": max(failed, 0 if correct else 1),
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
