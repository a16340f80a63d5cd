#!/usr/bin/env python
"""CI kill-and-resume smoke: SIGKILL a checkpointed run, resume, compare.

Two phases, serial then sharded, each run three ways:

1. an uninterrupted reference run, capturing its result fingerprint;
2. the same run with ``--checkpoint``, SIGKILLed as soon as its first
   checkpoint hits disk — no cleanup handlers, exactly like a crash/OOM kill;
3. ``gridfed run --resume`` on the half-finished state directory.

The serial phase runs the Experiment-5 scalability shape at 256 clusters
(4x the paper's largest federation); its checkpoint is ``latest.ckpt``.  The
sharded phase runs the same economy on the two-tier WAN at 64 clusters with
``--workers 2``; its checkpoint is a fleet checkpoint committed by
``par-state.bin``, and the killed coordinator's shard workers must exit
within 10 seconds on their own.

The resumed fingerprint must equal the reference bit for bit; anything else
is a hard failure. Exits non-zero on any mismatch or timeout.

Usage::

    PYTHONPATH=src python scripts/resume_smoke.py [--size 256]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: How long a killed coordinator's shard workers may outlive it.
WORKER_EXIT_S = 10.0

#: Clusters in the sharded phase's federation.
SHARDED_SIZE = 64


def _cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _fingerprint(stdout: str) -> str:
    return stdout.rsplit("fingerprint=", 1)[1].split()[0]


def _children(pid: int) -> List[int]:
    """Live direct children of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    children = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        stat = _stat(int(entry)) if entry.isdigit() else None
        if stat is not None and stat[1] == pid and stat[0] != "Z":
            children.append(int(entry))
    return children


def _stat(pid: int) -> Optional[tuple]:
    """``(state, parent pid)`` of a process, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _running(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


def _run(args: List[str], env: dict, timeout: float) -> Optional[str]:
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return done.stdout


def kill_and_resume(
    label: str, scenario_args: List[str], marker: str, sharded: bool,
    checkpoint_interval: float, timeout: float,
) -> bool:
    env = _cli_env()
    print(f"[resume-smoke] {label} reference run: {' '.join(scenario_args)}", flush=True)
    reference = _run(scenario_args, env, timeout)
    if reference is None:
        return False
    if sharded and "par: 2 workers" not in reference:
        print(f"[resume-smoke] FAIL: {label} reference did not run sharded", file=sys.stderr)
        return False
    expected = _fingerprint(reference)
    print(f"[resume-smoke] {label} reference fingerprint: {expected}", flush=True)

    with tempfile.TemporaryDirectory(prefix="gridfed-resume-smoke-") as tmp:
        ckpt = os.path.join(tmp, "ckpt")
        committed = os.path.join(ckpt, marker)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", *scenario_args,
                "--checkpoint", ckpt,
                "--checkpoint-interval", str(checkpoint_interval),
            ],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        workers: List[int] = []
        try:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline and not os.path.exists(committed):
                time.sleep(0.02)
            if not os.path.exists(committed):
                print(f"[resume-smoke] FAIL: {label}: no {marker} was ever written",
                      file=sys.stderr)
                return False
            workers = _children(proc.pid) if sharded else []
            proc.kill()  # SIGKILL: the process gets no chance to clean up
        finally:
            proc.wait(timeout=60.0)
        print(f"[resume-smoke] {label} checkpointed run SIGKILLed mid-flight", flush=True)
        if sharded:
            if sys.platform.startswith("linux") and len(workers) < 2:
                print(f"[resume-smoke] FAIL: found {len(workers)} shard workers, "
                      "expected 2", file=sys.stderr)
                return False
            deadline = time.monotonic() + WORKER_EXIT_S
            while time.monotonic() < deadline and any(_running(pid) for pid in workers):
                time.sleep(0.05)
            survivors = [pid for pid in workers if _running(pid)]
            if survivors:
                print(f"[resume-smoke] FAIL: shard workers {survivors} outlived the "
                      f"killed coordinator by {WORKER_EXIT_S:.0f}s", file=sys.stderr)
                return False
            print(f"[resume-smoke] {label}: {len(workers)} shard workers exited "
                  "with their coordinator", flush=True)

        resumed = _run(["run", "--resume", ckpt], env, timeout)
        if resumed is None:
            return False
        actual = _fingerprint(resumed)
        print(f"[resume-smoke] {label} resumed fingerprint:   {actual}", flush=True)

    if actual != expected:
        print(f"[resume-smoke] FAIL: {label} resumed fingerprint differs from reference",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--thin", type=int, default=16)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--checkpoint-interval", type=float, default=3600.0,
                        help="virtual seconds between checkpoints")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args()

    common = ["--thin", str(args.thin), "--seed", str(args.seed)]
    phases = [
        ("serial", ["run", "--size", str(args.size), *common], "latest.ckpt", False),
        (
            "sharded",
            [
                "run", "--size", str(SHARDED_SIZE), *common,
                "--topology", "two-tier-wan", "--workers", "2",
            ],
            "par-state.bin",
            True,
        ),
    ]
    for label, scenario_args, marker, sharded in phases:
        if not kill_and_resume(
            label, scenario_args, marker, sharded, args.checkpoint_interval, args.timeout
        ):
            return 1
    print("[resume-smoke] OK: interrupted-then-resumed runs are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
