#!/usr/bin/env python
"""CI kill-and-resume smoke: SIGKILL a checkpointed run, resume, compare.

Runs the Experiment-5 scalability shape at 256 clusters (4x the paper's
largest federation) three ways:

1. an uninterrupted reference run, capturing its result fingerprint;
2. the same run with ``--checkpoint``, SIGKILLed as soon as the first
   snapshot hits disk — no cleanup handlers, exactly like a crash/OOM kill;
3. ``gridfed run --resume`` on the half-finished state directory.

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

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _fingerprint(stdout: str) -> str:
    return stdout.rsplit("fingerprint=", 1)[1].split()[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--thin", type=int, default=16)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--checkpoint-interval", type=float, default=3600.0,
                        help="virtual seconds between snapshots")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args()

    scenario_args = [
        "run", "--size", str(args.size), "--thin", str(args.thin),
        "--seed", str(args.seed),
    ]
    env = _cli_env()

    print(f"[resume-smoke] reference run: {' '.join(scenario_args)}", flush=True)
    reference = subprocess.run(
        [sys.executable, "-m", "repro.cli", *scenario_args],
        capture_output=True, text=True, env=env, timeout=args.timeout,
    )
    if reference.returncode != 0:
        sys.stderr.write(reference.stderr)
        return 1
    expected = _fingerprint(reference.stdout)
    print(f"[resume-smoke] reference fingerprint: {expected}", flush=True)

    with tempfile.TemporaryDirectory(prefix="gridfed-resume-smoke-") as tmp:
        ckpt = os.path.join(tmp, "ckpt")
        snapshot = os.path.join(ckpt, "latest.ckpt")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", *scenario_args,
                "--checkpoint", ckpt,
                "--checkpoint-interval", str(args.checkpoint_interval),
            ],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            deadline = time.monotonic() + args.timeout
            while time.monotonic() < deadline and not os.path.exists(snapshot):
                time.sleep(0.02)
            if not os.path.exists(snapshot):
                print("[resume-smoke] FAIL: no snapshot was ever written", file=sys.stderr)
                return 1
            proc.kill()  # SIGKILL: the process gets no chance to clean up
        finally:
            proc.wait(timeout=60.0)
        print("[resume-smoke] checkpointed run SIGKILLed mid-flight", flush=True)

        resumed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--resume", ckpt],
            capture_output=True, text=True, env=env, timeout=args.timeout,
        )
        if resumed.returncode != 0:
            sys.stderr.write(resumed.stderr)
            return 1
        actual = _fingerprint(resumed.stdout)
        print(f"[resume-smoke] resumed fingerprint:   {actual}", flush=True)

    if actual != expected:
        print("[resume-smoke] FAIL: resumed fingerprint differs from reference",
              file=sys.stderr)
        return 1
    print("[resume-smoke] OK: interrupted-then-resumed run is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
