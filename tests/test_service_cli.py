"""CLI surface of the service layer: checkpoint/resume flags, sweep cache
flags, and the real-SIGKILL smoke (a subprocess killed mid-run resumes to
the exact uninterrupted fingerprint)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.cli import build_parser, main

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Reduced-scale CLI scenario shared by the in-process tests.
_FAST_ARGS = ["--workload", "synthetic", "--thin", "20", "--seed", "7"]


def _fingerprint(text: str) -> str:
    return text.rsplit("fingerprint=", 1)[1].split()[0]


class TestRunFlags:
    def test_checkpoint_then_resume_matches(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", *_FAST_ARGS]) == 0
        plain = _fingerprint(capsys.readouterr().out)
        assert (
            main(["run", *_FAST_ARGS, "--checkpoint", ckpt, "--checkpoint-interval", "3600"])
            == 0
        )
        assert _fingerprint(capsys.readouterr().out) == plain
        # The run completed, but its last mid-run snapshot is still there:
        # resuming replays the tail and lands on the same digest.
        assert main(["run", "--resume", ckpt]) == 0
        assert _fingerprint(capsys.readouterr().out) == plain

    def test_resume_rejects_checkpoint_flag(self, tmp_path, capsys):
        assert main(["run", "--resume", str(tmp_path), "--checkpoint", str(tmp_path)]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_rejects_validate_flag(self, tmp_path, capsys):
        assert main(["run", "--resume", str(tmp_path), "--validate"]) == 2
        assert "--validate" in capsys.readouterr().err

    def test_resume_missing_snapshot_is_exit_2(self, tmp_path, capsys):
        assert main(["run", "--resume", str(tmp_path / "empty")]) == 2
        assert "no snapshot to resume" in capsys.readouterr().err

    def test_resume_scenario_mismatch_is_exit_2(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", *_FAST_ARGS, "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["run", "--resume", ckpt, "--seed", "99"]) == 2
        err = capsys.readouterr().err
        assert "scenario mismatch" in err
        assert "seed=99" in err

    def test_resume_of_a_previous_format_checkpoint_is_exit_2(self, tmp_path, capsys):
        """A checkpoint an older build wrote is refused with the version
        message, and a re-run over its directory still completes to the
        uninterrupted fingerprint."""
        from repro.service.checkpoint import snapshot_path
        from repro.service.snapshot import SNAPSHOT_FORMAT_VERSION
        from tests.test_service_resume import _rewrite_format_version

        ckpt = str(tmp_path / "ckpt")
        assert main(["run", *_FAST_ARGS]) == 0
        plain = _fingerprint(capsys.readouterr().out)
        assert main(["run", *_FAST_ARGS, "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        previous = SNAPSHOT_FORMAT_VERSION - 1
        _rewrite_format_version(snapshot_path(ckpt), previous)
        assert main(["run", "--resume", ckpt]) == 2
        err = capsys.readouterr().err
        assert (
            f"snapshot format version {previous} is not supported by this build "
            f"(which reads version {SNAPSHOT_FORMAT_VERSION})"
        ) in err
        assert main(["run", *_FAST_ARGS, "--checkpoint", ckpt]) == 0
        assert _fingerprint(capsys.readouterr().out) == plain

    def test_sharded_checkpoint_then_resume_matches(self, tmp_path, capsys):
        """--checkpoint and --resume serve --workers runs: the run stays
        sharded, leaves a fleet checkpoint, and resumes to the same digest."""
        sharded = ["run", *_FAST_ARGS, "--topology", "two-tier-wan", "--workers", "2"]
        assert main(sharded) == 0
        out = capsys.readouterr().out
        assert "par: 2 workers (process)" in out
        plain = _fingerprint(out)
        ckpt = tmp_path / "ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no serial-fallback RuntimeWarning
            assert main([*sharded, "--checkpoint", str(ckpt), "--checkpoint-interval", "1800"]) == 0
        out = capsys.readouterr().out
        assert "par: 2 workers (process)" in out
        assert _fingerprint(out) == plain
        assert (ckpt / "par-state.bin").exists()
        assert main(["run", "--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "par: 2 workers (process)" in out
        assert _fingerprint(out) == plain

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", *_FAST_ARGS, "--checkpoint-interval", "nan"],
            ["run", *_FAST_ARGS, "--checkpoint-interval", "inf"],
            ["daemon", "--state", "{tmp}", "--checkpoint-interval", "inf"],
        ],
        ids=["run-nan", "run-inf", "daemon-inf"],
    )
    def test_non_finite_checkpoint_interval_is_exit_2(self, tmp_path, capsys, argv):
        argv = [arg.replace("{tmp}", str(tmp_path / "state")) for arg in argv]
        assert main(argv) == 2
        assert "finite positive" in capsys.readouterr().err

    def test_parser_knows_daemon_command(self):
        args = build_parser().parse_args(
            ["daemon", "--state", "/tmp/x", "--port", "0", "--workers", "2"]
        )
        assert args.command == "daemon"
        assert args.workers == 2


class TestSweepCacheFlags:
    def test_cache_dir_persists_points(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", *_FAST_ARGS, "--profiles", "0", "100", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        entries = [n for n in os.listdir(cache) if n.endswith(".result.pkl")]
        assert len(entries) == 2
        # Second invocation is served from disk (same entries, none added).
        assert main(argv) == 0
        capsys.readouterr()
        assert sorted(
            n for n in os.listdir(cache) if n.endswith(".result.pkl")
        ) == sorted(entries)

    def test_clear_cache_flag(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["sweep", *_FAST_ARGS, "--profiles", "0", "--cache-dir", cache]
        assert main(argv) == 0
        capsys.readouterr()
        assert any(n.endswith(".result.pkl") for n in os.listdir(cache))
        assert main([*argv, "--clear-cache"]) == 0
        capsys.readouterr()
        # Cleared, then repopulated by the run itself.
        assert len([n for n in os.listdir(cache) if n.endswith(".result.pkl")]) == 1

    def test_clear_cache_requires_cache_dir(self, capsys):
        assert main(["sweep", *_FAST_ARGS, "--profiles", "0", "--clear-cache"]) == 2
        assert "--cache-dir" in capsys.readouterr().err


class TestSigkillSmoke:
    """The real thing: a subprocess SIGKILLed mid-run, resumed byte-identically."""

    _SCENARIO_ARGS = [
        "run", "--workload", "synthetic", "--size", "32", "--thin", "8", "--seed", "7",
    ]

    def _cli(self, *extra, timeout=240.0):
        env = dict(os.environ, PYTHONPATH=_REPO_SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *extra],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        reference = self._cli(*self._SCENARIO_ARGS)
        assert reference.returncode == 0, reference.stderr
        expected = _fingerprint(reference.stdout)

        ckpt = tmp_path / "ckpt"
        env = dict(os.environ, PYTHONPATH=_REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", *self._SCENARIO_ARGS,
                "--checkpoint", str(ckpt), "--checkpoint-interval", "1800",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            deadline = time.monotonic() + 120.0
            snapshot = ckpt / "latest.ckpt"
            while time.monotonic() < deadline and not snapshot.exists():
                time.sleep(0.02)
            assert snapshot.exists(), "no checkpoint was ever written"
            # SIGKILL — no cleanup handlers, exactly like a crash or OOM kill.
            proc.kill()
        finally:
            proc.wait(timeout=30.0)

        resumed = self._cli("run", "--resume", str(ckpt))
        assert resumed.returncode == 0, resumed.stderr
        assert _fingerprint(resumed.stdout) == expected
