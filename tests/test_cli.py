"""Tests for the ``gridfed`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        args = parser.parse_args(["table2", "--thin", "5", "--seed", "7"])
        assert args.command == "table2"
        assert args.thin == 5
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])


class TestCommands:
    def test_table1_prints_configuration(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CTC SP2" in out
        assert "LANL Origin" in out
        assert "Two-day jobs" in out

    def test_table4_prints_related_systems(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Grid-Federation" in out
        assert "Tycoon" in out

    def test_table2_reduced_run(self, capsys):
        assert main(["table2", "--thin", "8"]) == 0
        out = capsys.readouterr().out
        assert "without federation" in out
        assert "SDSC Blue" in out

    def test_figure9_reduced_run(self, capsys):
        assert main(["figure9", "--thin", "10", "--profiles", "0", "100"]) == 0
        out = capsys.readouterr().out
        assert "Total messages" in out
        assert "OFT %" in out


class TestQueueBackendOption:
    def test_queue_option_is_gone(self, capsys):
        """One event kernel: ``--queue`` is an unknown flag, reported as a
        single argparse error line with exit status 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--queue", "heap"])
        assert excinfo.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error" in line
        ]
        assert errors == ["gridfed: error: unrecognized arguments: --queue heap"]

    def test_unknown_queue_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--queue", "splay"])


class TestProfileCommand:
    def test_profile_prints_hotspot_table(self, capsys):
        assert main(["profile", "--thin", "20", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Hotspots" in out
        assert "Cumulative s" in out
        assert "run_scenario" in out

    def test_profile_supports_tottime_sort(self, capsys):
        assert main(["profile", "--thin", "20", "--top", "3", "--sort", "tottime"]) == 0
        assert "by tottime time" in capsys.readouterr().out


class TestBenchBaselineErrors:
    def test_missing_baseline_is_a_clear_error(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            ["bench", "--scale", "smoke", "--out", str(out_path),
             "--compare", str(tmp_path / "nope.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "Traceback" not in err

    def test_schema_mismatch_is_a_clear_error(self, tmp_path, capsys):
        stale = tmp_path / "stale.json"
        stale.write_text('{"schema": "gridfed-bench/1", "scale": "smoke"}')
        out_path = tmp_path / "report.json"
        code = main(
            ["bench", "--scale", "smoke", "--out", str(out_path),
             "--compare", str(stale)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "gridfed-bench/1" in err
        assert "regenerate" in err
        assert "Traceback" not in err

    def test_unreadable_baseline_is_a_clear_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["bench", "--scale", "smoke", "--out", str(tmp_path / "r.json"),
             "--compare", str(bad)]
        )
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err
