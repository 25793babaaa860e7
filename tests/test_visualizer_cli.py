"""Tests for the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.chaos import set_default_injector
from repro.cli import EXIT_CRASHED, build_parser, main


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_jobs(self, capsys):
        assert main(["list-jobs"]) == 0
        out = capsys.readouterr().out
        assert "word-cooccurrence-pairs" in out
        assert "pigmix-l17" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "fig9_9"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments" in err

    def test_single_experiment_runs(self, capsys):
        assert main(["experiments", "fig4_6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4.6" in out

    def test_seed_flag_parsed(self):
        args = build_parser().parse_args(["--seed", "7", "list-jobs"])
        assert args.seed == 7

    def test_unwritable_emit_metrics_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--emit-metrics", str(target)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert (
            f"repro: cannot write metrics to {target}: No such file or directory\n"
            in err
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("point", range(9))
    def test_crash_point_exits_typed(self, capsys, point):
        """``demo --chaos crash-point:N``: a kill inside the demo's eight
        store operations (N = 0..7) ends the command with one ``repro:``
        line naming the killed operation; N = 8 is past the run."""
        try:
            status = main(["demo", "--chaos", f"crash-point:{point}"])
        finally:
            set_default_injector(None)
        err = capsys.readouterr().err
        if point < 8:
            assert status == EXIT_CRASHED
            assert err.endswith(f"(op #{point})\n"), err
            assert err.splitlines()[-1].startswith("repro: simulated process kill at ")
        else:
            assert status == 0
        assert "Traceback" not in err

    def test_closed_stdout_exits_without_traceback(self):
        """``repro list-jobs | true``: the reader is gone before the
        command writes, so every write hits a closed pipe."""
        src = str(Path(repro.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "list-jobs"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src), timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""
