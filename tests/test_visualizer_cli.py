"""Tests for the visualizer and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.hadoop import JobConfiguration
from repro.starfish.visualizer import (
    compare_phase_breakdowns,
    phase_breakdown,
    task_timeline,
)


@pytest.fixture()
def execution(engine, wordcount, small_text):
    return engine.run_job(wordcount, small_text, JobConfiguration(num_reduce_tasks=2))


class TestVisualizer:
    def test_phase_breakdown_mentions_all_phases(self, execution):
        text = phase_breakdown(execution)
        for phase in ("READ", "MAP", "COLLECT", "SHUFFLE", "REDUCE"):
            assert phase in text
        assert execution.job_name in text

    def test_phase_breakdown_totals_mode(self, execution):
        per_task = phase_breakdown(execution, per_task=True)
        totals = phase_breakdown(execution, per_task=False)
        assert "s/task" in per_task
        assert "s total" in totals

    def test_map_only_breakdown(self, engine, maponly_job, small_text):
        execution = engine.run_job(maponly_job, small_text)
        text = phase_breakdown(execution)
        assert "reduce phases" not in text

    def test_compare_breakdowns(self, engine, wordcount, small_text, execution):
        other = engine.run_job(wordcount, small_text, JobConfiguration())
        text = compare_phase_breakdowns(execution, other)
        assert "map:MAP" in text
        assert "red:SHUFFLE" in text

    def test_task_timeline_shape(self, execution, cluster):
        text = task_timeline(
            execution, cluster.total_map_slots, cluster.total_reduce_slots
        )
        assert "m" in text
        assert "r" in text
        assert "runtime" in text

    def test_timeline_rows_bounded(self, execution, cluster):
        text = task_timeline(
            execution, cluster.total_map_slots, cluster.total_reduce_slots,
            max_rows=6,
        )
        assert len(text.splitlines()) <= 8  # header + ≤6 rows + slack


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

    def test_explain_unknown_job(self, capsys):
        code = main(["explain", "nope@never", "also@never"])
        assert code == 2

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
