"""Tests for the deterministic load harness (repro.serving.loadgen)."""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

import pytest

from repro.chaos import FaultInjector, outage_plan, set_default_injector
from repro.observability import MetricsRegistry
from repro.serving import (
    LoadConfig,
    ServiceConfig,
    TenantPolicy,
    TenantSpec,
    run_load,
)
from repro.serving.loadgen import LOADGEN_SERVICE, _percentiles, loadgen_zoo


@pytest.fixture(autouse=True)
def _no_ambient_chaos():
    set_default_injector(None)
    yield
    set_default_injector(None)


def _config(workers=2, **overrides):
    defaults = dict(requests=40, seed=7)
    defaults.update(overrides)
    return LoadConfig(service=replace(LOADGEN_SERVICE, workers=workers), **defaults)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        first = run_load(_config(), registry=MetricsRegistry())
        second = run_load(_config(), registry=MetricsRegistry())
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self):
        first = run_load(_config(), registry=MetricsRegistry())
        second = run_load(_config(seed=8), registry=MetricsRegistry())
        assert first.to_json() != second.to_json()

    def test_closed_mode_deterministic(self):
        first = run_load(_config(mode="closed"), registry=MetricsRegistry())
        second = run_load(_config(mode="closed"), registry=MetricsRegistry())
        assert first.to_json() == second.to_json()

    def test_json_is_sorted_and_parseable(self):
        report = run_load(_config(requests=10), registry=MetricsRegistry())
        parsed = json.loads(report.to_json())
        assert list(parsed) == sorted(parsed)


class TestSummaryShape:
    def test_counts_reconcile(self):
        report = run_load(_config(), registry=MetricsRegistry())
        counts = report.summary["counts"]
        assert counts["requests"] == 40
        assert (
            counts["ok"] + counts["failed"] + counts["shed_total"]
            == counts["requests"]
        )
        assert counts["cache_hits"] <= counts["ok"]

    def test_mixed_outcomes_at_ci_scale(self):
        # The CI smoke's contract: default knobs produce hits AND sheds.
        report = run_load(
            _config(requests=200, workers=4), registry=MetricsRegistry()
        )
        counts = report.summary["counts"]
        assert counts["cache_hits"] > 0
        assert counts["shed_total"] > 0
        assert counts["remembers"] > 0

    def test_per_tenant_totals_match(self):
        report = run_load(_config(), registry=MetricsRegistry())
        per_tenant = report.summary["per_tenant"]
        total = sum(t["requests"] for t in per_tenant.values())
        assert total == report.summary["counts"]["requests"]

    def test_latency_percentiles_ordered(self):
        report = run_load(_config(), registry=MetricsRegistry())
        for block in report.summary["latency"].values():
            assert block["p50"] <= block["p95"] <= block["p99"] <= block["max"]

    def test_zoo_is_stable(self):
        names = [(job.name, ds.name) for job, ds in loadgen_zoo()]
        assert names == [(job.name, ds.name) for job, ds in loadgen_zoo()]
        assert len(set(names)) == len(names)


class TestChaosUnderLoad:
    def test_outage_finishes_with_degradations(self):
        set_default_injector(FaultInjector(outage_plan(seed=7)))
        report = run_load(
            _config(requests=60, workers=4), registry=MetricsRegistry()
        )
        counts = report.summary["counts"]
        assert counts["requests"] == 60
        # Every request resolved: served, degraded, or typed-shed —
        # never hung.
        assert (
            counts["ok"] + counts["failed"] + counts["shed_total"] == 60
        )
        assert counts["degraded"] + counts["shed_total"] > 0

    def test_outage_run_is_deterministic(self):
        set_default_injector(FaultInjector(outage_plan(seed=7)))
        first = run_load(_config(requests=30), registry=MetricsRegistry())
        set_default_injector(FaultInjector(outage_plan(seed=7)))
        second = run_load(_config(requests=30), registry=MetricsRegistry())
        assert first.to_json() == second.to_json()


class TestPercentiles:
    def test_empty(self):
        assert _percentiles([]) == {
            "max": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_single_value(self):
        block = _percentiles([3.0])
        assert block["p50"] == block["p99"] == block["max"] == 3.0

    def test_known_values(self):
        block = _percentiles([float(i) for i in range(101)])
        assert block["p50"] == 50.0
        assert block["max"] == 100.0
        assert block["mean"] == 50.0


class TestCli:
    def test_loadgen_verb_prints_summary(self, capsys):
        from repro.cli import main

        assert main(["loadgen", "--requests", "15", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert summary["counts"]["requests"] == 15

    def test_loadgen_verb_deterministic_across_calls(self, capsys):
        from repro.cli import main

        main(["loadgen", "--requests", "15", "--seed", "7"])
        first = capsys.readouterr().out
        main(["loadgen", "--requests", "15", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_loadgen_seed_flag_position_equivalent(self, capsys):
        from repro.cli import main

        main(["--seed", "7", "loadgen", "--requests", "15"])
        global_seed = capsys.readouterr().out
        main(["loadgen", "--requests", "15", "--seed", "7"])
        verb_seed = capsys.readouterr().out
        assert global_seed == verb_seed

    def test_serve_verb_clean_shutdown(self, capsys):
        from repro.cli import main

        assert main(["serve", "--requests", "8", "--workers", "2",
                     "--seed", "7"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hung_workers"] == 0
        assert summary["served"] + summary["shed"] == 8

    def test_serve_verb_under_chaos(self, capsys):
        from repro.cli import main

        assert main(["serve", "--requests", "6", "--workers", "2",
                     "--seed", "7", "--chaos", "outage"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hung_workers"] == 0


    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "0"],
            ["serve", "--queue-capacity", "0"],
            ["serve", "--replication", "0"],
            ["serve", "--shed-watermark", "100", "--queue-capacity", "4"],
            ["loadgen", "--requests", "0"],
            ["loadgen", "--deadline-seconds", "-1"],
            ["loadgen", "--cache-capacity", "0"],
        ],
    )
    def test_out_of_range_service_flag_exits_typed(self, capsys, argv):
        """A knob the service's config or parts reject ends the verb with
        one ``repro:`` line and status 2, before any serving starts."""
        from repro.cli import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro: invalid configuration: ")
        assert "Traceback" not in captured.err


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            LoadConfig(mode="sideways")

    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError):
            LoadConfig(requests=0)

    def test_tenant_policy_plumbed(self):
        config = _config(
            tenants=[TenantSpec("only", weight=1.0, rate_per_second=9.0, burst=5.0)]
        )
        report = run_load(replace(config, requests=2), registry=MetricsRegistry())
        policies = report.service.config.tenant_policies
        assert policies["only"].rate_per_second == 9.0
        assert policies["only"].burst == 5.0

    def test_rate_limits_come_only_from_tenants(self):
        policies = {"only": TenantPolicy(rate_per_second=9.0, burst=5.0)}
        with pytest.raises(ValueError, match="LoadConfig.tenants"):
            LoadConfig(service=replace(LOADGEN_SERVICE, tenant_policies=policies))


def _subparser(verb: str) -> argparse.ArgumentParser:
    from repro.cli import build_parser

    parser = build_parser()
    [commands] = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices[verb]


class TestServiceFlags:
    """The serve and loadgen flags are generated from ServiceConfig, so a
    config field cannot lack a flag or drift from its verb's default."""

    def _flag_dests(self, verb: str) -> set[str]:
        subparser = _subparser(verb)
        subparser.format_help()  # service flags are added on first use
        return {
            action.dest for action in subparser._actions if action.option_strings
        }

    def test_other_verbs_do_not_import_the_serving_layer(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import sys; from repro.cli import build_parser; "
            "build_parser().parse_args(['list-jobs']); "
            "print(any(m.startswith('repro.serving') for m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "False"

    def test_every_scalar_field_has_a_flag_on_both_verbs(self):
        from repro.cli import service_flag_fields

        names = {spec.name for spec, __ in service_flag_fields()}
        assert "workers" in names and "shard_index" in names
        assert "tenant_policies" not in names
        assert names <= self._flag_dests("serve")
        # loadgen never starts the real frontend, so only the field that
        # picks its miss runner is left out.
        assert names - self._flag_dests("loadgen") == {"backend"}

    @pytest.mark.parametrize(
        "verb, base",
        [
            ("serve", lambda: ServiceConfig(queue_capacity=32)),
            ("loadgen", lambda: LoadConfig().service),
        ],
    )
    def test_parsed_defaults_equal_the_verbs_base_config(self, verb, base):
        from repro.cli import build_parser, service_flag_fields

        args = build_parser().parse_args([verb])
        expected = base()
        for spec, __ in service_flag_fields():
            if hasattr(args, spec.name):
                assert getattr(args, spec.name) == getattr(expected, spec.name), spec.name

    def test_existing_spellings_kept(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadgen", "--region-servers", "3",
             "--shard-index", "--tuner", "surrogate"]
        )
        assert args.num_region_servers == 3
        assert args.shard_index is True
        assert args.tuner == "surrogate"

    def test_loadgen_rejects_backend(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--backend", "processes"])
        assert "--backend" in capsys.readouterr().err


class TestLatencyResolution:
    def test_warm_hits_resolve_off_the_tick_grid(self):
        """Regression: warm p50/p99 used to clamp at the 0.01 tick because
        every hit cost exactly CACHE_HIT_COST_SECONDS.  The lookup tax
        puts hits at 0.0103 — representable only at full resolution."""
        config = LoadConfig(requests=60, seed=7)
        report = run_load(config, registry=MetricsRegistry())
        hits = [
            r
            for r in report.responses
            if r.status == "ok" and r.cache_hit
        ]
        assert hits
        for response in hits:
            assert response.service_seconds == pytest.approx(0.0103)
        warm = _percentiles([r.service_seconds for r in hits])
        assert warm["p50"] == 0.0103 != 0.01
        assert warm["p99"] == 0.0103

    def test_shed_retry_after_recorded_at_full_resolution(self):
        config = LoadConfig(
            requests=80,
            seed=7,
            arrival_rate=20.0,
            service=replace(LOADGEN_SERVICE, workers=2),
        )
        report = run_load(config, registry=MetricsRegistry())
        hints = [
            r.retry_after_seconds
            for r in report.responses
            if r.status == "shed" and r.retry_after_seconds
        ]
        assert hints
        # At least one hint lives off the 0.01 grid — rounding them at
        # record time (the old bug) would snap every one onto it.
        assert any(abs(h * 100 - round(h * 100)) > 1e-9 for h in hints)

    def test_percentiles_keep_six_decimals(self):
        assert _percentiles([0.0103, 0.0103, 0.0103])["p50"] == 0.0103
        assert _percentiles([1e-6])["max"] == 1e-6
