"""Benchmarks for the DESIGN.md ablations (§5.2, §5.3, §7.2.1)."""

from repro.experiments import ablations

from .conftest import run_once


def test_pushdown_ablation(benchmark, ctx, records):
    result = run_once(benchmark, ablations.run_pushdown, ctx, records)
    by_mode = {row[0]: row for row in result.rows}
    assert by_mode["pushdown"][2] < by_mode["client-side"][2]
    assert by_mode["pushdown"][2] <= 0.1 * by_mode["pushdown"][1]


def test_store_model_ablation(benchmark, ctx, records):
    result = run_once(benchmark, ablations.run_store_models, ctx, records)
    by_model = {row[0]: row for row in result.rows}
    assert (
        by_model["table per feature type (§5.2.2)"][1]
        > by_model["feature-type prefix (adopted)"][1]
    )


def test_param_feature_ablation(benchmark, ctx):
    result = run_once(benchmark, ablations.run_param_features, ctx)
    for __, plain, augmented in result.rows:
        assert augmented < plain
