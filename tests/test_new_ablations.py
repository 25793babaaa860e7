"""Tests for the filter-order, threshold, transfer, and weight ablations."""

import numpy as np
import pytest

from repro.experiments import ablations
from repro.experiments.common import ExperimentContext, collect_suite
from repro.workloads import standard_benchmark


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.create()


@pytest.fixture(scope="module")
def records(ctx):
    return collect_suite(ctx, standard_benchmark(pigmix_queries=2))


class TestFilterOrder:
    def test_statics_first_loses_nj_matches(self, ctx, records):
        result = ablations.run_filter_order(ctx, records)
        by_order = {row[0]: row for row in result.rows}
        dynamics = by_order["dynamics-first (PStorM)"]
        statics = by_order["statics-first"]
        assert dynamics[2] > statics[2]  # NJ match rate
        assert dynamics[1] >= statics[1]  # DD accuracy no worse


class TestThresholdSensitivity:
    def test_paper_operating_point_on_plateau(self, ctx, records):
        result = ablations.run_threshold_sensitivity(ctx, records)
        by_setting = {(row[0], row[1]): row[2] for row in result.rows}
        paper_point = by_setting[(0.5, 1.0)]
        best = max(by_setting.values())
        assert paper_point >= best - 0.05

    def test_strict_euclid_hurts(self, ctx, records):
        result = ablations.run_threshold_sensitivity(ctx, records)
        by_setting = {(row[0], row[1]): row[2] for row in result.rows}
        assert by_setting[(0.5, 0.5)] <= by_setting[(0.5, 1.0)]


class TestClusterTransfer:
    def test_adjustment_shrinks_error(self, ctx):
        result = ablations.run_cluster_transfer(ctx)
        for row in result.rows:
            raw_err, adjusted_err = row[4], row[5]
            assert adjusted_err < raw_err


class TestGbrtWeights:
    def test_weights_normalized(self, ctx, records):
        result = ablations.run_gbrt_weights(ctx, records)
        weights = [row[1] for row in result.rows]
        assert len(weights) == 8
        assert sum(weights) == pytest.approx(1.0, abs=0.02)

    def test_dynamic_distance_dominates(self, ctx, records):
        """The learned Eq. 1 metric leans on the dynamic distances — the
        conclusion PStorM's filter order hand-encodes."""
        result = ablations.run_gbrt_weights(ctx, records)
        by_name = {row[0]: row[1] for row in result.rows}
        assert by_name["Eucl_DS_map"] > by_name["Jacc_map"]
        assert by_name["Eucl_DS_map"] > by_name["CFG_map"]


class TestGbrtImportancesUnit:
    def test_importances_track_signal_feature(self):
        from repro.core.gbrt import GbrtParams, fit_gbrt

        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(300, 4))
        y = 5.0 * x[:, 2] + rng.normal(0, 0.01, 300)
        params = GbrtParams(n_trees=80, shrinkage=0.1, cv_folds=0, train_fraction=1.0)
        model = fit_gbrt(x, y, params, seed=1)
        importances = model.feature_importances(num_features=4, n_trees=80)
        assert int(np.argmax(importances)) == 2
        assert importances[2] > 0.8


class TestStoreScalability:
    def test_scans_grow_with_store(self, ctx, records):
        result = ablations.run_store_scalability(
            ctx, records, store_sizes=(30, 120)
        )
        small, large = result.rows
        assert large[2] > small[2]            # scanned rows grow
        assert large[3] < large[2]            # shipped stays a fraction
        assert 0 < small[1] < large[1]        # warm candidates track copies


class TestCfgCostCorrelation:
    def test_positive_rank_correlation(self, ctx, records):
        result = ablations.run_cfg_cost_correlation(ctx, records)
        assert "rho=" in result.notes
        rho = float(result.notes.split("rho=")[1].split(" ")[0])
        assert rho > 0.5

    def test_one_row_per_job_family(self, ctx, records):
        result = ablations.run_cfg_cost_correlation(ctx, records)
        names = [row[0] for row in result.rows]
        assert len(names) == len(set(names))
