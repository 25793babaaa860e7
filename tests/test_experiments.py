"""Smoke and shape tests for every experiment driver.

These run with the reduced suite (4 PigMix queries) to stay fast while
still asserting the paper's qualitative shapes.
"""

import pytest

from repro.experiments import (
    ablations,
    accuracy,
    build_store,
    collect_suite,
    fig1_3,
    fig4_1,
    fig4_3,
    fig4_5,
    fig4_6,
    fig6_1,
    fig6_3,
    table6_1,
    twin_of,
)
from repro.experiments.common import ExperimentContext
from repro.workloads import standard_benchmark


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.create()


@pytest.fixture(scope="module")
def records(ctx):
    return collect_suite(ctx, standard_benchmark(pigmix_queries=4))


class TestCommon:
    def test_collect_suite_keys(self, records):
        assert "word-count@wikipedia-35gb" in records
        record = records["word-count@wikipedia-35gb"]
        assert record.full_profile.has_reduce
        assert record.features.has_reduce

    def test_build_store_exclusions(self, records):
        full = build_store(records)
        without_key = build_store(records, exclude_keys={"word-count@wikipedia-35gb"})
        without_job = build_store(records, exclude_jobs={"word-count"})
        assert len(without_key) == len(full) - 1
        assert len(without_job) == len(full) - 2

    def test_twin_of(self, records):
        assert twin_of(records, "word-count@wikipedia-35gb") == "word-count@random-text-1gb"
        assert twin_of(records, "word-cooccurrence-stripes@random-text-1gb") is None


class TestAccuracyShapes:
    def test_pstorm_sd_is_perfect(self, records):
        result = accuracy.evaluate_pstorm(records, "SD")
        assert result.map_accuracy == 1.0
        assert result.reduce_accuracy == 1.0

    def test_pstorm_dd_misses_only_twinless(self, records):
        result = accuracy.evaluate_pstorm(records, "DD")
        twinless = sum(
            1 for key in records if twin_of(records, key) is None
        )
        assert result.map_correct == result.map_total - twinless

    def test_pstorm_beats_baselines(self, records):
        for state in ("SD", "DD"):
            pstorm = accuracy.evaluate_pstorm(records, state)
            p_features = accuracy.evaluate_nn_baseline(records, state, include_static=False)
            sp_features = accuracy.evaluate_nn_baseline(records, state, include_static=True)
            assert pstorm.map_accuracy > p_features.map_accuracy
            assert pstorm.map_accuracy > sp_features.map_accuracy
            # The paper: baselines fail for more than 35% of submissions.
            assert p_features.map_accuracy < 0.65
            assert sp_features.map_accuracy < 0.65


class TestFigureDrivers:
    def test_fig1_3_shape(self, ctx):
        result = fig1_3.run(ctx)
        speedups = {row[0]: row[1] for row in result.rows}
        assert speedups["CBO (own profile)"] > speedups["RBO"]
        reuse = speedups["CBO (bigram rel. freq. profile)"]
        own = speedups["CBO (own profile)"]
        assert reuse > speedups["RBO"]
        assert reuse == pytest.approx(own, rel=0.25)

    def test_fig4_1_shape(self, ctx):
        result = fig4_1.run(ctx)
        for row in result.rows:
            __, splits, ten_pct, one_task, ten_slots, one_slot = row
            assert one_task < ten_pct
            assert one_slot == 1
            assert ten_slots == pytest.approx(splits * 0.1, rel=0.2)

    def test_fig4_3_shape(self, ctx):
        result = fig4_3.run(ctx)
        by_job = {row[0]: row for row in result.rows}
        wc = by_job["word-count"]
        cooc = by_job["word-cooccurrence-pairs"]
        map_index = result.headers.index("MAP")
        assert cooc[map_index] > wc[map_index]

    def test_fig4_5_shape(self, ctx):
        result = fig4_5.run(ctx)
        cooc, bigram = result.rows
        for index in range(1, len(result.headers)):
            if float(bigram[index]) > 0:
                ratio = float(cooc[index]) / float(bigram[index])
                assert 0.4 < ratio < 2.5

    def test_fig4_6_shape(self, ctx):
        result = fig4_6.run(ctx)
        shuffle_column = result.headers.index("shuffle s/reducer")
        small, large = result.rows
        assert large[shuffle_column] > small[shuffle_column]

    def test_fig6_1_driver(self, ctx, records):
        result = fig6_1.run(ctx, records)
        assert len(result.rows) == 6
        pstorm_sd = next(r for r in result.rows if r[0] == "PStorM" and r[1] == "SD")
        assert pstorm_sd[2] == 1.0

    def test_table6_1_covers_suite(self, ctx):
        result = table6_1.run(ctx)
        assert len(result.rows) == 56

    def test_result_rendering(self, ctx):
        result = fig4_6.run(ctx)
        text = str(result)
        assert "Figure 4.6" in text
        assert result.as_dicts()[0]["dataset"] == "random-text-1gb"


class TestFig63:
    @pytest.fixture(scope="class")
    def outcome(self, ctx, records):
        return fig6_3.run(ctx, records)

    def test_pstorm_at_least_rbo(self, outcome):
        for row in outcome.rows:
            __, __, rbo, sd, dd, nj, __ = row
            assert max(sd, dd, nj) >= rbo * 0.95

    def test_cooccurrence_largest_speedup(self, outcome):
        by_job = {row[0]: row for row in outcome.rows}
        cooc_sd = by_job["word-cooccurrence-pairs"][3]
        for name, row in by_job.items():
            if name != "word-cooccurrence-pairs":
                assert cooc_sd > row[3]

    def test_inverted_index_near_one(self, outcome):
        by_job = {row[0]: row for row in outcome.rows}
        assert by_job["inverted-index"][3] < 1.5
        assert by_job["inverted-index"][2] < 1.05  # RBO hurts or ties

    def test_nj_close_to_sd(self, outcome):
        for row in outcome.rows:
            __, __, __, sd, __, nj, __ = row
            assert nj == pytest.approx(sd, rel=0.35)


class TestAblations:
    def test_pushdown_ships_less(self, ctx, records):
        result = ablations.run_pushdown(ctx, records)
        by_mode = {row[0]: row for row in result.rows}
        assert by_mode["pushdown"][2] < by_mode["client-side"][2]
        assert by_mode["pushdown"][1] == by_mode["client-side"][1]  # same scans
        assert by_mode["pushdown"][2] <= 0.1 * by_mode["pushdown"][1]

    def test_store_models(self, ctx, records):
        result = ablations.run_store_models(ctx, records)
        by_model = {row[0]: row for row in result.rows}
        adopted = by_model["feature-type prefix (adopted)"]
        per_type = by_model["table per feature type (§5.2.2)"]
        tsdb = by_model["OpenTSDB keys (§5.2.1)"]
        assert per_type[1] > adopted[1]
        assert tsdb[2] > adopted[2]

    def test_param_features(self, ctx):
        result = ablations.run_param_features(ctx)
        for __, plain, augmented in result.rows:
            assert augmented < plain
