"""Tests for cross-cluster transfer (§7.2.6) and workflows (§7.2.5)."""

import pytest

from repro.core import PStorM
from repro.core.transfer import calibration_ratios, transfer_profile
from repro.core.workflows import ChainStage, run_chain
from repro.hadoop import HadoopEngine, JobConfiguration, ec2_cluster
from repro.hadoop.cluster import CostRates
from repro.starfish import StarfishProfiler, WhatIfEngine


@pytest.fixture(scope="module")
def slow_cluster():
    rates = CostRates(
        read_hdfs_ns_per_byte=32.0, write_hdfs_ns_per_byte=50.0,
        read_local_ns_per_byte=18.0, write_local_ns_per_byte=24.0,
        network_ns_per_byte=44.0, cpu_ns_per_record=700.0,
        compress_ns_per_byte=60.0, decompress_ns_per_byte=20.0,
    )
    return ec2_cluster(base_rates=rates, seed=21)


class TestCalibration:
    def test_identity_ratios(self, cluster):
        ratios = calibration_ratios(cluster, cluster)
        assert ratios.disk == pytest.approx(1.0)
        assert ratios.network == pytest.approx(1.0)
        assert ratios.cpu == pytest.approx(1.0)

    def test_slow_to_fast_ratios_below_one(self, slow_cluster, cluster):
        ratios = calibration_ratios(slow_cluster, cluster)
        assert ratios.disk < 1.0
        assert ratios.cpu < 1.0
        assert ratios.network < 1.0

    def test_unknown_names_pass_through(self, slow_cluster, cluster):
        ratios = calibration_ratios(slow_cluster, cluster)
        assert ratios.for_name("RECORDS_PER_GROUP") == 1.0


class TestTransferProfile:
    @pytest.fixture()
    def source_profile(self, slow_cluster, wordcount, small_text):
        profiler = StarfishProfiler(HadoopEngine(slow_cluster))
        profile, __ = profiler.profile_job(wordcount, small_text)
        return profile

    def test_data_flow_untouched(self, source_profile, slow_cluster, cluster):
        adjusted = transfer_profile(source_profile, slow_cluster, cluster)
        assert dict(adjusted.map_profile.data_flow) == dict(
            source_profile.map_profile.data_flow
        )

    def test_cost_factors_scaled_down(self, source_profile, slow_cluster, cluster):
        adjusted = transfer_profile(source_profile, slow_cluster, cluster)
        for name, value in source_profile.map_profile.cost_factors.items():
            assert adjusted.map_profile.cost_factors[name] < value

    def test_source_tagged(self, source_profile, slow_cluster, cluster):
        adjusted = transfer_profile(source_profile, slow_cluster, cluster)
        assert adjusted.source.startswith("transferred(")

    def test_prediction_error_shrinks(
        self, source_profile, slow_cluster, cluster, engine, wordcount, small_text
    ):
        whatif = WhatIfEngine(cluster)
        actual = engine.run_job(wordcount, small_text, JobConfiguration()).runtime_seconds
        raw = whatif.predict(source_profile, JobConfiguration()).runtime_seconds
        adjusted_profile = transfer_profile(source_profile, slow_cluster, cluster)
        adjusted = whatif.predict(adjusted_profile, JobConfiguration()).runtime_seconds
        assert abs(adjusted - actual) < abs(raw - actual)


class TestWorkflows:
    @pytest.fixture()
    def pstorm(self, engine):
        return PStorM(engine)

    def test_chain_validation(self, pstorm, small_text):
        with pytest.raises(ValueError):
            run_chain(pstorm, [], small_text)
        with pytest.raises(ValueError):
            ChainStage(job=None, input_from="sideways")

    def test_two_stage_chain_runs(self, pstorm, wordcount, small_text):
        from repro.hadoop.job import MapReduceJob

        def top_map(word, count, ctx):
            if count > 1:
                ctx.emit(count, word)
            else:
                ctx.report_ops(1)

        def top_reduce(count, words, ctx):
            for word in words:
                ctx.emit(count, word)

        ranker = MapReduceJob(name="rank-by-count", mapper=top_map, reducer=top_reduce)
        result = run_chain(
            pstorm,
            [ChainStage(wordcount, input_from="source"), ChainStage(ranker)],
            small_text,
        )
        assert len(result.stages) == 2
        # Stage 2 consumed stage 1's (word, count) output.
        assert result.stages[1].dataset.name == "wordcount-test-output"
        assert result.total_runtime_seconds > 0

    def test_derived_dataset_size_follows_selectivity(self, pstorm, wordcount, small_text):
        from repro.hadoop.job import MapReduceJob

        def count_map(word, count, ctx):
            ctx.emit("total", count)

        def count_reduce(key, counts, ctx):
            ctx.emit(key, sum(counts))

        totaler = MapReduceJob(name="totaler", mapper=count_map, reducer=count_reduce)
        result = run_chain(
            pstorm,
            [ChainStage(wordcount, input_from="source"), ChainStage(totaler)],
            small_text,
        )
        derived = result.stages[1].dataset
        # Word count aggressively aggregates: output ≪ input.
        assert derived.nominal_bytes < small_text.nominal_bytes

    def test_rerun_chain_hits_the_measurement_cache(
        self, cluster, wordcount, small_text
    ):
        from repro.hadoop.job import MapReduceJob
        from repro.observability import MetricsRegistry

        def count_map(word, count, ctx):
            ctx.emit("total", count)

        def count_reduce(key, counts, ctx):
            ctx.emit(key, sum(counts))

        totaler = MapReduceJob(name="totaler", mapper=count_map, reducer=count_reduce)
        registry = MetricsRegistry()
        pstorm = PStorM(HadoopEngine(cluster, registry=registry), registry=registry)
        stages = [ChainStage(wordcount, input_from="source"), ChainStage(totaler)]
        misses = registry.counter("hadoop_engine_map_cache_misses_total")
        first = run_chain(pstorm, stages, small_text)
        after_first = misses.value
        second = run_chain(pstorm, stages, small_text)
        # The derived stage-2 input of the re-run equals the first run's,
        # so its measurements come from the cache.
        assert after_first > 0
        assert misses.value == after_first
        assert second.stages[1].dataset == first.stages[1].dataset

    def test_source_stages_reread_input(self, pstorm, wordcount, small_text):
        result = run_chain(
            pstorm,
            [
                ChainStage(wordcount, input_from="source"),
                ChainStage(wordcount, input_from="source"),
            ],
            small_text,
        )
        assert result.stages[1].dataset is small_text

    def test_second_run_hits_the_store(self, pstorm, wordcount, small_text):
        stages = [ChainStage(wordcount, input_from="source")]
        first = run_chain(pstorm, stages, small_text)
        second = run_chain(pstorm, stages, small_text)
        assert first.matched_stages() == 0
        assert second.matched_stages() == 1

    def test_fim_chain_end_to_end(self, engine):
        from repro.workloads import (
            fim_aggregate_job,
            fim_item_count_job,
            fim_pair_count_job,
            webdocs_dataset,
        )

        pstorm = PStorM(engine)
        stages = [
            ChainStage(fim_item_count_job(), input_from="source"),
            ChainStage(fim_pair_count_job(), input_from="source"),
            ChainStage(fim_aggregate_job(), input_from="source"),
        ]
        result = run_chain(pstorm, stages, webdocs_dataset())
        assert len(result.stages) == 3
        # Every stage either hit the store or was stored on the miss path;
        # behaviour-alike stages may legitimately match earlier ones.
        stored = sum(
            1 for s in result.stages if s.submission.profile_stored_as is not None
        )
        assert stored + result.matched_stages() == 3
        assert stored >= 1
