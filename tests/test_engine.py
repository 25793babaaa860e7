"""Integration tests for the HadoopEngine façade."""

from dataclasses import replace

import pytest

from repro.hadoop import HadoopEngine
from repro.hadoop.config import JobConfiguration
from repro.hadoop.dataset import Dataset, FunctionRecordSource


class TestRunJob:
    def test_full_run_shape(self, engine, wordcount, small_text):
        execution = engine.run_job(wordcount, small_text, JobConfiguration())
        assert execution.num_map_tasks == small_text.num_splits
        assert execution.num_reduce_tasks == 1
        assert execution.runtime_seconds > 0
        assert not execution.sampled

    def test_map_only_job_has_no_reducers(self, engine, maponly_job, small_text):
        execution = engine.run_job(maponly_job, small_text, JobConfiguration())
        assert execution.num_reduce_tasks == 0

    def test_reducer_count_follows_config(self, engine, wordcount, small_text):
        execution = engine.run_job(
            wordcount, small_text, JobConfiguration(num_reduce_tasks=6)
        )
        assert execution.num_reduce_tasks == 6

    def test_sampled_run(self, engine, wordcount, small_text):
        execution = engine.run_job(
            wordcount, small_text, JobConfiguration(), map_task_ids=[1]
        )
        assert execution.sampled
        assert execution.num_map_tasks == 1
        assert execution.map_tasks[0].split_index == 1
        assert execution.input_bytes == small_text.split(1).nominal_bytes

    def test_sampled_run_rejects_bad_ids(self, engine, wordcount, small_text):
        with pytest.raises(IndexError):
            engine.run_job(wordcount, small_text, map_task_ids=[99])

    def test_deterministic_under_seed(self, engine, wordcount, small_text):
        a = engine.run_job(wordcount, small_text, JobConfiguration(), seed=7)
        b = engine.run_job(wordcount, small_text, JobConfiguration(), seed=7)
        assert a.runtime_seconds == b.runtime_seconds

    def test_seed_changes_node_noise(self, engine, wordcount, small_text):
        a = engine.run_job(wordcount, small_text, JobConfiguration(), seed=1)
        b = engine.run_job(wordcount, small_text, JobConfiguration(), seed=2)
        assert a.runtime_seconds != b.runtime_seconds

    def test_tuning_reduces_runtime(self, engine, wordcount, small_text):
        default = engine.run_job(wordcount, small_text, JobConfiguration())
        tuned = engine.run_job(
            wordcount,
            small_text,
            JobConfiguration(num_reduce_tasks=8, compress_map_output=True),
        )
        assert tuned.runtime_seconds < default.runtime_seconds

    def test_counters_aggregate(self, engine, wordcount, small_text):
        from repro.hadoop.counters import FRAMEWORK_GROUP

        execution = engine.run_job(wordcount, small_text, JobConfiguration())
        total = execution.counters.value(FRAMEWORK_GROUP, "MAP_INPUT_RECORDS")
        assert total == sum(t.input_records for t in execution.map_tasks)

    def test_profiled_run_slower(self, engine, wordcount, small_text):
        plain = engine.run_job(wordcount, small_text, JobConfiguration())
        profiled = engine.run_job(
            wordcount, small_text, JobConfiguration(), profile=True
        )
        assert profiled.runtime_seconds > plain.runtime_seconds

    def test_phase_totals_cover_phases(self, engine, wordcount, small_text):
        execution = engine.run_job(wordcount, small_text, JobConfiguration())
        assert set(execution.map_phase_totals()) == {
            "SETUP", "READ", "MAP", "COLLECT", "SPILL", "MERGE", "CLEANUP",
        }
        assert set(execution.reduce_phase_totals()) == {
            "SETUP", "SHUFFLE", "SORT", "REDUCE", "WRITE", "CLEANUP",
        }


class TestMeasurementCache:
    def test_measure_split_cached(self, engine, wordcount, small_text):
        first = engine.measure_split(wordcount, small_text, 0)
        second = engine.measure_split(wordcount, small_text, 0)
        assert first is second

    def test_clear_caches(self, engine, wordcount, small_text):
        first = engine.measure_split(wordcount, small_text, 0)
        engine.clear_caches()
        second = engine.measure_split(wordcount, small_text, 0)
        assert first is not second

    def test_same_name_other_seed_measured_afresh(
        self, cluster, wordcount, small_text
    ):
        """Datasets that share a name but not a seed share no measurement,
        reduce measurement or partition fractions."""
        reseeded = replace(small_text, seed=small_text.seed + 1)
        engine = HadoopEngine(cluster)
        first = engine.measure_split(wordcount, small_text, 0)
        engine.run_job(wordcount, small_text, JobConfiguration(num_reduce_tasks=4))

        fresh_engine = HadoopEngine(cluster)
        fresh = fresh_engine.measure_split(wordcount, reseeded, 0)
        assert fresh.sample_input_bytes != first.sample_input_bytes
        assert engine.measure_split(wordcount, reseeded, 0) == fresh
        config = JobConfiguration(num_reduce_tasks=4)
        got = engine.run_job(wordcount, reseeded, config)
        want = fresh_engine.run_job(wordcount, reseeded, config)
        assert got.runtime_seconds == want.runtime_seconds
        assert (got.map_table.partition_bytes == want.map_table.partition_bytes).all()
        assert engine.reduce_measurement(
            wordcount, reseeded, True
        ) == fresh_engine.reduce_measurement(wordcount, reseeded, True)

    def test_representatives_within_range(self, engine, small_text):
        indices = engine.representative_indices(small_text)
        assert all(0 <= i < small_text.num_splits for i in indices)
        assert indices == sorted(indices)

    def test_params_change_cache_key(self, engine, small_text):
        from repro.hadoop.job import MapReduceJob

        def param_map(key, value, ctx):
            for __ in range(ctx.get_param("n", 1)):
                ctx.emit(key, value)

        one = MapReduceJob(name="p", mapper=param_map, params={"n": 1})
        three = MapReduceJob(name="p", mapper=param_map, params={"n": 3})
        m1 = engine.measure_split(one, small_text, 0)
        m3 = engine.measure_split(three, small_text, 0)
        assert m3.sample_output_records == 3 * m1.sample_output_records


def _counting_dataset(name="counted", seed=5):
    """A text dataset whose record source logs every split it generates."""
    generated: list[int] = []

    def lines(split_index, rng):
        generated.append(split_index)
        words = [f"word{i:02d}" for i in range(40)]
        return [
            (i, " ".join(words[int(rng.integers(0, 40))] for __ in range(6)))
            for i in range(50)
        ]

    dataset = Dataset(
        name, nominal_bytes=256 << 20, source=FunctionRecordSource(lines), seed=seed
    )
    return dataset, generated


class TestSampleRecordCache:
    def test_jobs_on_one_dataset_materialize_each_split_once(
        self, cluster, wordcount, maponly_job
    ):
        dataset, generated = _counting_dataset()
        engine = HadoopEngine(cluster)
        engine.run_job(wordcount, dataset)
        engine.run_job(maponly_job, dataset)
        indices = engine.representative_indices(dataset)
        assert sorted(generated) == indices

    def test_sample_matches_materialize(self, cluster):
        dataset, __ = _counting_dataset()
        sample = HadoopEngine(cluster).split_sample(dataset, 1)
        records = dataset.materialize(1)
        assert sample.index == 1
        assert sample.records == tuple(records)
        assert sample.input_bytes == dataset.sample_split_bytes(records)

    def test_clear_caches_drops_records(self, cluster, wordcount):
        dataset, generated = _counting_dataset()
        engine = HadoopEngine(cluster)
        before = engine.split_sample(dataset, 0)
        assert engine.split_sample(dataset, 0) is before
        engine.clear_caches()
        after = engine.split_sample(dataset, 0)
        assert after is not before and after == before
        assert generated == [0, 0]

    def test_same_name_datasets_do_not_share_records(self, cluster):
        dataset, __ = _counting_dataset(seed=1)
        reseeded = replace(dataset, seed=2)
        engine = HadoopEngine(cluster)
        first = engine.split_sample(dataset, 0)
        second = engine.split_sample(reseeded, 0)
        assert first.records != second.records
        assert second.records == tuple(reseeded.materialize(0))
