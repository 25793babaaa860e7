"""Unit tests for map-task measurement and pricing."""

import numpy as np
import pytest

from pricing_oracle import exact_record, one_task_rates, reference_simulate_map_task
from repro.hadoop.config import JobConfiguration
from repro.hadoop.mapper_engine import (
    measure_map_sample,
    partition_fractions,
    price_map_tasks,
)


def _measure(engine, job, dataset, split=0):
    return measure_map_sample(job, dataset.sample(split))


def _simulate(cluster, job, dataset, measurement, config, profiled=False):
    """Price task 0 on node 0 alone; the record must match the per-task
    reference priced from the same draws."""
    node = cluster.workers[0]
    combined = config.use_combiner and job.has_combiner
    fractions = partition_fractions(
        measurement, job, max(1, config.num_reduce_tasks), combined
    )
    (task,) = price_map_tasks(
        task_ids=np.array([0]),
        split_bytes=np.array([dataset.split(0).nominal_bytes]),
        measurements=[measurement],
        fractions={0: fractions},
        job=job,
        config=config,
        cluster=cluster,
        task_rates=one_task_rates(cluster, 0, np.random.default_rng(0)),
        profiled=profiled,
        profiling_overhead=0.10,
    ).records()
    reference = reference_simulate_map_task(
        task_id=0,
        split=dataset.split(0),
        measurement=measurement,
        job=job,
        config=config,
        node=node,
        rng=np.random.default_rng(0),
        fractions=fractions,
        profiled=profiled,
        profiling_overhead=0.10,
    )
    assert exact_record(task) == exact_record(reference)
    return task


class TestMeasurement:
    def test_wordcount_selectivities(self, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        assert m.map_records_sel > 1.0  # one pair per word, many words/line
        assert m.map_size_sel > 1.0
        assert m.sample_input_records == 120

    def test_combiner_reduces_records(self, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        assert m.combine_records_sel < 1.0
        assert m.combine_size_sel < 1.0
        assert len(m.sample_combined_pairs) < len(m.sample_map_pairs)

    def test_no_combiner_unity_selectivity(self, engine, maponly_job, small_text):
        m = _measure(engine, maponly_job, small_text)
        assert m.combine_records_sel == 1.0
        assert m.sample_combined_pairs == m.sample_map_pairs

    def test_measurement_deterministic(self, engine, wordcount, small_text):
        a = _measure(engine, wordcount, small_text)
        b = _measure(engine, wordcount, small_text)
        assert a.sample_output_records == b.sample_output_records
        assert a.sample_output_bytes == b.sample_output_bytes


class TestPartitionFractions:
    def test_fractions_sum_to_one(self, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        byte_frac, rec_frac = partition_fractions(m, wordcount, 8, combined=True)
        assert byte_frac.sum() == pytest.approx(1.0)
        assert rec_frac.sum() == pytest.approx(1.0)

    def test_single_partition_gets_everything(self, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        byte_frac, __ = partition_fractions(m, wordcount, 1, combined=False)
        assert byte_frac[0] == pytest.approx(1.0)


class TestSimulation:
    def test_volumes_scale_to_split(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        task = _simulate(cluster, wordcount, small_text, m, JobConfiguration())
        assert task.input_bytes == small_text.split(0).nominal_bytes
        ratio = task.map_output_bytes / task.input_bytes
        assert ratio == pytest.approx(m.map_size_sel, rel=0.01)

    def test_smaller_buffer_more_spills(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        small = _simulate(cluster, wordcount, small_text, m, JobConfiguration(io_sort_mb=16))
        large = _simulate(cluster, wordcount, small_text, m, JobConfiguration(io_sort_mb=512))
        assert small.num_spills > large.num_spills

    def test_compression_shrinks_materialized(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        plain = _simulate(cluster, wordcount, small_text, m, JobConfiguration())
        packed = _simulate(
            cluster, wordcount, small_text, m, JobConfiguration(compress_map_output=True)
        )
        assert packed.materialized_bytes < plain.materialized_bytes
        assert packed.spill_bytes == plain.spill_bytes

    def test_combiner_toggle(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        on = _simulate(cluster, wordcount, small_text, m, JobConfiguration(use_combiner=True))
        off = _simulate(cluster, wordcount, small_text, m, JobConfiguration(use_combiner=False))
        assert on.spill_records < off.spill_records
        assert off.combine_input_records == 0

    def test_profiling_overhead_inflates_phases(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        plain = _simulate(cluster, wordcount, small_text, m, JobConfiguration())
        profiled = _simulate(
            cluster, wordcount, small_text, m, JobConfiguration(), profiled=True
        )
        assert profiled.phase_times["MAP"] > plain.phase_times["MAP"]
        assert profiled.phase_times["SETUP"] == plain.phase_times["SETUP"]

    def test_all_phases_non_negative(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        task = _simulate(cluster, wordcount, small_text, m, JobConfiguration())
        assert all(v >= 0 for v in task.phase_times.values())
        assert task.duration > 0

    def test_partition_bytes_sum_to_materialized(self, cluster, engine, wordcount, small_text):
        m = _measure(engine, wordcount, small_text)
        config = JobConfiguration(num_reduce_tasks=4)
        task = _simulate(cluster, wordcount, small_text, m, config)
        assert task.partition_bytes.sum() == pytest.approx(task.materialized_bytes, rel=0.01)

    def test_record_percent_affects_spills_for_small_records(
        self, cluster, engine, wordcount, small_text
    ):
        # Word count emits tiny records, so meta-data space binds: raising
        # io.sort.record.percent cuts spill count (the §2.2 interaction).
        m = _measure(engine, wordcount, small_text)
        low = _simulate(
            cluster, wordcount, small_text, m,
            JobConfiguration(io_sort_record_percent=0.01),
        )
        high = _simulate(
            cluster, wordcount, small_text, m,
            JobConfiguration(io_sort_record_percent=0.3),
        )
        assert high.num_spills < low.num_spills
