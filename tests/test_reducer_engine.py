"""Unit tests for reduce-task measurement and pricing."""

import numpy as np
import pytest

from pricing_oracle import exact_record, one_task_rates, reference_simulate_reduce_task
from repro.hadoop.config import JobConfiguration
from repro.hadoop.mapper_engine import measure_map_sample
from repro.hadoop.reducer_engine import (
    ReduceSampleMeasurement,
    measure_reduce_from_pairs,
    price_reduce_tasks,
)


@pytest.fixture()
def wc_measurement(engine, wordcount, small_text):
    map_measurement = measure_map_sample(wordcount, small_text.sample(0))
    return measure_reduce_from_pairs(
        wordcount,
        map_measurement.intermediate_pairs(combined=True),
        map_measurement.intermediate_sizes(combined=True),
    )


def _simulate(cluster, measurement, config, shuffle_bytes=50 << 20, shuffle_records=100_000):
    """Price one reducer (task 1, partition 0) on node 0; the record must
    match the per-task reference priced from the same draws."""
    (task,) = price_reduce_tasks(
        first_task_id=1,
        shuffle_bytes=np.array([float(shuffle_bytes)]),
        shuffle_records=np.array([float(shuffle_records)]),
        measurement=measurement,
        num_map_tasks=16,
        config=config,
        cluster=cluster,
        task_rates=one_task_rates(cluster, 0, np.random.default_rng(0)),
    ).records()
    reference = reference_simulate_reduce_task(
        task_id=1,
        partition=0,
        shuffle_bytes=float(shuffle_bytes),
        shuffle_records=float(shuffle_records),
        measurement=measurement,
        num_map_tasks=16,
        config=config,
        node=cluster.workers[0],
        rng=np.random.default_rng(0),
    )
    assert exact_record(task) == exact_record(reference)
    return task


class TestReduceMeasurement:
    def test_wordcount_one_output_per_group(self, wc_measurement):
        assert wc_measurement.output_records_per_group == pytest.approx(1.0)
        assert wc_measurement.sample_groups > 0

    def test_selectivities_below_one_for_aggregation(self, wc_measurement):
        assert wc_measurement.reduce_records_sel <= 1.0
        assert wc_measurement.reduce_size_sel <= 1.0

    def test_empty_pairs_yield_zero_measurement(self, wordcount):
        m = measure_reduce_from_pairs(wordcount, [], [])
        assert m.sample_groups == 0
        assert m.reduce_records_sel == 0.0

    def test_map_only_job_zero_measurement(self, maponly_job):
        m = measure_reduce_from_pairs(maponly_job, [("a", 1)], [6])
        assert m.sample_input_records == 0


class TestReduceSimulation:
    def test_output_follows_groups(self, cluster, wc_measurement):
        task = _simulate(cluster, wc_measurement, JobConfiguration())
        assert task.output_records == pytest.approx(task.reduce_input_groups, rel=0.01)
        assert task.reduce_input_groups <= task.reduce_input_records

    def test_shuffle_time_scales_with_bytes(self, cluster, wc_measurement):
        small = _simulate(cluster, wc_measurement, JobConfiguration(), shuffle_bytes=10 << 20)
        large = _simulate(cluster, wc_measurement, JobConfiguration(), shuffle_bytes=1 << 30)
        assert large.phase_times["SHUFFLE"] > small.phase_times["SHUFFLE"]

    def test_overflow_triggers_disk_merges(self, cluster, wc_measurement):
        # 300 MB heap * 0.7 buffer = 210 MB; shuffle 2 GB overflows.
        task = _simulate(cluster, wc_measurement, JobConfiguration(), shuffle_bytes=2 << 30)
        assert task.disk_merge_passes >= 1
        in_memory = _simulate(cluster, wc_measurement, JobConfiguration(), shuffle_bytes=20 << 20)
        assert in_memory.disk_merge_passes == 0

    def test_bigger_shuffle_buffer_less_sort_io(self, cluster, wc_measurement):
        small_buffer = _simulate(
            cluster, wc_measurement,
            JobConfiguration(shuffle_input_buffer_percent=0.1),
            shuffle_bytes=1 << 30,
        )
        big_buffer = _simulate(
            cluster, wc_measurement,
            JobConfiguration(shuffle_input_buffer_percent=0.9),
            shuffle_bytes=1 << 30,
        )
        assert big_buffer.phase_times["SORT"] < small_buffer.phase_times["SORT"]

    def test_output_compression_shrinks_write(self, cluster, wc_measurement):
        plain = _simulate(cluster, wc_measurement, JobConfiguration())
        packed = _simulate(cluster, wc_measurement, JobConfiguration(compress_output=True))
        assert packed.materialized_bytes < plain.materialized_bytes

    def test_map_compression_adds_decompress_cost_but_smaller_wire(self, cluster, wc_measurement):
        # Same wire bytes: with compression they decode to more plain data.
        compressed = _simulate(
            cluster, wc_measurement, JobConfiguration(compress_map_output=True)
        )
        plain = _simulate(cluster, wc_measurement, JobConfiguration())
        assert compressed.phase_times["SHUFFLE"] > plain.phase_times["SHUFFLE"]

    def test_phases_non_negative(self, cluster, wc_measurement):
        task = _simulate(cluster, wc_measurement, JobConfiguration())
        assert all(v >= 0 for v in task.phase_times.values())

    def test_reduce_input_buffer_cuts_final_read(self, cluster, wc_measurement):
        without = _simulate(
            cluster, wc_measurement,
            JobConfiguration(reduce_input_buffer_percent=0.0),
            shuffle_bytes=1 << 30,
        )
        with_retain = _simulate(
            cluster, wc_measurement,
            JobConfiguration(reduce_input_buffer_percent=0.8),
            shuffle_bytes=1 << 30,
        )
        assert with_retain.phase_times["SORT"] <= without.phase_times["SORT"]
