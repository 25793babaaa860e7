"""Edge-case tests across subsystems (boundary and degenerate inputs)."""

import numpy as np
import pytest

from repro.hadoop import (
    Dataset,
    FunctionRecordSource,
    JobConfiguration,
    MapReduceJob,
    ec2_cluster,
)

MB = 1 << 20


class TestDegenerateJobs:
    def test_empty_output_mapper(self, engine, small_text):
        """A mapper that filters everything still produces a runnable job."""
        def drop_all(key, value, ctx):
            ctx.report_ops(1)

        def count(key, values, ctx):
            ctx.emit(key, sum(1 for __ in values))

        job = MapReduceJob(name="drop-all", mapper=drop_all, reducer=count)
        execution = engine.run_job(job, small_text, JobConfiguration(num_reduce_tasks=2))
        assert execution.runtime_seconds > 0
        assert all(t.map_output_records == 0 for t in execution.map_tasks)
        assert all(t.reduce_input_records == 0 for t in execution.reduce_tasks)

    def test_explosive_mapper(self, engine, small_text):
        """A 50x-amplifying mapper keeps volumes consistent end to end."""
        def explode(key, line, ctx):
            for i in range(50):
                ctx.emit((key, i), line)

        job = MapReduceJob(name="explode", mapper=explode,
                           reducer=lambda k, vs, c: c.emit(k, len(list(vs))))
        execution = engine.run_job(job, small_text, JobConfiguration(num_reduce_tasks=4))
        for task in execution.map_tasks:
            assert task.map_output_records == pytest.approx(
                task.input_records * 50, rel=0.02
            )

    def test_single_split_dataset(self, engine, wordcount):
        tiny = Dataset(
            "tiny",
            nominal_bytes=1 * MB,
            source=FunctionRecordSource(
                lambda i, rng: [(0, "a b c"), (1, "b c d")]
            ),
        )
        execution = engine.run_job(wordcount, tiny, JobConfiguration())
        assert execution.num_map_tasks == 1

    def test_more_reducers_than_keys(self, engine):
        """R far above the distinct-key count leaves most reducers empty
        but the job still completes (as on real Hadoop)."""
        two_keys = Dataset(
            "two-keys",
            nominal_bytes=64 * MB,
            source=FunctionRecordSource(
                lambda i, rng: [(j, "x" if j % 2 else "y") for j in range(40)]
            ),
        )

        def keyed(key, value, ctx):
            ctx.emit(value, 1)

        def total(key, values, ctx):
            ctx.emit(key, sum(values))

        job = MapReduceJob(name="two-key-job", mapper=keyed, reducer=total)
        execution = engine.run_job(job, two_keys, JobConfiguration(num_reduce_tasks=16))
        non_empty = [t for t in execution.reduce_tasks if t.shuffle_records > 0]
        assert len(non_empty) <= 2
        assert execution.num_reduce_tasks == 16


class TestConfigurationBoundaries:
    def test_minimum_everything(self, engine, wordcount, small_text):
        config = JobConfiguration(
            io_sort_mb=16,
            io_sort_record_percent=0.01,
            io_sort_spill_percent=0.2,
            io_sort_factor=2,
            num_reduce_tasks=1,
            shuffle_input_buffer_percent=0.1,
        )
        execution = engine.run_job(wordcount, small_text, config)
        assert execution.runtime_seconds > 0
        assert all(t.num_spills >= 1 for t in execution.map_tasks)

    def test_maximum_everything(self, engine, wordcount, small_text):
        config = JobConfiguration(
            io_sort_mb=1024,
            io_sort_record_percent=0.5,
            io_sort_spill_percent=0.95,
            io_sort_factor=200,
            num_reduce_tasks=512,
            shuffle_input_buffer_percent=0.9,
            reduce_input_buffer_percent=0.8,
        )
        execution = engine.run_job(wordcount, small_text, config)
        assert execution.runtime_seconds > 0
        assert execution.num_reduce_tasks == 512

    def test_heap_clamps_giant_sort_buffer(self, engine, wordcount, small_text):
        """io.sort.mb above the task heap cannot buy extra capacity."""
        at_heap = engine.run_job(
            wordcount, small_text, JobConfiguration(io_sort_mb=210)
        )
        above_heap = engine.run_job(
            wordcount, small_text, JobConfiguration(io_sort_mb=1024)
        )
        spills_at = sum(t.num_spills for t in at_heap.map_tasks)
        spills_above = sum(t.num_spills for t in above_heap.map_tasks)
        assert spills_above == spills_at


class TestHBaseBoundaries:
    def test_scan_empty_table(self):
        from repro.hbase import HBaseCluster, PrefixFilter

        table = HBaseCluster().create_table("empty", ("f",))
        assert list(table.scan()) == []
        assert list(table.scan(scan_filter=PrefixFilter("x"))) == []

    def test_locate_before_first_key(self):
        from repro.hbase import HBaseCluster

        cluster = HBaseCluster()
        table = cluster.create_table("t", ("f",))
        table.put("m", "f", "c", 1)
        # Keys below every stored key still route to the first region.
        assert table.get("a") is None
        table.put("a", "f", "c", 2)
        assert table.get("a") == {"f": {"c": 2}}
