"""Re-pricing from cached measurements: partition fractions and record examples.

``partition_fractions`` reads a per-key aggregate of the measurement and
``HadoopEngine`` memoizes its result; ``observe_record_streams`` reads the
measurement's kept input records.  Each is checked against the per-pair or
re-materializing code it replaced, kept here as the oracle.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.static_features import extract_static_features
from repro.core.features import observe_record_streams
from repro.hadoop import HadoopEngine, JobConfiguration, MapReduceJob, ec2_cluster
from repro.hadoop.job import default_partitioner
from repro.hadoop.mapper_engine import MapSampleMeasurement, partition_fractions
from repro.hadoop.records import pair_size
from repro.observability import MetricsRegistry
from repro.workloads.benchmark import standard_benchmark
from repro.workloads.jobs.bigram import bigram_partitioner


def reference_partition_fractions(
    measurement: MapSampleMeasurement,
    job: MapReduceJob,
    num_partitions: int,
    combined: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair loop: one partitioner call and one size per pair."""
    byte_counts = np.zeros(num_partitions, dtype=float)
    record_counts = np.zeros(num_partitions, dtype=float)
    for key, value in measurement.intermediate_pairs(combined):
        index = job.partitioner(key, num_partitions)
        byte_counts[index] += pair_size(key, value)
        record_counts[index] += 1
    byte_total = byte_counts.sum()
    record_total = record_counts.sum()
    if byte_total <= 0 or record_total <= 0:
        return byte_counts, record_counts
    return byte_counts / byte_total, record_counts / record_total


def reference_record_streams(job, dataset, engine, split_index=0):
    """Record examples read off a re-materialized split."""
    input_pairs = dataset.materialize(split_index)[:4]
    measurement = engine.measure_split(job, dataset, split_index)
    intermediate_pairs = list(measurement.sample_map_pairs[:4])
    output_pairs = []
    if job.reducer is not None and measurement.sample_map_pairs:
        groups = {}
        for key, value in measurement.sample_map_pairs:
            groups.setdefault(key, []).append(value)
        context = job.make_context()
        for key, values in list(groups.items())[:4]:
            job.reducer(key, values, context)
        output_pairs = context.pairs[:4]
    return list(input_pairs), intermediate_pairs, output_pairs


def assert_identical(measurement, job, num_partitions, combined):
    got = partition_fractions(measurement, job, num_partitions, combined)
    want = reference_partition_fractions(measurement, job, num_partitions, combined)
    for actual, expected in zip(got, want):
        assert actual.dtype == expected.dtype == np.float64
        assert np.array_equal(actual, expected), (num_partitions, combined)


def _identity_map(key, value, ctx):
    ctx.emit(key, value)


def _sum_reduce(key, values, ctx):
    ctx.emit(key, len(list(values)))


def _constant_partitioner(key, num_partitions):
    return 0


def _measurement(map_pairs, combined_pairs) -> MapSampleMeasurement:
    return MapSampleMeasurement(
        split_index=0,
        sample_input_records=len(map_pairs),
        sample_input_bytes=sum(pair_size(k, v) for k, v in map_pairs),
        sample_output_records=len(map_pairs),
        sample_output_bytes=sum(pair_size(k, v) for k, v in map_pairs),
        sample_user_ops=0,
        sample_input_head=tuple(map_pairs[:4]),
        sample_map_pairs=tuple(map_pairs),
        sample_combined_pairs=tuple(combined_pairs),
        combine_records_sel=1.0,
        combine_size_sel=1.0,
        combine_sample_ops=0,
    )


# Keys that are equal (and hash equal) but differ in type, size and repr:
# grouping by equality would merge them and get both partition and size wrong.
_EQUAL_BUT_DIFFERENT = (1, 1.0, True, (1,), (1.0,), (True,))
# bigram_partitioner routes on key[0], so its keys must be indexable.
_TRICKY_KEYS = {
    default_partitioner: _EQUAL_BUT_DIFFERENT,
    bigram_partitioner: tuple(k for k in _EQUAL_BUT_DIFFERENT if isinstance(k, tuple)),
}

_scalars = st.one_of(
    st.text(max_size=6), st.integers(-3, 3), st.sampled_from([1, 1.0, True])
)
_tuples = st.tuples(_scalars) | st.tuples(_scalars, _scalars)
_values = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=3)),
)
_KEYS = {
    default_partitioner: st.one_of(
        _scalars, _tuples, st.sampled_from(_TRICKY_KEYS[default_partitioner])
    ),
    bigram_partitioner: st.one_of(
        st.text(min_size=1, max_size=6),
        _tuples,
        st.sampled_from(_TRICKY_KEYS[bigram_partitioner]),
    ),
}


@st.composite
def _streams(draw):
    """(partitioner, map pairs, combined pairs) for a random pair stream."""
    partitioner = draw(st.sampled_from(list(_KEYS)))
    pairs = st.lists(st.tuples(_KEYS[partitioner], _values), max_size=60)
    map_pairs = draw(pairs)
    if draw(st.booleans()):
        # Every equal-but-different key in one stream.
        tricky = [(key, draw(_values)) for key in _TRICKY_KEYS[partitioner]]
        map_pairs = draw(st.permutations(map_pairs + tricky))
    return partitioner, list(map_pairs), draw(pairs)


class TestFractionsOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        stream=_streams(),
        num_partitions=st.integers(1, 64),
        combined=st.booleans(),
    )
    def test_bit_identical_to_per_pair_loop(self, stream, num_partitions, combined):
        partitioner, map_pairs, combined_pairs = stream
        job = MapReduceJob(
            name="stream", mapper=_identity_map, reducer=_sum_reduce,
            partitioner=partitioner,
        )
        measurement = _measurement(map_pairs, combined_pairs)
        assert_identical(measurement, job, num_partitions, combined)

    def test_equal_keys_of_different_types_stay_apart(self):
        pairs = [(key, "v") for key in _EQUAL_BUT_DIFFERENT]
        measurement = _measurement(pairs, pairs)
        aggregate = measurement.key_aggregate(combined=False)
        assert len(aggregate.keys) == len(_EQUAL_BUT_DIFFERENT)
        job = MapReduceJob(name="k", mapper=_identity_map, reducer=_sum_reduce)
        for n in range(1, 65):
            assert_identical(measurement, job, n, False)

    def test_empty_stream_gives_float_zeros(self):
        job = MapReduceJob(name="e", mapper=_identity_map, reducer=_sum_reduce)
        assert_identical(_measurement([], []), job, 5, False)

    def test_out_of_range_partition_raises(self):
        job = MapReduceJob(
            name="bad", mapper=_identity_map, reducer=_sum_reduce,
            partitioner=lambda key, n: n,
        )
        with pytest.raises(IndexError):
            partition_fractions(_measurement([("a", 1)], []), job, 4, False)


@pytest.fixture(scope="module")
def table_6_1():
    """(engine, entries): one engine caches every entry's measurements."""
    return HadoopEngine(ec2_cluster()), standard_benchmark()


def _sweep(table_6_1, partition_counts):
    engine, entries = table_6_1
    for entry in entries:
        for measurement in engine.map_measurements(entry.job, entry.dataset):
            for combined in (False, True):
                for n in partition_counts:
                    assert_identical(measurement, entry.job, n, combined)


class TestTable61Sweep:
    """Every Table 6.1 entry's representative-split measurements."""

    def test_sampled_partition_counts(self, table_6_1):
        _sweep(table_6_1, (1, 2, 13, 64))

    @pytest.mark.slow
    def test_every_partition_count(self, table_6_1):
        _sweep(table_6_1, range(1, 65))


def _counter(registry, name):
    metric = registry.get(name)
    return 0 if metric is None else metric.value


class TestFractionsMemo:
    def test_recomputed_after_clear_caches(self, cluster, wordcount, small_text):
        registry = MetricsRegistry()
        engine = HadoopEngine(cluster, registry=registry)
        config = JobConfiguration(num_reduce_tasks=4)
        first = engine.run_job(wordcount, small_text, config, seed=1)
        misses = _counter(registry, "hadoop_engine_partition_cache_misses_total")
        assert misses > 0
        again = engine.run_job(wordcount, small_text, config, seed=1)
        assert (
            _counter(registry, "hadoop_engine_partition_cache_misses_total") == misses
        )
        assert _counter(registry, "hadoop_engine_partition_cache_hits_total") > 0

        engine.clear_caches()
        cleared = engine.run_job(wordcount, small_text, config, seed=1)
        assert (
            _counter(registry, "hadoop_engine_partition_cache_misses_total")
            == 2 * misses
        )
        for execution in (again, cleared):
            for a, b in zip(first.map_tasks, execution.map_tasks):
                assert np.array_equal(a.partition_bytes, b.partition_bytes)

    def test_partitioner_is_part_of_the_key(self, cluster, wordcount, small_text):
        skewed = MapReduceJob(
            name=wordcount.name, mapper=wordcount.mapper,
            reducer=wordcount.reducer, combiner=wordcount.combiner,
            partitioner=_constant_partitioner,
        )
        config = JobConfiguration(num_reduce_tasks=4)
        shared = HadoopEngine(cluster)
        assert shared.measure_split(wordcount, small_text, 0) is shared.measure_split(
            skewed, small_text, 0
        )
        for job in (wordcount, skewed, wordcount):
            on_shared = shared.run_job(job, small_text, config, seed=3)
            alone = HadoopEngine(cluster).run_job(job, small_text, config, seed=3)
            for a, b in zip(on_shared.map_tasks, alone.map_tasks):
                assert np.array_equal(a.partition_bytes, b.partition_bytes)
                assert np.array_equal(a.partition_records, b.partition_records)
        skewed_run = shared.run_job(skewed, small_text, config, seed=3)
        assert all(t.partition_bytes[1:].sum() == 0 for t in skewed_run.map_tasks)

    def test_concurrent_runs_never_see_a_partial_aggregate(
        self, cluster, wordcount, small_text
    ):
        # Every thread runs every reducer count, each starting at a
        # different one, so threads race to build the same aggregate and
        # the same memo entries.
        rounds = 8
        configs = [
            JobConfiguration(num_reduce_tasks=n, use_combiner=combine)
            for n, combine in ((1, False), (2, False), (5, True), (9, False))
        ]
        expected = {
            config.num_reduce_tasks: HadoopEngine(cluster).run_job(
                wordcount, small_text, config, seed=2
            )
            for config in configs
        }
        engine = HadoopEngine(cluster)
        errors: list[BaseException] = []
        results = []
        barrier = threading.Barrier(len(configs), timeout=60)

        def run(offset):
            try:
                barrier.wait()
                for config in configs[offset:] + configs[:offset]:
                    results.append(
                        engine.run_job(wordcount, small_text, config, seed=2)
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for __ in range(rounds):
                engine.clear_caches()
                # Shared measurements whose aggregates are not yet built.
                engine.map_measurements(wordcount, small_text)
                threads = [
                    threading.Thread(target=run, args=(offset,))
                    for offset in range(len(configs))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        assert len(results) == rounds * len(configs) ** 2
        for execution in results:
            want = expected[execution.num_reduce_tasks]
            assert execution.runtime_seconds == want.runtime_seconds
            for got_task, want_task in zip(execution.map_tasks, want.map_tasks):
                assert np.array_equal(got_task.partition_bytes, want_task.partition_bytes)


class TestRecordStreams:
    @pytest.mark.parametrize("job_fixture", ["wordcount", "maponly_job"])
    def test_match_the_rematerialized_split(
        self, request, cluster, small_text, job_fixture
    ):
        job = request.getfixturevalue(job_fixture)
        engine = HadoopEngine(cluster)
        want = reference_record_streams(job, small_text, engine)
        assert observe_record_streams(job, small_text, engine) == want
        # Second read comes from the measurement's memo and is unchanged.
        assert observe_record_streams(job, small_text, engine) == want

    def test_table_6_1_static_features_unchanged(self, table_6_1):
        # Output *values* may differ: the bigram reducer keeps its running
        # marginal in module state, so re-running it on every read (as the
        # reference does) gives history-dependent values.  Static features
        # read only the types, which must match exactly.
        engine, entries = table_6_1
        for entry in entries:
            want = reference_record_streams(entry.job, entry.dataset, engine)
            got = observe_record_streams(entry.job, entry.dataset, engine)
            assert got[:2] == want[:2], entry.key
            assert extract_static_features(entry.job, *got) == extract_static_features(
                entry.job, *want
            ), entry.key
