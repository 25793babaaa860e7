"""Columnar run pricing is bit-identical to the per-task engine it replaced.

``HadoopEngine.run_job`` prices a run's tasks as columns and builds task
records only when they are read; ``StarfishProfiler`` aggregates the
columns.  Every observable is checked against the per-task reference in
``pricing_oracle``: runtime, every task record field, job counters, phase
totals, side profiles, the metrics registry and the simulated-clock
spans.  Floats compare by ``float.hex``, arrays by dtype and bytes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _text_lines, wc_map, wc_reduce
from pricing_oracle import (
    exact,
    exact_record,
    reference_map_side_profile,
    reference_phase_totals,
    reference_reduce_side_profile,
    reference_run_job,
)
from repro.hadoop import (
    CONFIGURATION_SPACE,
    ClusterSpec,
    Dataset,
    FunctionRecordSource,
    HadoopEngine,
    JobConfiguration,
    MapReduceJob,
    WorkerNode,
    ec2_cluster,
)
from repro.hadoop.tasks import MAP_PHASES, REDUCE_PHASES
from repro.observability import MetricsRegistry, Tracer
from repro.observability.export import registry_to_dict
from repro.starfish.profiler import _map_side_profile, _reduce_side_profile
from repro.workloads.benchmark import standard_benchmark

MB = 1 << 20


def _spans(tracer: Tracer) -> list:
    return [
        (s.span_id, s.parent_id, s.name, exact(s.start), exact(s.end),
         repr(s.attrs))
        for s in tracer.spans(clock="simulated")
    ]


def assert_same_execution(got, want, config) -> None:
    assert exact(got.runtime_seconds) == exact(want.runtime_seconds)
    assert exact(got.input_bytes) == exact(want.input_bytes)
    assert got.sampled == want.sampled
    assert exact(got.counters) == exact(want.counters)
    assert got.num_map_tasks == len(want.map_tasks)
    assert got.num_reduce_tasks == len(want.reduce_tasks)
    for actual, expected in zip(got.map_tasks, want.map_tasks):
        assert exact_record(actual) == exact_record(expected)
    for actual, expected in zip(got.reduce_tasks, want.reduce_tasks):
        assert exact_record(actual) == exact_record(expected)
    assert exact(got.map_table.durations) == exact(
        [t.duration for t in want.map_tasks]
    )
    assert exact(got.reduce_table.durations) == exact(
        [t.duration for t in want.reduce_tasks]
    )
    assert exact(got.map_phase_totals()) == exact(
        reference_phase_totals(want.map_tasks, MAP_PHASES)
    )
    assert exact(got.reduce_phase_totals()) == exact(
        reference_phase_totals(want.reduce_tasks, REDUCE_PHASES)
    )
    assert repr(_map_side_profile(got, config)) == repr(
        reference_map_side_profile(want, config)
    )
    assert repr(_reduce_side_profile(got, config)) == repr(
        reference_reduce_side_profile(want, config)
    )


def _heterogeneous_cluster() -> ClusterSpec:
    """Nodes whose ids, heaps, noise and slots all differ; the ids are
    not the nodes' positions."""
    base = ec2_cluster().workers[0].base_rates
    shapes = (  # (node id, heap MB, utilization sigma, rate skew, map slots)
        (10, 300, 0.06, 1.0, 2),
        (11, 128, 0.25, 1.3, 1),
        (12, 300, 0.0, 0.8, 2),
        (20, 1024, 0.11, 1.1, 3),
    )
    return ClusterSpec(
        workers=tuple(
            WorkerNode(
                node_id=node_id,
                map_slots=slots,
                reduce_slots=1,
                task_heap_bytes=heap * MB,
                base_rates=base.scaled(skew),
                utilization_sigma=sigma,
            )
            for node_id, heap, sigma, skew, slots in shapes
        ),
        name="heterogeneous",
    )


CLUSTERS = (ec2_cluster(num_workers=5), _heterogeneous_cluster())
#: 600 MB: ten splits, the last one short.
DATASET = Dataset(
    "odd-text", nominal_bytes=600 * MB, source=FunctionRecordSource(_text_lines),
    seed=11,
)


def _drop_everything(key, value, ctx):
    """A mapper that emits nothing: no task spills, no reducer input."""


JOBS = (
    MapReduceJob(name="wc", mapper=wc_map, reducer=wc_reduce, combiner=wc_reduce),
    MapReduceJob(name="wc-nocombine", mapper=wc_map, reducer=wc_reduce),
    MapReduceJob(name="wc-maponly", mapper=wc_map),
    MapReduceJob(name="drop-all", mapper=_drop_everything, reducer=wc_reduce),
)


def _parameter(spec):
    if spec.kind == "bool":
        return st.booleans()
    if spec.kind == "int":
        return st.integers(int(spec.low), int(spec.high))
    return st.floats(spec.low, spec.high)


_configs = st.fixed_dictionaries(
    {spec.attribute: _parameter(spec) for spec in CONFIGURATION_SPACE}
).map(lambda attrs: JobConfiguration().with_params(**attrs))


def _pair(cluster: ClusterSpec):
    """Two fresh engines, each with its own registry and tracer."""
    return [
        HadoopEngine(
            cluster,
            registry=MetricsRegistry(),
            tracer=Tracer(capacity=100_000),
        )
        for __ in range(2)
    ]


class TestAgainstPerTaskEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        cluster=st.sampled_from(CLUSTERS),
        job=st.sampled_from(JOBS),
        config=_configs,
        map_task_ids=st.none()
        | st.lists(st.integers(0, DATASET.num_splits - 1), min_size=1, max_size=4),
        profile=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_observable_bit_identical(
        self, cluster, job, config, map_task_ids, profile, seed
    ):
        engine, reference = _pair(cluster)
        kwargs = dict(map_task_ids=map_task_ids, profile=profile, seed=seed)
        got = engine.run_job(job, DATASET, config, **kwargs)
        want = reference_run_job(reference, job, DATASET, config, **kwargs)
        assert_same_execution(got, want, config)
        assert repr(registry_to_dict(engine.registry)) == repr(
            registry_to_dict(reference.registry)
        )
        assert _spans(engine.tracer) == _spans(reference.tracer)

    def test_records_and_spans_carry_worker_node_ids(self):
        cluster = CLUSTERS[1]
        engine, reference = _pair(cluster)
        config = JobConfiguration(num_reduce_tasks=6)
        got = engine.run_job(JOBS[0], DATASET, config, seed=5)
        want = reference_run_job(reference, JOBS[0], DATASET, config, seed=5)
        assert_same_execution(got, want, config)
        assert _spans(engine.tracer) == _spans(reference.tracer)
        node_ids = {node.node_id for node in cluster.workers}
        assert {task.node_id for task in got.map_tasks} <= node_ids
        assert {task.node_id for task in got.reduce_tasks} <= node_ids
        assert {
            span.attrs["node_id"] for span in engine.tracer.spans("hadoop.map_task")
        } <= node_ids

    def test_task_records_are_built_once(self, cluster, wordcount, small_text):
        execution = HadoopEngine(cluster).run_job(wordcount, small_text)
        assert execution.map_tasks is execution.map_tasks
        assert execution.reduce_tasks is execution.reduce_tasks

    def test_negative_base_rate_raises_the_phase_error(self, wordcount, small_text):
        base = ec2_cluster().workers[0].base_rates
        broken = replace(base, read_hdfs_ns_per_byte=-16.0)
        cluster = ClusterSpec(
            workers=(
                WorkerNode(0, 2, 2, 300 * MB, broken, utilization_sigma=0.06),
            )
        )
        with pytest.raises(ValueError, match=r"negative phase times: \['READ'\]"):
            HadoopEngine(cluster).run_job(wordcount, small_text)


@pytest.fixture(scope="module")
def table_6_1():
    """(engine, entries): one engine caches every entry's measurements."""
    return HadoopEngine(ec2_cluster()), standard_benchmark()


class TestTable61Sweep:
    """Every Table 6.1 entry, full and 1-task profiled, two configurations."""

    CONFIGS = (
        JobConfiguration(),
        JobConfiguration(
            num_reduce_tasks=12, compress_map_output=True, io_sort_mb=40,
            io_sort_record_percent=0.2, compress_output=True,
        ),
    )

    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_matches_per_task_engine(self, table_6_1, config_index):
        engine, entries = table_6_1
        config = self.CONFIGS[config_index]
        for seed, entry in enumerate(entries):
            for kwargs in (
                dict(seed=seed),
                dict(
                    map_task_ids=[seed % entry.dataset.num_splits],
                    profile=True,
                    seed=seed,
                ),
            ):
                got = engine.run_job(entry.job, entry.dataset, config, **kwargs)
                want = reference_run_job(
                    engine, entry.job, entry.dataset, config, **kwargs
                )
                assert_same_execution(got, want, config)
