"""Tests for the dataflow (mini Pig Latin) layer."""

import pytest

from repro.dataflow import (
    DataflowScript,
    DistinctOp,
    FilterOp,
    GroupOp,
    OrderOp,
    ProjectOp,
    compile_script,
    dataflow_map,
    dataflow_reduce,
)
from repro.hadoop.context import TaskContext

# A page_views-style record: (user, action, timespent, term, revenue, links)
ROW = ("u01", 2, 120, "t1", 9.5, ("p1", "p2", "p3"))


def run_map(job, records):
    ctx = job.make_context()
    for key, value in records:
        job.mapper(key, value, ctx)
    return ctx


def run_reduce(job, pairs):
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    ctx = job.make_context()
    for key, values in groups.items():
        job.reducer(key, values, ctx)
    return ctx


class TestOperators:
    def test_filter_validates_comparator(self):
        with pytest.raises(ValueError):
            FilterOp(field=0, op="~=", literal=1)

    def test_project_flatten_bounds(self):
        with pytest.raises(ValueError):
            ProjectOp(fields=(0, 1), flatten=5)

    def test_group_needs_keys_and_aggs(self):
        with pytest.raises(ValueError):
            GroupOp(keys=(), aggregations=())

    def test_descriptors_are_plain_tuples(self):
        ops = [
            FilterOp(1, "==", 2),
            ProjectOp((0, 5), flatten=1),
            DistinctOp((0,)),
            OrderOp(3, descending=True),
        ]
        for op in ops:
            descriptor = op.descriptor()
            assert isinstance(descriptor, tuple)
            assert repr(descriptor) == repr(eval(repr(descriptor)))


class TestScript:
    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            DataflowScript("empty").stages()

    def test_stage_partitioning(self):
        script = (
            DataflowScript("s")
            .filter(1, "==", 2)
            .project(0, 4)
            .group_by(0, aggregations=[("sum", 1)])
            .order_by(1)
        )
        stages = script.stages()
        assert len(stages) == 2
        pipeline, blocking = stages[0]
        assert len(pipeline) == 2
        assert isinstance(blocking, GroupOp)
        assert isinstance(stages[1][1], OrderOp)

    def test_trailing_pipeline_is_maponly_stage(self):
        script = DataflowScript("s").filter(2, ">", 10)
        stages = script.stages()
        assert len(stages) == 1
        assert stages[0][1] is None


class TestCompiler:
    def test_one_job_per_stage(self):
        script = (
            DataflowScript("two-stage")
            .group_by(0, aggregations=[("count", 0)])
            .order_by(1)
        )
        jobs = compile_script(script)
        assert len(jobs) == 2
        assert jobs[0].name.endswith("-s0")
        assert jobs[1].name.endswith("-s1")

    def test_generic_operators_shared(self):
        a = compile_script(DataflowScript("a").filter(1, "==", 1).distinct(0))[0]
        b = compile_script(
            DataflowScript("b").project(0, 4).group_by(0, aggregations=[("sum", 1)])
        )[0]
        assert a.mapper is b.mapper
        assert a.reducer is b.reducer
        assert a.input_format == b.input_format == "PigStorage"

    def test_maponly_stage_has_no_reducer(self):
        job = compile_script(DataflowScript("m").filter(1, "==", 1))[0]
        assert not job.has_reducer


class TestRuntime:
    def test_filter_and_project(self):
        job = compile_script(
            DataflowScript("fp").filter(1, "==", 2).project(0, 4).distinct(0, 1)
        )[0]
        ctx = run_map(job, [(0, ROW), (1, ("u02", 1, 5, "t2", 0.5, ()))])
        assert ctx.pairs == [(("u01", 9.5), None)]

    def test_flatten(self):
        job = compile_script(
            DataflowScript("fl").project(0, 5, flatten=1).distinct(1)
        )[0]
        ctx = run_map(job, [(0, ROW)])
        assert [key for key, __ in ctx.pairs] == [("p1",), ("p2",), ("p3",)]

    def test_group_aggregations(self):
        job = compile_script(
            DataflowScript("agg").project(0, 4).group_by(
                0, aggregations=[("sum", 1), ("count", 1), ("avg", 1),
                                 ("min", 1), ("max", 1)]
            )
        )[0]
        mapped = run_map(job, [(0, ROW), (1, ("u01", 1, 10, "t2", 0.5, ()))])
        reduced = run_reduce(job, mapped.pairs)
        key, (user, total, count, avg, lo, hi) = reduced.pairs[0]
        assert key == ("u01",)
        assert user == "u01"
        assert total == pytest.approx(10.0)
        assert count == 2
        assert avg == pytest.approx(5.0)
        assert lo == 0.5
        assert hi == 9.5

    def test_collect_aggregation(self):
        job = compile_script(
            DataflowScript("col").project(0, 3).group_by(
                0, aggregations=[("collect", 1)]
            )
        )[0]
        mapped = run_map(job, [(0, ROW), (1, ("u01", 1, 10, "t2", 0.5, ()))])
        reduced = run_reduce(job, mapped.pairs)
        __, (__, collected) = reduced.pairs[0]
        assert set(collected) == {"t1", "t2"}

    def test_distinct_dedupes(self):
        job = compile_script(DataflowScript("d").distinct(0))[0]
        mapped = run_map(job, [(0, ROW), (1, ROW)])
        reduced = run_reduce(job, mapped.pairs)
        assert reduced.pairs == [(("u01",), ("u01",))]

    def test_order_emits_keyed_rows(self):
        job = compile_script(DataflowScript("o").order_by(2))[0]
        mapped = run_map(job, [(0, ROW)])
        assert mapped.pairs[0][0] == 120

    def test_contains_comparator(self):
        job = compile_script(
            DataflowScript("grep").filter(3, "contains", "t").distinct(3)
        )[0]
        ctx = run_map(job, [(0, ROW)])
        assert ctx.pairs

    def test_bad_shuffle_descriptor_rejected(self):
        ctx = TaskContext(job_params={"pipeline": (), "shuffle": ("weird",)})
        with pytest.raises(ValueError):
            dataflow_map(0, ROW, ctx)


class TestEndToEnd:
    def test_compiled_chain_runs_through_pstorm(self, engine):
        from repro.core import PStorM
        from repro.workloads import pigmix_dataset

        pstorm = PStorM(engine)
        script = (
            DataflowScript("e2e")
            .filter(1, "==", 2)
            .project(0, 4)
            .group_by(0, aggregations=[("sum", 1)])
        )
        jobs = compile_script(script)
        assert len(jobs) == 1
        first = pstorm.submit(jobs[0], pigmix_dataset(1))
        assert not first.matched
        assert first.runtime_seconds > 0
        assert pstorm.submit(jobs[0], pigmix_dataset(1)).matched

    def test_generated_jobs_share_static_features(self, engine):
        from repro.analysis.static_features import extract_static_features
        from repro.core.similarity import jaccard_index

        a = compile_script(
            DataflowScript("x").filter(1, "==", 2).group_by(0, aggregations=[("count", 0)])
        )[0]
        b = compile_script(
            DataflowScript("y").project(3, 4).group_by(0, aggregations=[("sum", 1)])
        )[0]
        fa = extract_static_features(a)
        fb = extract_static_features(b)
        # Same generic operators: identical class names, formatters, CFGs.
        assert fa.categorical["MAPPER"] == fb.categorical["MAPPER"]
        assert fa.map_cfg.signature() == fb.map_cfg.signature()
