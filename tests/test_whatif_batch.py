"""Property tests: the batched What-If path is bit-identical to scalar.

The batched engine mirrors the scalar operation tree exactly (same
association order, same truncation points, scalar libm for the
transcendentals), so every comparison here is exact ``==`` — no
tolerances anywhere.  Random profiles/configs come from hypothesis;
the CBO equivalence test additionally walks both search paths end to
end and demands byte-identical recommendations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbo_oracle import optimize_sequential
from repro.hadoop.cluster import ec2_cluster
from repro.hadoop.config import CONFIGURATION_SPACE, JobConfiguration
from repro.starfish.cbo import CostBasedOptimizer
from repro.starfish.profile import JobProfile, SideProfile
from repro.starfish.whatif import WhatIfEngine

CLUSTER = ec2_cluster()


def _finite(low: float, high: float):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def map_profiles(draw) -> SideProfile:
    return SideProfile(
        side="map",
        data_flow={
            "MAP_SIZE_SEL": draw(_finite(0.05, 20.0)),
            "MAP_PAIRS_SEL": draw(_finite(0.1, 20.0)),
            "COMBINE_SIZE_SEL": draw(_finite(0.1, 1.0)),
            "COMBINE_PAIRS_SEL": draw(_finite(0.05, 1.0)),
        },
        cost_factors={
            "READ_HDFS_IO_COST": draw(_finite(1.0, 200.0)),
            "READ_LOCAL_IO_COST": draw(_finite(1.0, 100.0)),
            "WRITE_LOCAL_IO_COST": draw(_finite(1.0, 100.0)),
            "MAP_CPU_COST": draw(_finite(10.0, 5000.0)),
            "COMBINE_CPU_COST": draw(_finite(10.0, 2000.0)),
        },
        statistics={
            "INPUT_RECORD_BYTES": draw(_finite(1.0, 2000.0)),
            # 0.0 exercises the avg-record fallback path in the model.
            "INTERMEDIATE_RECORD_BYTES": draw(
                st.one_of(st.just(0.0), _finite(1.0, 500.0))
            ),
            "FRAMEWORK_CPU_COST": draw(_finite(50.0, 2000.0)),
            "NETWORK_COST": draw(_finite(1.0, 100.0)),
            "COMPRESS_CPU_COST": draw(_finite(0.5, 20.0)),
            "DECOMPRESS_CPU_COST": draw(_finite(0.5, 20.0)),
            "HAS_COMBINER": float(draw(st.booleans())),
        },
        phase_times={},
        num_tasks=draw(st.integers(1, 64)),
    )


@st.composite
def reduce_profiles(draw) -> SideProfile:
    return SideProfile(
        side="reduce",
        data_flow={
            "RED_SIZE_SEL": draw(_finite(0.05, 5.0)),
            "RED_PAIRS_SEL": draw(_finite(0.05, 5.0)),
        },
        cost_factors={
            "READ_LOCAL_IO_COST": draw(_finite(1.0, 100.0)),
            "WRITE_LOCAL_IO_COST": draw(_finite(1.0, 100.0)),
            "WRITE_HDFS_IO_COST": draw(_finite(1.0, 200.0)),
            "REDUCE_CPU_COST": draw(_finite(10.0, 5000.0)),
        },
        statistics={
            "RECORDS_PER_GROUP": draw(_finite(1.0, 1000.0)),
            "OUT_RECORDS_PER_GROUP": draw(_finite(0.0, 10.0)),
            "OUTPUT_RECORD_BYTES": draw(_finite(0.0, 2000.0)),
            "REDUCE_SKEW": draw(_finite(1.0, 4.0)),
            "FRAMEWORK_CPU_COST": draw(_finite(50.0, 2000.0)),
            "NETWORK_COST": draw(_finite(1.0, 100.0)),
            "COMPRESS_CPU_COST": draw(_finite(0.5, 20.0)),
            "DECOMPRESS_CPU_COST": draw(_finite(0.5, 20.0)),
        },
        phase_times={},
        num_tasks=draw(st.integers(1, 64)),
    )


@st.composite
def job_profiles(draw) -> JobProfile:
    return JobProfile(
        job_name="prop",
        dataset_name="prop-data",
        input_bytes=draw(st.integers(1 << 20, 4 << 30)),
        split_bytes=draw(st.integers(1 << 20, 256 << 20)),
        num_map_tasks=draw(st.integers(1, 512)),
        num_reduce_tasks=draw(st.integers(0, 64)),
        map_profile=draw(map_profiles()),
        reduce_profile=draw(st.one_of(st.none(), reduce_profiles())),
    )


@st.composite
def configurations(draw) -> JobConfiguration:
    attrs = {}
    for spec in CONFIGURATION_SPACE:
        if spec.kind == "bool":
            attrs[spec.attribute] = draw(st.booleans())
        elif spec.kind == "int":
            attrs[spec.attribute] = draw(st.integers(int(spec.low), int(spec.high)))
        else:
            attrs[spec.attribute] = draw(_finite(float(spec.low), float(spec.high)))
    return JobConfiguration(**attrs)


def _as_matrix(configs: list[JobConfiguration]) -> np.ndarray:
    return np.array(
        [
            [float(getattr(config, spec.attribute)) for spec in CONFIGURATION_SPACE]
            for config in configs
        ]
    )


data_sizes = st.one_of(st.none(), st.integers(1_000, 10**11))


class TestBatchBitIdentity:
    @settings(max_examples=120, deadline=None)
    @given(
        profile=job_profiles(),
        configs=st.lists(configurations(), min_size=1, max_size=6),
        data_bytes=data_sizes,
    )
    def test_predict_batch_matches_scalar(self, profile, configs, data_bytes):
        """Every row of ``predict_matrix`` equals ``predict`` on its
        configuration, field by field."""
        engine = WhatIfEngine(CLUSTER)
        batch = engine.predict_matrix(profile, _as_matrix(configs), data_bytes)
        assert len(batch) == len(configs)
        for index, config in enumerate(configs):
            scalar = engine.predict(profile, config, data_bytes)
            assert batch.runtime_seconds[index] == scalar.runtime_seconds
            assert batch.map_task_seconds[index] == scalar.map_task_seconds
            assert batch.reduce_task_seconds[index] == scalar.reduce_task_seconds
            assert batch.num_map_tasks == scalar.num_map_tasks
            assert batch.num_reduce_tasks[index] == scalar.num_reduce_tasks
            assert {
                phase: float(values[index])
                for phase, values in batch.map_phases.items()
            } == scalar.map_phases
            reduce_phases = (
                {
                    phase: float(values[index])
                    for phase, values in batch.reduce_phases.items()
                }
                if scalar.num_reduce_tasks
                else {}
            )
            assert reduce_phases == scalar.reduce_phases


class TestCboEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(profile=job_profiles(), seed=st.integers(0, 2**32 - 1))
    def test_batched_search_matches_sequential(self, profile, seed):
        cbo = CostBasedOptimizer(
            WhatIfEngine(CLUSTER),
            num_samples=20,
            refine_rounds=2,
            elite=3,
            perturbations_per_elite=4,
            seed=seed,
        )
        batched = cbo.optimize(profile)
        sequential = optimize_sequential(cbo, profile)
        assert batched.best_config == sequential.best_config
        assert batched.predicted_runtime == sequential.predicted_runtime
        assert batched.evaluations == sequential.evaluations
        assert (
            batched.default_predicted_runtime
            == sequential.default_predicted_runtime
        )

    @settings(max_examples=10, deadline=None)
    @given(profile=job_profiles(), seed=st.integers(0, 2**16))
    def test_reducer_cap_respected_both_paths(self, profile, seed):
        cbo = CostBasedOptimizer(
            WhatIfEngine(CLUSTER),
            num_samples=12,
            refine_rounds=1,
            elite=2,
            perturbations_per_elite=3,
            max_reducers=4,
            seed=seed,
        )
        batched = cbo.optimize(profile)
        sequential = optimize_sequential(cbo, profile)
        assert batched.best_config == sequential.best_config
        assert batched.best_config.num_reduce_tasks <= 4
