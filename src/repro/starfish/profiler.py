"""The Starfish profiler: turn an instrumented execution into a profile.

The real profiler attaches dynamic instrumentation (BTrace) to an
unmodified MR job and records per-phase timings and data-flow counters.
Here the :class:`repro.hadoop.engine.HadoopEngine` exposes exactly those
observables as the columns of its task tables, so profiling means (a)
running the job with per-task overhead inflation turned on, and (b)
aggregating the task columns into a :class:`JobProfile`.
"""

from __future__ import annotations

import statistics as stats
from dataclasses import dataclass

import numpy as np

from ..hadoop.config import JobConfiguration
from ..hadoop.dataset import Dataset
from ..hadoop.engine import DEFAULT_PROFILING_OVERHEAD, HadoopEngine
from ..hadoop.job import MapReduceJob
from ..hadoop.mapper_engine import (
    INTERMEDIATE_COMPRESSION_RATIO,
    MERGE_READ_CPU_FRACTION,
    OP_CPU_FRACTION,
    READER_CPU_FRACTION,
    SPILL_SER_CPU_FRACTION,
)
from ..hadoop.reducer_engine import SHUFFLE_CPU_FRACTION, WRITE_SER_CPU_FRACTION
from ..hadoop.tasks import JobExecution, MAP_PHASES, REDUCE_PHASES
from .profile import JobProfile, SideProfile

__all__ = ["StarfishProfiler", "build_profile"]


def _mean(values: np.ndarray) -> float:
    # fmean sums with fsum: exact, so independent of the summation order.
    return stats.fmean(values.tolist()) if len(values) else 0.0


def _plus_ratio(
    base: np.ndarray, numerator: np.ndarray, denominator: np.ndarray
) -> np.ndarray:
    """``base + numerator / denominator`` where the denominator is
    nonzero, ``base`` elsewhere (the per-task ``if x: cost += ...``)."""
    nonzero = denominator != 0
    return np.where(
        nonzero, base + numerator / np.where(nonzero, denominator, 1), base
    )


def _map_side_profile(execution: JobExecution, config: JobConfiguration) -> SideProfile:
    tasks = execution.map_table
    column = tasks.column
    input_bytes = column("input_bytes")
    input_records = column("input_records")
    total_in_bytes = int(input_bytes.sum())
    total_in_records = int(input_records.sum())
    total_out_bytes = int(column("map_output_bytes").sum())
    total_out_records = int(column("map_output_records").sum())

    combine_input = column("combine_input_records")
    combine_in = int(combine_input.sum())
    combine_out = int(column("combine_output_records").sum())
    if combine_in > 0:
        combine_pairs_sel = combine_out / combine_in
        combine_size_sel = (
            int(column("spill_bytes").sum()) / max(1, total_out_bytes)
        )
        has_combiner = 1.0
    else:
        combine_pairs_sel = 1.0
        combine_size_sel = 1.0
        has_combiner = 0.0

    data_flow = {
        "MAP_SIZE_SEL": total_out_bytes / max(1, total_in_bytes),
        "MAP_PAIRS_SEL": total_out_records / max(1, total_in_records),
        "COMBINE_SIZE_SEL": combine_size_sel,
        "COMBINE_PAIRS_SEL": combine_pairs_sel,
    }

    # Cost factors are derived per task the way operation-level
    # instrumentation measures them: per-byte costs fold in the per-record
    # framework overheads, so they are *job-dependent* (small records cost
    # more per byte) on top of node/utilization noise.
    cpu = tasks.rate("cpu_ns_per_record")
    materialized = column("materialized_bytes")
    spill_records = column("spill_records")
    has_input = input_records != 0
    has_combine = combine_input != 0
    cost_factors = {
        "READ_HDFS_IO_COST": _mean(_plus_ratio(
            tasks.rate("read_hdfs_ns_per_byte"),
            READER_CPU_FRACTION * cpu * input_records,
            input_bytes,
        )),
        "READ_LOCAL_IO_COST": _mean(_plus_ratio(
            tasks.rate("read_local_ns_per_byte"),
            MERGE_READ_CPU_FRACTION * cpu * spill_records,
            materialized,
        )),
        "WRITE_LOCAL_IO_COST": _mean(_plus_ratio(
            tasks.rate("write_local_ns_per_byte"),
            SPILL_SER_CPU_FRACTION * cpu * spill_records,
            materialized,
        )),
        "MAP_CPU_COST": _mean(
            tasks.phase("MAP")[has_input] * 1e9 / input_records[has_input]
        ),
        "COMBINE_CPU_COST": _mean(
            column("combine_ops")[has_combine]
            * (cpu[has_combine] * OP_CPU_FRACTION)
            / combine_input[has_combine]
        ),
    }

    statistics = {
        "INPUT_RECORD_BYTES": total_in_bytes / max(1, total_in_records),
        "INTERMEDIATE_RECORD_BYTES": total_out_bytes / max(1, total_out_records),
        "FRAMEWORK_CPU_COST": _mean(cpu),
        "NETWORK_COST": _mean(tasks.rate("network_ns_per_byte")),
        "COMPRESS_CPU_COST": _mean(tasks.rate("compress_ns_per_byte")),
        "DECOMPRESS_CPU_COST": _mean(tasks.rate("decompress_ns_per_byte")),
        "HAS_COMBINER": has_combiner,
    }

    phase_times = {phase: _mean(tasks.phase(phase)) for phase in MAP_PHASES}
    return SideProfile(
        side="map",
        data_flow=data_flow,
        cost_factors=cost_factors,
        statistics=statistics,
        phase_times=phase_times,
        num_tasks=len(tasks),
    )


def _reduce_side_profile(
    execution: JobExecution, config: JobConfiguration
) -> SideProfile | None:
    tasks = execution.reduce_table
    if not len(tasks):
        return None
    column = tasks.column

    shuffle_bytes = column("shuffle_bytes")
    wire_bytes = shuffle_bytes.astype(float)
    if config.compress_map_output:
        plain_bytes = wire_bytes / INTERMEDIATE_COMPRESSION_RATIO
    else:
        plain_bytes = wire_bytes
    # The builtin sum, added task by task like the per-task records were.
    total_in_bytes = sum(plain_bytes.tolist())
    input_records = column("reduce_input_records")
    total_in_records = int(input_records.sum())
    total_groups = int(column("reduce_input_groups").sum())
    output_records = column("output_records")
    total_out_records = int(output_records.sum())
    total_out_bytes = int(column("output_bytes").sum())

    data_flow = {
        "RED_SIZE_SEL": total_out_bytes / max(1.0, total_in_bytes),
        "RED_PAIRS_SEL": total_out_records / max(1, total_in_records),
    }

    cpu = tasks.rate("cpu_ns_per_record")
    has_input = input_records != 0
    cost_factors = {
        "READ_LOCAL_IO_COST": _mean(tasks.rate("read_local_ns_per_byte")),
        "WRITE_LOCAL_IO_COST": _mean(tasks.rate("write_local_ns_per_byte")),
        "WRITE_HDFS_IO_COST": _mean(_plus_ratio(
            tasks.rate("write_hdfs_ns_per_byte"),
            WRITE_SER_CPU_FRACTION * cpu * output_records,
            column("materialized_bytes"),
        )),
        "REDUCE_CPU_COST": _mean(
            tasks.phase("REDUCE")[has_input] * 1e9 / input_records[has_input]
        ),
    }

    mean_wire = _mean(wire_bytes)
    skew = float(wire_bytes.max()) / mean_wire if mean_wire > 0 else 1.0
    statistics = {
        "RECORDS_PER_GROUP": total_in_records / max(1, total_groups),
        "OUT_RECORDS_PER_GROUP": total_out_records / max(1, total_groups),
        "OUTPUT_RECORD_BYTES": total_out_bytes / max(1, total_out_records),
        "REDUCE_SKEW": skew,
        "FRAMEWORK_CPU_COST": _mean(cpu),
        "NETWORK_COST": _mean(_plus_ratio(
            tasks.rate("network_ns_per_byte"),
            SHUFFLE_CPU_FRACTION * cpu * column("shuffle_records"),
            shuffle_bytes,
        )),
        "COMPRESS_CPU_COST": _mean(tasks.rate("compress_ns_per_byte")),
        "DECOMPRESS_CPU_COST": _mean(tasks.rate("decompress_ns_per_byte")),
    }

    phase_times = {phase: _mean(tasks.phase(phase)) for phase in REDUCE_PHASES}
    return SideProfile(
        side="reduce",
        data_flow=data_flow,
        cost_factors=cost_factors,
        statistics=statistics,
        phase_times=phase_times,
        num_tasks=len(tasks),
    )


def build_profile(
    execution: JobExecution,
    config: JobConfiguration,
    source: str,
    split_bytes: int,
) -> JobProfile:
    """Aggregate an instrumented execution into a job profile."""
    return JobProfile(
        job_name=execution.job_name,
        dataset_name=execution.dataset_name,
        input_bytes=execution.input_bytes,
        split_bytes=split_bytes,
        num_map_tasks=execution.num_map_tasks,
        num_reduce_tasks=execution.num_reduce_tasks,
        map_profile=_map_side_profile(execution, config),
        reduce_profile=_reduce_side_profile(execution, config),
        source=source,
    )


@dataclass
class StarfishProfiler:
    """Collects execution profiles by running instrumented jobs.

    Attributes:
        engine: the Hadoop engine jobs run on.
        overhead: relative per-task slowdown of instrumentation.
    """

    engine: HadoopEngine
    overhead: float = DEFAULT_PROFILING_OVERHEAD

    def profile_job(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration | None = None,
        map_task_ids: list[int] | None = None,
        seed: int = 0,
    ) -> tuple[JobProfile, JobExecution]:
        """Run *job* with profiling on and return (profile, execution).

        With ``map_task_ids`` given, only those map tasks run (sampling
        mode); otherwise the full job runs instrumented (complete
        profiling, the Fig 2.1 first-submission path).
        """
        if config is None:
            config = JobConfiguration()
        execution = self.engine.run_job(
            job,
            dataset,
            config,
            map_task_ids=map_task_ids,
            profile=True,
            profiling_overhead=self.overhead,
            seed=seed,
        )
        source = "sample" if map_task_ids is not None else "full"
        profile = build_profile(execution, config, source, dataset.split_bytes)
        return profile, execution
