"""Reduce-task execution: run the user reducer on sample groups, extrapolate.

Mirrors :mod:`repro.hadoop.mapper_engine`: a cacheable **measurement** step
actually executes the user's reduce function over the grouped sample
intermediate data to learn its selectivities and op counts, and a
**pricing** step prices a run's reduce tasks' SHUFFLE/SORT/REDUCE/WRITE
phases under a given configuration and node rates: the integer volume
arithmetic per partition, the rate-dependent prices as columns.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .cluster import ClusterSpec, TaskRates
from .config import JobConfiguration
from .job import MapReduceJob
from .mapper_engine import (
    INTERMEDIATE_COMPRESSION_RATIO,
    OP_CPU_FRACTION,
    COMPARE_CPU_FRACTION,
    TASK_CLEANUP_SECONDS,
    TASK_SETUP_SECONDS,
)
from .tasks import ReduceTaskTable

__all__ = [
    "ReduceSampleMeasurement",
    "measure_reduce_from_pairs",
    "price_reduce_tasks",
    "OUTPUT_COMPRESSION_RATIO",
]

#: Compression ratio assumed for final (HDFS) output compression.
OUTPUT_COMPRESSION_RATIO = 0.45
#: Framework cost of deserializing + feeding one reduce input record.
REDUCE_FEED_CPU_FRACTION = 0.4
#: Per-record fetch overhead during SHUFFLE (job-dependent measured
#: network cost: many small records cost more per byte).
SHUFFLE_CPU_FRACTION = 0.4
#: Per-record serialization overhead during WRITE.
WRITE_SER_CPU_FRACTION = 0.5


@dataclass(frozen=True)
class ReduceSampleMeasurement:
    """Data-flow behaviour of the job's reduce side, measured on samples."""

    sample_input_records: int
    sample_input_bytes: int
    sample_groups: int
    sample_output_records: int
    sample_output_bytes: int
    sample_user_ops: int

    @property
    def reduce_records_sel(self) -> float:
        """Reduce selectivity in records (RED_PAIRS_SEL)."""
        return self.sample_output_records / max(1, self.sample_input_records)

    @property
    def reduce_size_sel(self) -> float:
        """Reduce selectivity in bytes (RED_SIZE_SEL)."""
        return self.sample_output_bytes / max(1, self.sample_input_bytes)

    @property
    def records_per_group(self) -> float:
        return self.sample_input_records / max(1, self.sample_groups)

    @property
    def output_records_per_group(self) -> float:
        return self.sample_output_records / max(1, self.sample_groups)

    @property
    def ops_per_input_record(self) -> float:
        return self.sample_user_ops / max(1, self.sample_input_records)

    @property
    def avg_output_record_bytes(self) -> float:
        if self.sample_output_records == 0:
            return 0.0
        return self.sample_output_bytes / self.sample_output_records


def measure_reduce_from_pairs(
    job: MapReduceJob,
    intermediate_pairs: Sequence[tuple[object, object]],
    sizes: Sequence[int],
) -> ReduceSampleMeasurement:
    """Run the reducer over concrete sample intermediate pairs, of which
    pair ``i`` has serialized size ``sizes[i]``."""
    if len(sizes) != len(intermediate_pairs):
        raise ValueError("need exactly one size per intermediate pair")
    if job.reducer is None or not intermediate_pairs:
        return ReduceSampleMeasurement(0, 0, 0, 0, 0, 0)

    groups: dict[object, list[object]] = defaultdict(list)
    for key, value in intermediate_pairs:
        groups[key].append(value)

    context = job.make_context()
    for key, values in groups.items():
        job.reducer(key, values, context)

    return ReduceSampleMeasurement(
        sample_input_records=len(intermediate_pairs),
        sample_input_bytes=sum(sizes),
        sample_groups=len(groups),
        sample_output_records=context.records_out,
        sample_output_bytes=context.bytes_out,
        sample_user_ops=context.ops,
    )


def _reduce_volumes(
    shuffle_bytes: float,
    shuffle_records: float,
    task_heap_bytes: int,
    measurement: ReduceSampleMeasurement,
    num_map_tasks: int,
    config: JobConfiguration,
) -> dict[str, Any]:
    """One reduce task's volumes and merge arithmetic.

    Returns the integer :class:`ReduceTaskExecution` fields plus the
    byte volumes and the sort-compare log factor the phase prices
    multiply.
    """
    if config.compress_map_output:
        plain_bytes = shuffle_bytes / INTERMEDIATE_COMPRESSION_RATIO
    else:
        plain_bytes = shuffle_bytes

    input_records = int(round(shuffle_records))
    groups = int(round(shuffle_records / max(1e-9, measurement.records_per_group))) \
        if measurement.sample_groups else 0
    groups = min(groups, input_records)

    output_records = int(round(groups * measurement.output_records_per_group))
    output_bytes = int(round(output_records * measurement.avg_output_record_bytes))
    user_ops = int(round(input_records * measurement.ops_per_input_record))

    # ------------------------------------------------------------------
    # SORT: in-memory merges plus disk merge passes when the shuffle
    # buffer overflows the reduce-side heap.
    # ------------------------------------------------------------------
    buffer_bytes = task_heap_bytes * config.shuffle_input_buffer_percent
    merge_trigger_bytes = max(1.0, buffer_bytes * config.shuffle_merge_percent)
    overflow_bytes = max(0.0, plain_bytes - buffer_bytes)

    disk_segments = 0
    if overflow_bytes > 0:
        disk_segments = max(1, math.ceil(overflow_bytes / merge_trigger_bytes))
    disk_merge_passes = config.merge_passes(disk_segments) if disk_segments else 0

    inmem_merges = 0
    if num_map_tasks > 0:
        inmem_merges = max(
            math.ceil(num_map_tasks / max(1, config.inmem_merge_threshold)),
            math.ceil(plain_bytes / merge_trigger_bytes) if plain_bytes else 0,
        )

    # Data retained in memory for the reduce phase skips the final disk read.
    retained_bytes = task_heap_bytes * config.reduce_input_buffer_percent

    if config.compress_output:
        materialized_bytes = int(round(output_bytes * OUTPUT_COMPRESSION_RATIO))
    else:
        materialized_bytes = output_bytes

    return {
        "shuffle_bytes": int(round(shuffle_bytes)),
        "shuffle_records": input_records,
        "reduce_input_records": input_records,
        "reduce_input_groups": groups,
        "output_records": output_records,
        "output_bytes": output_bytes,
        "materialized_bytes": materialized_bytes,
        "disk_merge_passes": disk_merge_passes,
        "user_ops": user_ops,
        # Priced below.
        "plain_bytes": plain_bytes,
        "sort_io_bytes": disk_merge_passes * overflow_bytes,
        "final_read_bytes": max(0.0, overflow_bytes - retained_bytes),
        "inmem_merges": inmem_merges,
        # math.log2, not np.log2: the two may differ in the last place.
        "sort_log": math.log2(max(2, input_records / max(1, inmem_merges))),
    }


def price_reduce_tasks(
    first_task_id: int,
    shuffle_bytes: np.ndarray,
    shuffle_records: np.ndarray,
    measurement: ReduceSampleMeasurement,
    num_map_tasks: int,
    config: JobConfiguration,
    cluster: ClusterSpec,
    task_rates: TaskRates,
    profiled: bool = False,
    profiling_overhead: float = 0.0,
) -> ReduceTaskTable:
    """Price a run's reduce tasks' phases as columns, one per partition.

    Partition ``p`` is task ``first_task_id + p`` on worker
    ``task_rates.worker[p]`` at rates ``task_rates.rates[:, p]``.

    Args:
        shuffle_bytes: nominal on-the-wire bytes shuffled to each reducer
            (post map-output compression).
        shuffle_records: nominal intermediate records for each reducer.
        measurement: reduce-side sample measurement for the job.
        num_map_tasks: map tasks feeding the shuffle (drives in-memory
            merge rounds through ``mapred.inmem.merge.threshold``).
    """
    volumes = [
        _reduce_volumes(
            wire, records, cluster.workers[worker].task_heap_bytes,
            measurement, num_map_tasks, config,
        )
        for wire, records, worker in zip(
            shuffle_bytes.tolist(),
            shuffle_records.tolist(),
            task_rates.worker.tolist(),
        )
    ]
    count = len(volumes)
    integers = np.array(
        [
            range(first_task_id, first_task_id + count),
            range(count),
            cluster.node_ids[task_rates.worker],
            *([v[name] for v in volumes] for name in ReduceTaskTable.FIELDS[3:]),
        ],
        dtype=np.int64,
    ).reshape(len(ReduceTaskTable.FIELDS), count)

    def column(name: str) -> np.ndarray:
        """Volume *name* of every task, as floats."""
        return np.array([v[name] for v in volumes], dtype=float)

    # ------------------------------------------------------------------
    # Phase timing: the per-task formulas over columns, in their operand
    # order, so every price rounds as it did for one task.
    # ------------------------------------------------------------------
    rates = task_rates.rates
    _, write_hdfs, read_local, write_local, network, cpu, compress, decompress = rates
    op_ns = cpu * OP_CPU_FRACTION
    input_records = column("reduce_input_records")

    # SHUFFLE: fetch map outputs over the network (+ decompression).
    shuffle_s = (
        shuffle_bytes * network + shuffle_records * cpu * SHUFFLE_CPU_FRACTION
    ) / 1e9
    if config.compress_map_output:
        shuffle_s += column("plain_bytes") * decompress / 1e9

    # SORT: disk merge passes, the final disk read and the merge compares.
    compare_ns = cpu * COMPARE_CPU_FRACTION
    sort_cpu_ns = np.where(
        column("inmem_merges") > 0,
        input_records * compare_ns * column("sort_log"),
        0.0,
    )
    sort_s = (
        column("sort_io_bytes") * (read_local + write_local)
        + column("final_read_bytes") * read_local
        + sort_cpu_ns
    ) / 1e9

    # REDUCE: feed groups through the user reduce function.
    reduce_s = (
        input_records * cpu * REDUCE_FEED_CPU_FRACTION
        + column("user_ops") * op_ns
    ) / 1e9

    # WRITE: final output to HDFS (x3 replication folded into the rate).
    write_cpu_s = (
        column("output_bytes") * compress / 1e9 if config.compress_output else 0.0
    )
    write_s = (
        column("materialized_bytes") * write_hdfs
        + column("output_records") * cpu * WRITE_SER_CPU_FRACTION
    ) / 1e9 + write_cpu_s

    phases = np.array([
        np.full(count, TASK_SETUP_SECONDS),
        shuffle_s,
        sort_s,
        reduce_s,
        write_s,
        np.full(count, TASK_CLEANUP_SECONDS),
    ])
    if profiled and profiling_overhead > 0:
        phases[1:5] *= 1.0 + profiling_overhead

    return ReduceTaskTable(
        integers=integers,
        phase_times=phases,
        rates=rates,
        profiled=profiled,
    )
