"""Map-task execution: run the user mapper on sample records, extrapolate.

A map task executes in two layers:

1. **Measurement** (:func:`measure_map_sample`): the user's map function
   (and combiner, if any) actually runs over the materialized sample records
   of an input split.  This yields the task's *data flow* behaviour —
   selectivities, record sizes, key distribution, user-op counts — which is
   a property of the program and the data, independent of configuration and
   of the node the task lands on.  Measurements are therefore cacheable.

2. **Pricing** (:func:`price_map_tasks`): given the measurements, a
   configuration, and each task's (noisy) node cost rates, reproduce Hadoop
   0.20's map-side pipeline arithmetic — serialization buffer fills governed
   by ``io.sort.mb`` / ``io.sort.record.percent`` /
   ``io.sort.spill.percent``, spill counts, combiner application, optional
   compression, and external merge passes governed by ``io.sort.factor`` —
   and price each phase with the tasks' cost rates.  The volume arithmetic
   runs once per distinct (representative split, split size, task heap);
   the rate-dependent phase prices run as one column expression over all
   of a run's tasks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .cluster import ClusterSpec, TaskRates
from .config import JobConfiguration
from .counters import FRAMEWORK_GROUP
from .dataset import SplitSample
from .job import MapReduceJob
from .tasks import MapTaskTable

__all__ = [
    "KeyAggregate",
    "MapSampleMeasurement",
    "measure_map_sample",
    "partition_fractions",
    "price_map_tasks",
    "META_BYTES_PER_RECORD",
    "INTERMEDIATE_COMPRESSION_RATIO",
]

#: Hadoop's fixed accounting size of one record's buffer meta-data entry.
META_BYTES_PER_RECORD = 16
#: LZO-style compression ratio assumed for intermediate data.
INTERMEDIATE_COMPRESSION_RATIO = 0.4
#: User-function op cost, as a fraction of the node's per-record CPU rate.
OP_CPU_FRACTION = 0.7
#: Framework cost of collecting (serializing + partitioning) one output pair.
COLLECT_CPU_FRACTION = 0.5
#: Cost of one sort comparison, as a fraction of the per-record CPU rate.
COMPARE_CPU_FRACTION = 0.15
#: Record-reader overhead per input record (part of the READ phase) — this
#: is what makes the *measured* per-byte HDFS read cost job-dependent:
#: small records cost more per byte, as on a real cluster.
READER_CPU_FRACTION = 0.6
#: Serialization overhead per spilled record (part of the SPILL phase).
SPILL_SER_CPU_FRACTION = 0.5
#: Deserialization overhead per record per merge pass (MERGE phase).
MERGE_READ_CPU_FRACTION = 0.25
#: Fixed JVM start / task setup and commit / cleanup times (seconds).
TASK_SETUP_SECONDS = 1.2
TASK_CLEANUP_SECONDS = 0.6
#: At most this fraction of the task heap can serve as the sort buffer —
#: a larger ``io.sort.mb`` simply cannot be allocated (OOM on a real
#: cluster), so the effective buffer is clamped.
HEAP_SORT_FRACTION = 0.7
#: Input records a measurement keeps as type examples (static features).
INPUT_HEAD_RECORDS = 4


@dataclass(frozen=True)
class KeyAggregate:
    """A pair stream grouped by ``repr(key)``: all that partitioning reads.

    ``repr(key)`` is exactly the text :func:`default_partitioner` hashes,
    so the grouping never merges keys a partitioner can separate: ``1``,
    ``1.0`` and ``True`` stay apart although they are equal.  A custom
    partitioner must likewise depend on a key only through its repr (the
    shipped ones do).  Totals are integers held exactly in float64.
    """

    #: The first key seen for each distinct ``repr``, in first-seen order.
    keys: tuple[Any, ...]
    #: Summed serialized pair size per key.
    byte_totals: np.ndarray
    #: Number of pairs per key.
    record_counts: np.ndarray


def _aggregate_keys(
    pairs: Sequence[tuple[Any, Any]], sizes: Sequence[int]
) -> KeyAggregate:
    """Group *pairs* (each of serialized size ``sizes[i]``) by
    ``repr(key)`` into per-key byte and pair totals."""
    slot_of: dict[str, int] = {}
    keys: list[Any] = []
    slots: list[int] = []
    for key, __ in pairs:
        slot = slot_of.setdefault(repr(key), len(keys))
        if slot == len(keys):
            keys.append(key)
        slots.append(slot)
    index = np.array(slots, dtype=np.intp)
    aggregate = KeyAggregate(
        keys=tuple(keys),
        byte_totals=np.bincount(
            index, weights=np.array(sizes, dtype=float), minlength=len(keys)
        ),
        record_counts=np.bincount(index, minlength=len(keys)).astype(float),
    )
    aggregate.byte_totals.flags.writeable = False
    aggregate.record_counts.flags.writeable = False
    return aggregate


@dataclass(frozen=True)
class MapSampleMeasurement:
    """Data-flow behaviour of one (job, split) pair, measured on samples.

    All counts describe the *sample*; the simulation scales them by
    ``split.nominal_bytes / sample_input_bytes``.  Raw and post-combine
    intermediate pairs are both kept so that a configuration may toggle the
    combiner without re-running the mapper.
    """

    split_index: int
    sample_input_records: int
    sample_input_bytes: int
    sample_output_records: int
    sample_output_bytes: int
    sample_user_ops: int
    #: The first input records, kept as type examples for static features.
    sample_input_head: tuple[tuple[Any, Any], ...]
    sample_map_pairs: tuple[tuple[Any, Any], ...]
    #: Serialized size of each map pair, parallel to ``sample_map_pairs``.
    sample_map_sizes: tuple[int, ...]
    sample_combined_pairs: tuple[tuple[Any, Any], ...]
    #: Serialized size of each combined pair.
    sample_combined_sizes: tuple[int, ...]
    combine_records_sel: float
    combine_size_sel: float
    combine_sample_ops: int
    #: Values derived from the sample on first use; see :meth:`derived`.
    _derived: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def map_records_sel(self) -> float:
        """Map selectivity in number of records (MAP_PAIRS_SEL)."""
        return self.sample_output_records / max(1, self.sample_input_records)

    @property
    def map_size_sel(self) -> float:
        """Map selectivity in bytes (MAP_SIZE_SEL)."""
        return self.sample_output_bytes / max(1, self.sample_input_bytes)

    @property
    def avg_output_record_bytes(self) -> float:
        if self.sample_output_records == 0:
            return 0.0
        return self.sample_output_bytes / self.sample_output_records

    def intermediate_pairs(self, combined: bool) -> tuple[tuple[Any, Any], ...]:
        """The pair stream reducers would see under the combiner setting."""
        if combined:
            return self.sample_combined_pairs
        return self.sample_map_pairs

    def intermediate_sizes(self, combined: bool) -> tuple[int, ...]:
        """Serialized size of each pair :meth:`intermediate_pairs` returns."""
        if combined:
            return self.sample_combined_sizes
        return self.sample_map_sizes

    def derived(self, name: Any, compute: Callable[[], Any]) -> Any:
        """``compute()``, evaluated once per measurement and kept under *name*.

        Two threads may both compute a missing value, but a value is
        stored only once it is complete, so no caller sees a partial one.
        """
        try:
            return self._derived[name]
        except KeyError:
            return self._derived.setdefault(name, compute())

    def key_aggregate(self, combined: bool) -> KeyAggregate:
        """The intermediate pairs under the combiner setting, grouped by key."""
        return self.derived(
            ("key_aggregate", combined),
            lambda: _aggregate_keys(
                self.intermediate_pairs(combined),
                self.intermediate_sizes(combined),
            ),
        )


def measure_map_sample(
    job: MapReduceJob, sample: SplitSample
) -> MapSampleMeasurement:
    """Run the mapper (and combiner) over one split's sample records."""
    records = sample.records
    context = job.make_context()
    for key, value in records:
        job.mapper(key, value, context)
        context.counters.increment(FRAMEWORK_GROUP, "MAP_INPUT_RECORDS")

    map_pairs = tuple(context.pairs)
    map_sizes = tuple(context.sizes)
    combined_pairs = map_pairs
    combined_sizes = map_sizes
    combine_records_sel = 1.0
    combine_size_sel = 1.0
    combine_ops = 0

    if job.has_combiner and map_pairs:
        combined_context = job.make_context()
        groups: dict[Any, list[Any]] = defaultdict(list)
        for key, value in map_pairs:
            groups[key].append(value)
        for key, values in groups.items():
            job.combiner(key, values, combined_context)
        combine_records_sel = combined_context.records_out / len(map_pairs)
        combine_size_sel = combined_context.bytes_out / max(1, context.bytes_out)
        combine_ops = combined_context.ops
        combined_pairs = tuple(combined_context.pairs)
        combined_sizes = tuple(combined_context.sizes)

    return MapSampleMeasurement(
        split_index=sample.index,
        sample_input_records=len(records),
        sample_input_bytes=sample.input_bytes,
        sample_output_records=context.records_out,
        sample_output_bytes=context.bytes_out,
        sample_user_ops=context.ops,
        sample_input_head=records[:INPUT_HEAD_RECORDS],
        sample_map_pairs=map_pairs,
        sample_map_sizes=map_sizes,
        sample_combined_pairs=combined_pairs,
        sample_combined_sizes=combined_sizes,
        combine_records_sel=combine_records_sel,
        combine_size_sel=combine_size_sel,
        combine_sample_ops=combine_ops,
    )


def partition_fractions(
    measurement: MapSampleMeasurement,
    job: MapReduceJob,
    num_partitions: int,
    combined: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition (byte fraction, record fraction) of the task's output.

    Uses the sample's actual key-to-partition assignment under the job's
    partitioner, so key skew (e.g. Zipfian words) shows up as reducer skew.
    Reads the measurement's :class:`KeyAggregate`, built once per
    (measurement, combiner setting), so a call costs one partitioner call
    per distinct key, and none when ``num_partitions`` is 1.
    :class:`~repro.hadoop.engine.HadoopEngine` memoizes the result per
    (measurement, partitioner, ``num_partitions``, combiner setting).
    """
    aggregate = measurement.key_aggregate(combined)
    if not aggregate.keys:
        return np.zeros(num_partitions), np.zeros(num_partitions)
    if num_partitions == 1:
        index = np.zeros(len(aggregate.keys), dtype=np.intp)
    else:
        index = np.fromiter(
            (job.partitioner(key, num_partitions) for key in aggregate.keys),
            dtype=np.intp,
            count=len(aggregate.keys),
        )
        if index.min() < 0 or index.max() >= num_partitions:
            raise IndexError(
                f"partitioner returned a partition outside 0..{num_partitions - 1}"
            )
    byte_counts = np.bincount(
        index, weights=aggregate.byte_totals, minlength=num_partitions
    )
    record_counts = np.bincount(
        index, weights=aggregate.record_counts, minlength=num_partitions
    )
    byte_total = byte_counts.sum()
    record_total = record_counts.sum()
    if byte_total <= 0 or record_total <= 0:
        return byte_counts, record_counts
    return byte_counts / byte_total, record_counts / record_total


def _map_volumes(
    measurement: MapSampleMeasurement,
    nominal_bytes: int,
    task_heap_bytes: int,
    config: JobConfiguration,
    combine_enabled: bool,
) -> dict[str, Any]:
    """One task's extrapolated volumes and buffer/spill arithmetic.

    Depends on the task only through its split's size and its node's heap,
    so a run evaluates it once per distinct (representative, size, heap).
    Returns the integer :class:`MapTaskExecution` fields plus the
    sort-compare count and the merge volumes the phase prices multiply.
    """
    scale = nominal_bytes / max(1, measurement.sample_input_bytes)

    input_records = max(1, round(measurement.sample_input_records * scale))
    map_output_records = round(measurement.sample_output_records * scale)
    map_output_bytes = round(measurement.sample_output_bytes * scale)
    user_ops = round(measurement.sample_user_ops * scale)

    if combine_enabled:
        spill_records = round(map_output_records * measurement.combine_records_sel)
        spill_bytes = round(map_output_bytes * measurement.combine_size_sel)
        combine_ops = round(measurement.combine_sample_ops * scale)
    else:
        spill_records = map_output_records
        spill_bytes = map_output_bytes
        combine_ops = 0

    # ------------------------------------------------------------------
    # Buffer / spill arithmetic (Hadoop 0.20 collect pipeline).
    # ------------------------------------------------------------------
    avg_record = measurement.avg_output_record_bytes
    if map_output_records > 0 and avg_record > 0:
        sort_buffer = min(
            config.sort_buffer_bytes(),
            int(task_heap_bytes * HEAP_SORT_FRACTION),
        )
        record_buffer = int(sort_buffer * config.io_sort_record_percent)
        data_cap = (sort_buffer - record_buffer) * config.io_sort_spill_percent
        meta_cap = (
            record_buffer * config.io_sort_spill_percent / META_BYTES_PER_RECORD
        )
        records_per_spill = max(1.0, min(data_cap / avg_record, meta_cap))
        num_spills = max(1, math.ceil(map_output_records / records_per_spill))
    else:
        records_per_spill = 1.0
        num_spills = 0

    merge_passes = config.merge_passes(num_spills)

    if config.compress_map_output:
        materialized_bytes = round(spill_bytes * INTERMEDIATE_COMPRESSION_RATIO)
    else:
        materialized_bytes = spill_bytes

    sort_compares = 0.0
    if num_spills > 0 and records_per_spill > 1:
        sort_compares = map_output_records * math.log2(records_per_spill)

    return {
        "input_records": input_records,
        "input_bytes": nominal_bytes,
        "map_output_records": map_output_records,
        "map_output_bytes": map_output_bytes,
        "spill_records": spill_records,
        "spill_bytes": spill_bytes,
        "materialized_bytes": materialized_bytes,
        "num_spills": num_spills,
        "merge_passes": merge_passes,
        "combine_input_records": map_output_records if combine_enabled else 0,
        "combine_output_records": spill_records if combine_enabled else 0,
        "combine_ops": combine_ops,
        "user_ops": user_ops,
        # Priced below; products of integers stay exact Python integers.
        "sort_compares": sort_compares,
        "merge_io_bytes": merge_passes * materialized_bytes,
        "merge_spill_records": merge_passes * spill_records,
        "merge_spill_bytes": merge_passes * spill_bytes,
    }


def price_map_tasks(
    task_ids: np.ndarray,
    split_bytes: np.ndarray,
    measurements: Sequence[MapSampleMeasurement],
    fractions: Mapping[int, tuple[np.ndarray, np.ndarray]],
    job: MapReduceJob,
    config: JobConfiguration,
    cluster: ClusterSpec,
    task_rates: TaskRates,
    profiled: bool = False,
    profiling_overhead: float = 0.0,
    remote: np.ndarray | None = None,
) -> MapTaskTable:
    """Price a run's map tasks' phases as columns, one pass over all tasks.

    Task ``task_ids[i]`` reads a split of ``split_bytes[i]`` nominal bytes,
    runs on worker ``task_rates.worker[i]`` at rates ``task_rates.rates[:, i]``
    and reuses the measurement of representative ``task_ids[i] %
    len(measurements)``.

    Args:
        fractions: for each representative the tasks use, the output of
            :func:`partition_fractions` under this configuration's reducer
            count and combiner setting.
        remote: indices of the tasks that read their split over the
            network; their READ phase is re-priced at network plus local
            disk rates instead of the HDFS read rate.
    """
    combine_enabled = config.use_combiner and job.has_combiner
    heaps = [node.task_heap_bytes for node in cluster.workers]
    slots: dict[tuple[int, int, int], int] = {}
    group = np.array(
        [
            slots.setdefault(key, len(slots))
            for key in zip(
                (task_ids % len(measurements)).tolist(),
                split_bytes.tolist(),
                [heaps[worker] for worker in task_rates.worker.tolist()],
            )
        ],
        dtype=np.intp,
    )
    volumes = [
        _map_volumes(measurements[rep], nominal, heap, config, combine_enabled)
        for rep, nominal, heap in slots
    ]
    count = len(task_ids)
    integers = np.empty((len(MapTaskTable.FIELDS), count), dtype=np.int64)
    integers[0] = task_ids
    integers[1] = task_ids
    integers[2] = cluster.node_ids[task_rates.worker]
    integers[3:] = np.array(
        [[v[name] for v in volumes] for name in MapTaskTable.FIELDS[3:]],
        dtype=np.int64,
    ).reshape(len(MapTaskTable.FIELDS) - 3, -1)[:, group]

    def column(name: str) -> np.ndarray:
        """Volume *name* of every task, as floats."""
        return np.array([v[name] for v in volumes], dtype=float)[group]

    # ------------------------------------------------------------------
    # Phase timing: the per-task formulas over columns, in their operand
    # order, so every price rounds as it did for one task.
    # ------------------------------------------------------------------
    rates = task_rates.rates
    read_hdfs, _, read_local, write_local, network, cpu, compress, decompress = rates
    op_ns = cpu * OP_CPU_FRACTION
    input_records = column("input_records")
    read_s = (
        column("input_bytes") * read_hdfs
        + input_records * cpu * READER_CPU_FRACTION
    ) / 1e9
    map_s = (input_records * cpu + column("user_ops") * op_ns) / 1e9
    collect_s = (
        column("map_output_records") * cpu * COLLECT_CPU_FRACTION
        + column("sort_compares") * cpu * COMPARE_CPU_FRACTION
    ) / 1e9
    spill_io_s = (
        column("materialized_bytes") * write_local
        + column("spill_records") * cpu * SPILL_SER_CPU_FRACTION
    ) / 1e9
    spill_cpu_ns = column("combine_ops") * op_ns
    if config.compress_map_output:
        spill_cpu_ns += column("spill_bytes") * compress
    merge_s = (
        column("merge_io_bytes") * (read_local + write_local)
        + column("merge_spill_records") * cpu * MERGE_READ_CPU_FRACTION
    ) / 1e9
    if config.compress_map_output:
        merge_s = np.where(
            integers[MapTaskTable.FIELDS.index("merge_passes")] > 0,
            merge_s
            + column("merge_spill_bytes") * (decompress + compress) / 1e9,
            merge_s,
        )
    phases = np.array([
        np.full(count, TASK_SETUP_SECONDS),
        read_s,
        map_s,
        collect_s,
        spill_io_s + spill_cpu_ns / 1e9,
        merge_s,
        np.full(count, TASK_CLEANUP_SECONDS),
    ])
    if profiled and profiling_overhead > 0:
        phases[1:6] *= 1.0 + profiling_overhead
    if remote is not None:
        # A remote read streams the block over the network instead of the
        # local disks, so READ is re-priced at network+disk rates.
        phases[1, remote] *= (network[remote] + read_local[remote]) / np.maximum(
            1e-9, read_hdfs[remote]
        )

    # A task's output per reduce partition: its representative's
    # fractions scaled by its volume, alike for every task of a group.
    partition_bytes = [
        fractions[rep][0] * float(v["materialized_bytes"])
        for (rep, _, _), v in zip(slots, volumes)
    ]
    partition_records = [
        fractions[rep][1] * float(v["spill_records"])
        for (rep, _, _), v in zip(slots, volumes)
    ]
    return MapTaskTable(
        integers=integers,
        phase_times=phases,
        rates=rates,
        profiled=profiled,
        partition_bytes=np.array(partition_bytes) if slots else np.zeros((0, 1)),
        partition_records=np.array(partition_records) if slots else np.zeros((0, 1)),
        group=group,
    )
