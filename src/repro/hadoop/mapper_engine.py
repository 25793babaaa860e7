"""Map-task execution: run the user mapper on sample records, extrapolate.

A map task executes in two layers:

1. **Measurement** (:func:`measure_map_sample`): the user's map function
   (and combiner, if any) actually runs over the materialized sample records
   of an input split.  This yields the task's *data flow* behaviour —
   selectivities, record sizes, key distribution, user-op counts — which is
   a property of the program and the data, independent of configuration and
   of the node the task lands on.  Measurements are therefore cacheable.

2. **Simulation** (:func:`simulate_map_task`): given a measurement, a
   configuration, and a node's (noisy) cost rates, reproduce Hadoop 0.20's
   map-side pipeline arithmetic — serialization buffer fills governed by
   ``io.sort.mb`` / ``io.sort.record.percent`` / ``io.sort.spill.percent``,
   spill counts, combiner application, optional compression, and external
   merge passes governed by ``io.sort.factor`` — and price each phase with
   the node's cost rates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .cluster import WorkerNode
from .config import JobConfiguration
from .counters import FRAMEWORK_GROUP
from .dataset import Dataset, InputSplit
from .job import MapReduceJob
from .records import pair_size
from .tasks import MapTaskExecution

__all__ = [
    "KeyAggregate",
    "MapSampleMeasurement",
    "measure_map_sample",
    "partition_fractions",
    "simulate_map_task",
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


def _aggregate_keys(pairs: Iterable[tuple[Any, Any]]) -> KeyAggregate:
    """Group *pairs* by ``repr(key)`` into per-key byte and pair totals."""
    slot_of: dict[str, int] = {}
    keys: list[Any] = []
    byte_totals: list[int] = []
    record_counts: list[int] = []
    for key, value in pairs:
        slot = slot_of.setdefault(repr(key), len(keys))
        if slot == len(keys):
            keys.append(key)
            byte_totals.append(0)
            record_counts.append(0)
        byte_totals[slot] += pair_size(key, value)
        record_counts[slot] += 1
    aggregate = KeyAggregate(
        keys=tuple(keys),
        byte_totals=np.array(byte_totals, dtype=float),
        record_counts=np.array(record_counts, dtype=float),
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
    sample_combined_pairs: tuple[tuple[Any, Any], ...]
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
            lambda: _aggregate_keys(self.intermediate_pairs(combined)),
        )


def measure_map_sample(
    job: MapReduceJob, dataset: Dataset, split_index: int
) -> MapSampleMeasurement:
    """Run the mapper (and combiner) over one split's sample records."""
    records = dataset.materialize(split_index)
    sample_input_bytes = dataset.sample_split_bytes(records)

    context = job.make_context()
    for key, value in records:
        job.mapper(key, value, context)
        context.counters.increment(FRAMEWORK_GROUP, "MAP_INPUT_RECORDS")

    map_pairs = tuple(context.pairs)
    combined_pairs = map_pairs
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

    return MapSampleMeasurement(
        split_index=split_index,
        sample_input_records=len(records),
        sample_input_bytes=sample_input_bytes,
        sample_output_records=context.records_out,
        sample_output_bytes=context.bytes_out,
        sample_user_ops=context.ops,
        sample_input_head=tuple(records[:INPUT_HEAD_RECORDS]),
        sample_map_pairs=map_pairs,
        sample_combined_pairs=combined_pairs,
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


def simulate_map_task(
    task_id: int,
    split: InputSplit,
    measurement: MapSampleMeasurement,
    job: MapReduceJob,
    config: JobConfiguration,
    node: WorkerNode,
    rng: np.random.Generator,
    fractions: tuple[np.ndarray, np.ndarray],
    profiled: bool = False,
    profiling_overhead: float = 0.0,
) -> MapTaskExecution:
    """Price one map task's phases from a measurement and node rates.

    Args:
        fractions: the precomputed output of :func:`partition_fractions`
            for this measurement under this configuration's reducer count
            and combiner setting.
    """
    rates = node.sample_rates(rng)
    scale = split.nominal_bytes / max(1, measurement.sample_input_bytes)

    input_records = max(1, round(measurement.sample_input_records * scale))
    input_bytes = split.nominal_bytes
    map_output_records = round(measurement.sample_output_records * scale)
    map_output_bytes = round(measurement.sample_output_bytes * scale)
    user_ops = round(measurement.sample_user_ops * scale)

    combine_enabled = config.use_combiner and job.has_combiner
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
            int(node.task_heap_bytes * HEAP_SORT_FRACTION),
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

    byte_frac, record_frac = fractions
    partition_bytes = byte_frac * float(materialized_bytes)
    partition_records = record_frac * float(spill_records)

    # ------------------------------------------------------------------
    # Phase timing.
    # ------------------------------------------------------------------
    op_ns = rates.cpu_ns_per_record * OP_CPU_FRACTION
    read_s = (
        input_bytes * rates.read_hdfs_ns_per_byte
        + input_records * rates.cpu_ns_per_record * READER_CPU_FRACTION
    ) / 1e9
    map_s = (input_records * rates.cpu_ns_per_record + user_ops * op_ns) / 1e9

    sort_compares = 0.0
    if num_spills > 0 and records_per_spill > 1:
        sort_compares = map_output_records * math.log2(records_per_spill)
    collect_s = (
        map_output_records * rates.cpu_ns_per_record * COLLECT_CPU_FRACTION
        + sort_compares * rates.cpu_ns_per_record * COMPARE_CPU_FRACTION
    ) / 1e9

    spill_io_s = (
        materialized_bytes * rates.write_local_ns_per_byte
        + spill_records * rates.cpu_ns_per_record * SPILL_SER_CPU_FRACTION
    ) / 1e9
    spill_cpu_ns = combine_ops * op_ns
    if config.compress_map_output:
        spill_cpu_ns += spill_bytes * rates.compress_ns_per_byte
    spill_s = spill_io_s + spill_cpu_ns / 1e9

    merge_io_bytes = merge_passes * materialized_bytes
    merge_s = (
        merge_io_bytes
        * (rates.read_local_ns_per_byte + rates.write_local_ns_per_byte)
        + merge_passes
        * spill_records
        * rates.cpu_ns_per_record
        * MERGE_READ_CPU_FRACTION
    ) / 1e9
    if config.compress_map_output and merge_passes > 0:
        merge_s += (
            merge_passes
            * spill_bytes
            * (rates.decompress_ns_per_byte + rates.compress_ns_per_byte)
            / 1e9
        )

    phase_times = {
        "SETUP": TASK_SETUP_SECONDS,
        "READ": read_s,
        "MAP": map_s,
        "COLLECT": collect_s,
        "SPILL": spill_s,
        "MERGE": merge_s,
        "CLEANUP": TASK_CLEANUP_SECONDS,
    }
    if profiled and profiling_overhead > 0:
        for phase in ("READ", "MAP", "COLLECT", "SPILL", "MERGE"):
            phase_times[phase] *= 1.0 + profiling_overhead

    task = MapTaskExecution(
        task_id=task_id,
        split_index=split.index,
        node_id=node.node_id,
        input_records=input_records,
        input_bytes=input_bytes,
        map_output_records=map_output_records,
        map_output_bytes=map_output_bytes,
        spill_records=spill_records,
        spill_bytes=spill_bytes,
        materialized_bytes=materialized_bytes,
        num_spills=num_spills,
        merge_passes=merge_passes,
        combine_input_records=map_output_records if combine_enabled else 0,
        combine_output_records=spill_records if combine_enabled else 0,
        combine_ops=combine_ops,
        partition_bytes=partition_bytes,
        partition_records=partition_records,
        user_ops=user_ops,
        phase_times=phase_times,
        rates=rates,
        profiled=profiled,
    )
    task.counters.increment(FRAMEWORK_GROUP, "MAP_INPUT_RECORDS", input_records)
    task.counters.increment(FRAMEWORK_GROUP, "MAP_INPUT_BYTES", input_bytes)
    task.counters.increment(FRAMEWORK_GROUP, "MAP_OUTPUT_RECORDS", map_output_records)
    task.counters.increment(FRAMEWORK_GROUP, "MAP_OUTPUT_BYTES", map_output_bytes)
    if num_spills > 0:
        task.counters.increment(FRAMEWORK_GROUP, "SPILLED_RECORDS", spill_records)
    return task
