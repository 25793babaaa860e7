"""Per-task reference implementation of ``HadoopEngine.run_job``.

The engine prices all of a run's tasks as columns (``price_map_tasks`` /
``price_reduce_tasks``) and the profiler aggregates those columns.  This
module keeps the per-task code they replaced — one placement draw and one
rate draw (``reference_node_for_task`` / ``reference_sample_rates``) and one
``reference_simulate_map_task`` / ``reference_simulate_reduce_task`` call
per task, per-task records, scheduling, telemetry and counter merging,
and the profiler's per-task aggregation — as the oracle the columnar path
must match bit for bit.
"""

from __future__ import annotations

import heapq
import math
import statistics as stats
from dataclasses import astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.hadoop.cluster import ClusterSpec, CostRates, TaskRates, WorkerNode
from repro.hadoop.config import JobConfiguration
from repro.hadoop.counters import FRAMEWORK_GROUP, Counters
from repro.hadoop.dataset import Dataset, InputSplit
from repro.hadoop.engine import DEFAULT_PROFILING_OVERHEAD, HadoopEngine
from repro.hadoop.job import MapReduceJob
from repro.hadoop.mapper_engine import (
    COLLECT_CPU_FRACTION,
    COMPARE_CPU_FRACTION,
    HEAP_SORT_FRACTION,
    INTERMEDIATE_COMPRESSION_RATIO,
    MERGE_READ_CPU_FRACTION,
    META_BYTES_PER_RECORD,
    OP_CPU_FRACTION,
    READER_CPU_FRACTION,
    SPILL_SER_CPU_FRACTION,
    TASK_CLEANUP_SECONDS,
    TASK_SETUP_SECONDS,
    MapSampleMeasurement,
)
from repro.hadoop.reducer_engine import (
    OUTPUT_COMPRESSION_RATIO,
    REDUCE_FEED_CPU_FRACTION,
    SHUFFLE_CPU_FRACTION,
    WRITE_SER_CPU_FRACTION,
    ReduceSampleMeasurement,
)
from repro.hadoop.scheduler import ScheduleResult, _list_schedule
from repro.hadoop.tasks import (
    MAP_PHASES,
    REDUCE_PHASES,
    MapTaskExecution,
    ReduceTaskExecution,
)
from repro.observability import (
    SIM_SECONDS_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from repro.starfish.profile import SideProfile


def exact(value):
    """A comparable rendering that tells every float and array apart."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("dict", [(key, exact(item)) for key, item in value.items()])
    if isinstance(value, CostRates):
        return ("rates", [exact(item) for item in astuple(value)])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(item) for item in value])
    if hasattr(value, "to_dict"):  # Counters
        return ("counters", exact(value.to_dict()))
    return (type(value).__name__, value)


def exact_record(task) -> dict:
    """Every field of a task record (and its duration), rendered exactly."""
    return {
        **{f.name: exact(getattr(task, f.name)) for f in fields(task)},
        "duration": exact(task.duration),
    }


def reference_node_for_task(
    cluster: ClusterSpec, task_index: int, rng: np.random.Generator
) -> WorkerNode:
    """Pick the node a task lands on, uniformly at random."""
    del task_index  # placement is independent of the task index
    return cluster.workers[int(rng.integers(0, len(cluster.workers)))]


def reference_sample_rates(node: WorkerNode, rng: np.random.Generator) -> CostRates:
    """Draw effective cost rates for one task execution on *node*.

    Disk, network and CPU draw independent log-normal factors, in that
    order, each one scalar draw.
    """
    disk = float(rng.lognormal(mean=0.0, sigma=node.utilization_sigma))
    net = float(rng.lognormal(mean=0.0, sigma=node.utilization_sigma))
    cpu = float(rng.lognormal(mean=0.0, sigma=node.utilization_sigma))
    rates = node.base_rates
    return CostRates(
        read_hdfs_ns_per_byte=rates.read_hdfs_ns_per_byte * disk,
        write_hdfs_ns_per_byte=rates.write_hdfs_ns_per_byte * disk,
        read_local_ns_per_byte=rates.read_local_ns_per_byte * disk,
        write_local_ns_per_byte=rates.write_local_ns_per_byte * disk,
        network_ns_per_byte=rates.network_ns_per_byte * net,
        cpu_ns_per_record=rates.cpu_ns_per_record * cpu,
        compress_ns_per_byte=rates.compress_ns_per_byte * cpu,
        decompress_ns_per_byte=rates.decompress_ns_per_byte * cpu,
    )


def one_task_rates(
    cluster: ClusterSpec, worker: int, rng: np.random.Generator
) -> TaskRates:
    """Rates of one task on ``cluster.workers[worker]``, drawn as
    :func:`reference_sample_rates` draws them."""
    return TaskRates(
        worker=np.array([worker]),
        rates=np.array(
            astuple(reference_sample_rates(cluster.workers[worker], rng))
        )[:, None],
    )


@dataclass
class ReferenceExecution:
    """What the per-task ``run_job`` returned: task records in lists."""

    input_bytes: int
    map_tasks: list[MapTaskExecution]
    reduce_tasks: list[ReduceTaskExecution]
    runtime_seconds: float
    counters: Counters = field(default_factory=Counters)
    sampled: bool = False


def reference_simulate_map_task(
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
    rates = reference_sample_rates(node, rng)
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


def reference_simulate_reduce_task(
    task_id: int,
    partition: int,
    shuffle_bytes: float,
    shuffle_records: float,
    measurement: ReduceSampleMeasurement,
    num_map_tasks: int,
    config: JobConfiguration,
    node: WorkerNode,
    rng: np.random.Generator,
    profiled: bool = False,
    profiling_overhead: float = 0.0,
) -> ReduceTaskExecution:
    """Price one reduce task's phases.

    Args:
        shuffle_bytes: nominal on-the-wire bytes shuffled to this reducer
            (post map-output compression).
        shuffle_records: nominal intermediate records for this reducer.
        measurement: reduce-side sample measurement for the job.
        num_map_tasks: map tasks feeding the shuffle (drives in-memory
            merge rounds through ``mapred.inmem.merge.threshold``).
    """
    rates = reference_sample_rates(node, rng)
    op_ns = rates.cpu_ns_per_record * OP_CPU_FRACTION

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
    # SHUFFLE: fetch map outputs over the network (+ decompression).
    # ------------------------------------------------------------------
    shuffle_s = (
        shuffle_bytes * rates.network_ns_per_byte
        + shuffle_records * rates.cpu_ns_per_record * SHUFFLE_CPU_FRACTION
    ) / 1e9
    if config.compress_map_output:
        shuffle_s += plain_bytes * rates.decompress_ns_per_byte / 1e9

    # ------------------------------------------------------------------
    # SORT: in-memory merges plus disk merge passes when the shuffle
    # buffer overflows the reduce-side heap.
    # ------------------------------------------------------------------
    buffer_bytes = node.task_heap_bytes * config.shuffle_input_buffer_percent
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

    sort_io_bytes = disk_merge_passes * overflow_bytes
    # Data retained in memory for the reduce phase skips the final disk read.
    retained_bytes = node.task_heap_bytes * config.reduce_input_buffer_percent
    final_read_bytes = max(0.0, overflow_bytes - retained_bytes)

    compare_ns = rates.cpu_ns_per_record * COMPARE_CPU_FRACTION
    sort_cpu_ns = inmem_merges and input_records * compare_ns * math.log2(
        max(2, input_records / max(1, inmem_merges))
    )
    sort_s = (
        sort_io_bytes
        * (rates.read_local_ns_per_byte + rates.write_local_ns_per_byte)
        + final_read_bytes * rates.read_local_ns_per_byte
        + float(sort_cpu_ns)
    ) / 1e9

    # ------------------------------------------------------------------
    # REDUCE: feed groups through the user reduce function.
    # ------------------------------------------------------------------
    reduce_s = (
        input_records * rates.cpu_ns_per_record * REDUCE_FEED_CPU_FRACTION
        + user_ops * op_ns
    ) / 1e9

    # ------------------------------------------------------------------
    # WRITE: final output to HDFS (x3 replication folded into the rate).
    # ------------------------------------------------------------------
    if config.compress_output:
        materialized_bytes = int(round(output_bytes * OUTPUT_COMPRESSION_RATIO))
        write_cpu_s = output_bytes * rates.compress_ns_per_byte / 1e9
    else:
        materialized_bytes = output_bytes
        write_cpu_s = 0.0
    write_s = (
        materialized_bytes * rates.write_hdfs_ns_per_byte
        + output_records * rates.cpu_ns_per_record * WRITE_SER_CPU_FRACTION
    ) / 1e9 + write_cpu_s

    phase_times = {
        "SETUP": TASK_SETUP_SECONDS,
        "SHUFFLE": shuffle_s,
        "SORT": sort_s,
        "REDUCE": reduce_s,
        "WRITE": write_s,
        "CLEANUP": TASK_CLEANUP_SECONDS,
    }
    if profiled and profiling_overhead > 0:
        for phase in ("SHUFFLE", "SORT", "REDUCE", "WRITE"):
            phase_times[phase] *= 1.0 + profiling_overhead

    task = ReduceTaskExecution(
        task_id=task_id,
        partition=partition,
        node_id=node.node_id,
        shuffle_bytes=int(round(shuffle_bytes)),
        shuffle_records=input_records,
        reduce_input_records=input_records,
        reduce_input_groups=groups,
        output_records=output_records,
        output_bytes=output_bytes,
        materialized_bytes=materialized_bytes,
        disk_merge_passes=disk_merge_passes,
        user_ops=user_ops,
        phase_times=phase_times,
        rates=rates,
        profiled=profiled,
    )
    task.counters.increment(FRAMEWORK_GROUP, "REDUCE_SHUFFLE_BYTES", task.shuffle_bytes)
    task.counters.increment(FRAMEWORK_GROUP, "REDUCE_INPUT_RECORDS", input_records)
    task.counters.increment(FRAMEWORK_GROUP, "REDUCE_INPUT_GROUPS", groups)
    task.counters.increment(FRAMEWORK_GROUP, "REDUCE_OUTPUT_RECORDS", output_records)
    return task


def _reference_schedule_metrics(
    registry: MetricsRegistry | None,
    result: ScheduleResult,
    map_tasks: list[MapTaskExecution],
    reduce_tasks: list[ReduceTaskExecution],
    map_slots: int,
    reduce_slots: int,
) -> None:
    """Wave-count and slot-occupancy gauges for one scheduled job.

    Occupancy is busy-slot-time over available-slot-time within the phase
    window, i.e. how well the wave structure packs the slots.
    """
    registry = get_registry(registry)
    registry.gauge(
        "hadoop_scheduler_map_waves", "map waves of the last scheduled job"
    ).set(math.ceil(len(map_tasks) / map_slots) if map_tasks else 0)
    registry.gauge(
        "hadoop_scheduler_reduce_waves",
        "reduce waves of the last scheduled job",
    ).set(math.ceil(len(reduce_tasks) / reduce_slots) if reduce_tasks else 0)

    map_busy = sum(t.duration for t in map_tasks)
    map_window = map_slots * result.map_makespan
    registry.gauge(
        "hadoop_scheduler_map_slot_occupancy",
        "busy map-slot time / available map-slot time, last job",
    ).set(map_busy / map_window if map_window > 0 else 0.0)

    reduce_busy = sum(t.duration for t in reduce_tasks)
    reduce_window = reduce_slots * (result.runtime_seconds - result.slowstart_time)
    registry.gauge(
        "hadoop_scheduler_reduce_slot_occupancy",
        "busy reduce-slot time / available reduce-slot time, last job",
    ).set(reduce_busy / reduce_window if reduce_window > 0 else 0.0)


def reference_schedule_job(
    map_tasks: list[MapTaskExecution],
    reduce_tasks: list[ReduceTaskExecution],
    map_slots: int,
    reduce_slots: int,
    config: JobConfiguration,
    registry: MetricsRegistry | None = None,
) -> ScheduleResult:
    """Compute the job timeline from per-task phase durations.

    Reduce tasks of the first wave start at the slowstart point and overlap
    their SHUFFLE phase with the map tail; a reducer's shuffle cannot
    complete before the map makespan.  Later reduce waves start when slots
    free up, by which time all map outputs exist.
    """
    map_finishes = _list_schedule([t.duration for t in map_tasks], map_slots)
    map_makespan = max(map_finishes, default=0.0)

    if not reduce_tasks:
        result = ScheduleResult(
            map_finish_times=tuple(map_finishes),
            reduce_finish_times=(),
            map_makespan=map_makespan,
            runtime_seconds=map_makespan,
            slowstart_time=map_makespan,
        )
        _reference_schedule_metrics(
            registry, result, map_tasks, reduce_tasks, map_slots, reduce_slots
        )
        return result

    # Time when the slowstart fraction of maps has completed.
    ordered = sorted(map_finishes)
    threshold_index = min(
        len(ordered) - 1,
        max(0, int(round(config.reduce_slowstart * len(ordered))) - 1),
    )
    slowstart_time = ordered[threshold_index] if config.reduce_slowstart > 0 else 0.0

    slots = [slowstart_time] * min(reduce_slots, len(reduce_tasks))
    heapq.heapify(slots)
    reduce_finishes = []
    for task in reduce_tasks:
        start = heapq.heappop(slots)
        setup_end = start + task.phase_times.get("SETUP", 0.0)
        shuffle_end = setup_end + task.phase_times.get("SHUFFLE", 0.0)
        # The final map output only exists at map_makespan; shuffles that
        # would finish earlier stall until then.
        shuffle_end = max(shuffle_end, map_makespan)
        rest = sum(
            task.phase_times.get(phase, 0.0)
            for phase in ("SORT", "REDUCE", "WRITE", "CLEANUP")
        )
        finish = shuffle_end + rest
        reduce_finishes.append(finish)
        heapq.heappush(slots, finish)

    runtime = max(max(reduce_finishes), map_makespan)
    result = ScheduleResult(
        map_finish_times=tuple(map_finishes),
        reduce_finish_times=tuple(reduce_finishes),
        map_makespan=map_makespan,
        runtime_seconds=runtime,
        slowstart_time=slowstart_time,
    )
    _reference_schedule_metrics(
        registry, result, map_tasks, reduce_tasks, map_slots, reduce_slots
    )
    return result


def reference_run_job(
    engine: HadoopEngine,
    job: MapReduceJob,
    dataset: Dataset,
    config: JobConfiguration | None = None,
    map_task_ids: Sequence[int] | None = None,
    profile: bool = False,
    profiling_overhead: float = DEFAULT_PROFILING_OVERHEAD,
    seed: int = 0,
) -> ReferenceExecution:
    """Execute *job* on *dataset* under *config*.

    Args:
        map_task_ids: if given, only these map tasks run (the Starfish
            sampler's mode of operation — other input splits are
            dropped and the reducers process only the sampled output).
        profile: whether tasks run with the profiler attached, which
            inflates their phase times by *profiling_overhead*.
        seed: seed for node placement and utilization noise.

    Returns:
        A :class:`JobExecution` with per-task phase breakdowns and the
        scheduled job runtime.
    """
    if config is None:
        config = JobConfiguration()
    registry = get_registry(engine.registry)
    tracer = get_tracer(engine.tracer)
    with tracer.span(
        "hadoop.run_job", job=job.name, dataset=dataset.name, seed=seed
    ):
        execution = _reference_run_job_inner(
            engine,
            job, dataset, config, map_task_ids, profile,
            profiling_overhead, seed, registry, tracer,
        )
    registry.counter(
        "hadoop_engine_jobs_total", "jobs executed by the engine"
    ).inc()
    registry.histogram(
        "hadoop_engine_job_runtime_seconds",
        "simulated job runtimes",
        buckets=SIM_SECONDS_BUCKETS,
    ).observe(execution.runtime_seconds)
    return execution


def _reference_run_job_inner(
    engine: HadoopEngine,
    job: MapReduceJob,
    dataset: Dataset,
    config: JobConfiguration,
    map_task_ids: Sequence[int] | None,
    profile: bool,
    profiling_overhead: float,
    seed: int,
    registry: MetricsRegistry,
    tracer: Tracer,
) -> ReferenceExecution:
    rng = np.random.default_rng(seed)

    splits = dataset.splits()
    if map_task_ids is None:
        executed_ids = list(range(len(splits)))
        sampled = False
    else:
        executed_ids = sorted(set(map_task_ids))
        for task_id in executed_ids:
            if not 0 <= task_id < len(splits):
                raise IndexError(f"map task {task_id} out of range")
        sampled = True

    measurements = engine.map_measurements(job, dataset)
    combined = config.use_combiner and job.has_combiner
    num_partitions = max(1, config.num_reduce_tasks) if job.has_reducer else 0

    # Fractions only for the representatives the executed tasks use.
    fractions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    map_tasks: list[MapTaskExecution] = []
    for task_id in executed_ids:
        rep = task_id % len(measurements)
        if rep not in fractions:
            fractions[rep] = (
                engine.split_fractions(
                    job, dataset, measurements[rep], num_partitions, combined
                )
                if num_partitions
                else (np.zeros(1), np.zeros(1))
            )
        node = reference_node_for_task(engine.cluster, task_id, rng)
        task = reference_simulate_map_task(
            task_id=task_id,
            split=splits[task_id],
            measurement=measurements[rep],
            job=job,
            config=config,
            node=node,
            rng=rng,
            fractions=fractions[rep],
            profiled=profile,
            profiling_overhead=profiling_overhead,
        )
        map_tasks.append(task)

    reduce_tasks: list[ReduceTaskExecution] = []
    if job.has_reducer and num_partitions:
        reduce_measurement = engine.reduce_measurement(job, dataset, combined)
        shuffle_bytes = np.zeros(num_partitions)
        shuffle_records = np.zeros(num_partitions)
        for task in map_tasks:
            shuffle_bytes += task.partition_bytes
            shuffle_records += task.partition_records
        for partition in range(num_partitions):
            node = reference_node_for_task(engine.cluster, partition, rng)
            reduce_tasks.append(
                reference_simulate_reduce_task(
                    task_id=len(map_tasks) + partition,
                    partition=partition,
                    shuffle_bytes=float(shuffle_bytes[partition]),
                    shuffle_records=float(shuffle_records[partition]),
                    measurement=reduce_measurement,
                    num_map_tasks=len(map_tasks),
                    config=config,
                    node=node,
                    rng=rng,
                    profiled=profile,
                    profiling_overhead=profiling_overhead,
                )
            )

    schedule = reference_schedule_job(
        map_tasks,
        reduce_tasks,
        engine.cluster.total_map_slots,
        engine.cluster.total_reduce_slots,
        config,
        registry=registry,
    )
    _reference_schedule_trace(
        registry, tracer, map_tasks, reduce_tasks, schedule
    )

    counters = Counters()
    for task in map_tasks:
        counters.merge(task.counters)
    for task in reduce_tasks:
        counters.merge(task.counters)

    return ReferenceExecution(
        input_bytes=sum(splits[i].nominal_bytes for i in executed_ids),
        map_tasks=map_tasks,
        reduce_tasks=reduce_tasks,
        runtime_seconds=schedule.runtime_seconds,
        counters=counters,
        sampled=sampled,
    )


def _reference_schedule_trace(
    registry: MetricsRegistry,
    tracer: Tracer,
    map_tasks: list[MapTaskExecution],
    reduce_tasks: list[ReduceTaskExecution],
    schedule,
) -> None:
    """Emit simulated-time spans and task histograms for one schedule.

    Everything recorded here lives on the *simulated* clock, so the
    trace of a seeded run is deterministic (the property tests rely
    on that).
    """
    map_hist = registry.histogram(
        "hadoop_engine_map_task_seconds",
        "simulated map task durations",
        buckets=SIM_SECONDS_BUCKETS,
    )
    for task in map_tasks:
        map_hist.observe(task.duration)
    reduce_hist = registry.histogram(
        "hadoop_engine_reduce_task_seconds",
        "simulated reduce task durations",
        buckets=SIM_SECONDS_BUCKETS,
    )
    for task in reduce_tasks:
        reduce_hist.observe(task.duration)
    registry.counter(
        "hadoop_engine_map_tasks_total", "map tasks simulated"
    ).inc(len(map_tasks))
    registry.counter(
        "hadoop_engine_reduce_tasks_total", "reduce tasks simulated"
    ).inc(len(reduce_tasks))

    if not tracer.enabled:
        return
    for task, finish in zip(map_tasks, schedule.map_finish_times):
        tracer.record_span(
            "hadoop.map_task",
            start=max(0.0, finish - task.duration),
            end=finish,
            attrs={"task_id": task.task_id, "node_id": task.node_id},
        )
    for task, finish in zip(reduce_tasks, schedule.reduce_finish_times):
        tracer.record_span(
            "hadoop.reduce_task",
            start=max(0.0, finish - task.duration),
            end=finish,
            attrs={"task_id": task.task_id, "partition": task.partition},
        )
    if map_tasks:
        tracer.record_span(
            "hadoop.phase.map", start=0.0, end=schedule.map_makespan,
            attrs={"tasks": len(map_tasks)},
        )
    if reduce_tasks:
        # The shuffle window: reducers start pulling at slowstart and
        # cannot finish before the last map output exists.
        tracer.record_span(
            "hadoop.phase.shuffle",
            start=schedule.slowstart_time,
            end=max(schedule.map_makespan, schedule.slowstart_time),
            attrs={"tasks": len(reduce_tasks)},
        )
        tracer.record_span(
            "hadoop.phase.reduce",
            start=schedule.slowstart_time,
            end=schedule.runtime_seconds,
            attrs={"tasks": len(reduce_tasks)},
        )


def reference_phase_totals(tasks, phases) -> dict[str, float]:
    """Summed phase times across task records, added task by task."""
    totals = {phase: 0.0 for phase in phases}
    for task in tasks:
        for phase, seconds in task.phase_times.items():
            totals[phase] += seconds
    return totals


def _reference_mean(values: list[float]) -> float:
    return stats.fmean(values) if values else 0.0


def reference_map_side_profile(
    execution: ReferenceExecution, config: JobConfiguration
) -> SideProfile:
    tasks = execution.map_tasks
    total_in_bytes = sum(t.input_bytes for t in tasks)
    total_in_records = sum(t.input_records for t in tasks)
    total_out_bytes = sum(t.map_output_bytes for t in tasks)
    total_out_records = sum(t.map_output_records for t in tasks)

    combine_in = sum(t.combine_input_records for t in tasks)
    combine_out = sum(t.combine_output_records for t in tasks)
    if combine_in > 0:
        combine_pairs_sel = combine_out / combine_in
        combine_size_sel = (
            sum(t.spill_bytes for t in tasks) / max(1, total_out_bytes)
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
    read_costs = []
    read_local_costs = []
    write_local_costs = []
    map_cpu_costs = []
    combine_cpu_costs = []
    for task in tasks:
        cpu = task.rates.cpu_ns_per_record
        read_cost = task.rates.read_hdfs_ns_per_byte
        if task.input_bytes:
            read_cost += READER_CPU_FRACTION * cpu * task.input_records / task.input_bytes
        read_costs.append(read_cost)

        read_local_cost = task.rates.read_local_ns_per_byte
        if task.materialized_bytes:
            read_local_cost += (
                MERGE_READ_CPU_FRACTION
                * cpu
                * task.spill_records
                / task.materialized_bytes
            )
        read_local_costs.append(read_local_cost)

        write_cost = task.rates.write_local_ns_per_byte
        if task.materialized_bytes:
            write_cost += (
                SPILL_SER_CPU_FRACTION
                * cpu
                * task.spill_records
                / task.materialized_bytes
            )
        write_local_costs.append(write_cost)

        if task.input_records:
            map_cpu_costs.append(
                task.phase_times["MAP"] * 1e9 / task.input_records
            )
        if task.combine_input_records:
            op_ns = cpu * OP_CPU_FRACTION
            combine_cpu_costs.append(
                task.combine_ops * op_ns / task.combine_input_records
            )
    cost_factors = {
        "READ_HDFS_IO_COST": _reference_mean(read_costs),
        "READ_LOCAL_IO_COST": _reference_mean(read_local_costs),
        "WRITE_LOCAL_IO_COST": _reference_mean(write_local_costs),
        "MAP_CPU_COST": _reference_mean(map_cpu_costs),
        "COMBINE_CPU_COST": _reference_mean(combine_cpu_costs),
    }

    statistics = {
        "INPUT_RECORD_BYTES": total_in_bytes / max(1, total_in_records),
        "INTERMEDIATE_RECORD_BYTES": total_out_bytes / max(1, total_out_records),
        "FRAMEWORK_CPU_COST": _reference_mean([t.rates.cpu_ns_per_record for t in tasks]),
        "NETWORK_COST": _reference_mean([t.rates.network_ns_per_byte for t in tasks]),
        "COMPRESS_CPU_COST": _reference_mean([t.rates.compress_ns_per_byte for t in tasks]),
        "DECOMPRESS_CPU_COST": _reference_mean([t.rates.decompress_ns_per_byte for t in tasks]),
        "HAS_COMBINER": has_combiner,
    }

    phase_times = {
        phase: _reference_mean([t.phase_times.get(phase, 0.0) for t in tasks])
        for phase in MAP_PHASES
    }
    return SideProfile(
        side="map",
        data_flow=data_flow,
        cost_factors=cost_factors,
        statistics=statistics,
        phase_times=phase_times,
        num_tasks=len(tasks),
    )


def reference_reduce_side_profile(
    execution: ReferenceExecution, config: JobConfiguration
) -> SideProfile | None:
    tasks = execution.reduce_tasks
    if not tasks:
        return None

    wire_bytes = [float(t.shuffle_bytes) for t in tasks]
    if config.compress_map_output:
        plain_bytes = [b / INTERMEDIATE_COMPRESSION_RATIO for b in wire_bytes]
    else:
        plain_bytes = wire_bytes
    total_in_bytes = sum(plain_bytes)
    total_in_records = sum(t.reduce_input_records for t in tasks)
    total_groups = sum(t.reduce_input_groups for t in tasks)
    total_out_records = sum(t.output_records for t in tasks)
    total_out_bytes = sum(t.output_bytes for t in tasks)

    data_flow = {
        "RED_SIZE_SEL": total_out_bytes / max(1.0, total_in_bytes),
        "RED_PAIRS_SEL": total_out_records / max(1, total_in_records),
    }

    reduce_cpu_costs = [
        t.phase_times["REDUCE"] * 1e9 / t.reduce_input_records
        for t in tasks
        if t.reduce_input_records
    ]
    write_hdfs_costs = []
    network_costs = []
    for task in tasks:
        cpu = task.rates.cpu_ns_per_record
        write_cost = task.rates.write_hdfs_ns_per_byte
        if task.materialized_bytes:
            write_cost += (
                WRITE_SER_CPU_FRACTION
                * cpu
                * task.output_records
                / task.materialized_bytes
            )
        write_hdfs_costs.append(write_cost)

        network_cost = task.rates.network_ns_per_byte
        if task.shuffle_bytes:
            network_cost += (
                SHUFFLE_CPU_FRACTION * cpu * task.shuffle_records / task.shuffle_bytes
            )
        network_costs.append(network_cost)
    cost_factors = {
        "READ_LOCAL_IO_COST": _reference_mean([t.rates.read_local_ns_per_byte for t in tasks]),
        "WRITE_LOCAL_IO_COST": _reference_mean([t.rates.write_local_ns_per_byte for t in tasks]),
        "WRITE_HDFS_IO_COST": _reference_mean(write_hdfs_costs),
        "REDUCE_CPU_COST": _reference_mean(reduce_cpu_costs),
    }

    mean_wire = _reference_mean(wire_bytes)
    skew = max(wire_bytes) / mean_wire if mean_wire > 0 else 1.0
    statistics = {
        "RECORDS_PER_GROUP": total_in_records / max(1, total_groups),
        "OUT_RECORDS_PER_GROUP": total_out_records / max(1, total_groups),
        "OUTPUT_RECORD_BYTES": total_out_bytes / max(1, total_out_records),
        "REDUCE_SKEW": skew,
        "FRAMEWORK_CPU_COST": _reference_mean([t.rates.cpu_ns_per_record for t in tasks]),
        "NETWORK_COST": _reference_mean(network_costs),
        "COMPRESS_CPU_COST": _reference_mean([t.rates.compress_ns_per_byte for t in tasks]),
        "DECOMPRESS_CPU_COST": _reference_mean([t.rates.decompress_ns_per_byte for t in tasks]),
    }

    phase_times = {
        phase: _reference_mean([t.phase_times.get(phase, 0.0) for t in tasks])
        for phase in REDUCE_PHASES
    }
    return SideProfile(
        side="reduce",
        data_flow=data_flow,
        cost_factors=cost_factors,
        statistics=statistics,
        phase_times=phase_times,
        num_tasks=len(tasks),
    )
