"""HadoopEngine: the simulator façade.

``HadoopEngine.run_job`` executes an MR job — really executes the user's
map/reduce/combine callables over materialized sample records, then
extrapolates volumes to the dataset's nominal size and prices every task's
phases on the cluster model.  Measurements (the expensive part: running user
code) are cached per (job, dataset, split), so re-running the same job under
a different configuration only re-prices the pipeline arithmetic, exactly
like re-submitting a job to a real cluster re-uses the same input data.
The per-reducer output split of each measurement is cached beside it, per
(partitioner, reducer count, combiner setting).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, Sequence

import numpy as np

from ..observability import (
    SIM_SECONDS_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from .cluster import ClusterSpec
from .config import JobConfiguration
from .counters import Counters
from .dataset import Dataset
from .job import MapReduceJob
from .mapper_engine import (
    MapSampleMeasurement,
    measure_map_sample,
    partition_fractions,
    simulate_map_task,
)
from .reducer_engine import (
    ReduceSampleMeasurement,
    measure_reduce_from_pairs,
    simulate_reduce_task,
)
from .scheduler import schedule_job
from .tasks import JobExecution, MapTaskExecution, ReduceTaskExecution

__all__ = ["HadoopEngine"]

#: Relative slowdown of a profiled task (dynamic instrumentation cost).
DEFAULT_PROFILING_OVERHEAD = 0.10


def _job_key(job: MapReduceJob, dataset: Dataset) -> tuple:
    params = tuple(sorted((str(k), repr(v)) for k, v in job.params.items()))
    return (job.name, params, dataset.name)


class HadoopEngine:
    """Simulated Hadoop cluster executing MapReduce jobs.

    Args:
        cluster: the cluster model tasks run on.
        representative_splits: number of distinct splits whose sample
            records are materialized and run through the user functions;
            remaining map tasks reuse these measurements round-robin (their
            *cost rates* still vary per task/node).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        representative_splits: int = 3,
        locality_aware: bool = False,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        measurement_workers: int = 1,
    ) -> None:
        self.cluster = cluster
        self.representative_splits = max(1, representative_splits)
        #: Threads used to measure uncached representative splits in
        #: parallel; 1 keeps measurement fully sequential.
        self.measurement_workers = max(1, measurement_workers)
        #: When True, HDFS block placement is modelled and map tasks that
        #: the locality-aware scheduler could not run node-local pay the
        #: remote-read penalty on their READ phase.
        self.locality_aware = locality_aware
        #: Observability sinks; None falls back to the module defaults.
        self.registry = registry
        self.tracer = tracer
        self._map_cache: dict[tuple, MapSampleMeasurement] = {}
        self._reduce_cache: dict[tuple, ReduceSampleMeasurement] = {}
        self._fractions_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Measurement layer
    # ------------------------------------------------------------------
    def measure_split(
        self, job: MapReduceJob, dataset: Dataset, split_index: int
    ) -> MapSampleMeasurement:
        """Measured map behaviour of one split (cached)."""
        key = (*_job_key(job, dataset), split_index)
        registry = get_registry(self.registry)
        measurement = self._map_cache.get(key)
        if measurement is None:
            registry.counter(
                "hadoop_engine_map_cache_misses_total",
                "map sample measurements computed (cache misses)",
            ).inc()
            measurement = measure_map_sample(job, dataset, split_index)
            self._map_cache[key] = measurement
        else:
            registry.counter(
                "hadoop_engine_map_cache_hits_total",
                "map sample measurements served from cache",
            ).inc()
        return measurement

    def representative_indices(self, dataset: Dataset) -> list[int]:
        """Evenly spaced split indices used as measurement representatives."""
        count = min(self.representative_splits, dataset.num_splits)
        if count == 1:
            return [0]
        positions = np.linspace(0, dataset.num_splits - 1, count)
        return sorted({int(round(p)) for p in positions})

    def map_measurements(
        self, job: MapReduceJob, dataset: Dataset
    ) -> list[MapSampleMeasurement]:
        """Measurements of all representative splits, in index order.

        When ``measurement_workers > 1`` and several splits are not yet
        cached, the uncached splits are measured concurrently; results are
        per-split deterministic, so the list is identical either way.
        """
        indices = self.representative_indices(dataset)
        if self.measurement_workers > 1:
            uncached = [
                index
                for index in indices
                if (*_job_key(job, dataset), index) not in self._map_cache
            ]
            if len(uncached) > 1:
                with ThreadPoolExecutor(
                    max_workers=min(self.measurement_workers, len(uncached)),
                    thread_name_prefix="split-measure",
                ) as pool:
                    list(
                        pool.map(
                            lambda index: self.measure_split(job, dataset, index),
                            uncached,
                        )
                    )
        return [
            self.measure_split(job, dataset, index) for index in indices
        ]

    def reduce_measurement(
        self, job: MapReduceJob, dataset: Dataset, combined: bool
    ) -> ReduceSampleMeasurement:
        """Measured reduce behaviour over the union of sample map outputs."""
        key = (*_job_key(job, dataset), "reduce", combined)
        registry = get_registry(self.registry)
        measurement = self._reduce_cache.get(key)
        if measurement is None:
            registry.counter(
                "hadoop_engine_reduce_cache_misses_total",
                "reduce sample measurements computed (cache misses)",
            ).inc()
            pairs: list[tuple[Any, Any]] = []
            for map_measurement in self.map_measurements(job, dataset):
                pairs.extend(map_measurement.intermediate_pairs(combined))
            measurement = measure_reduce_from_pairs(job, pairs)
            self._reduce_cache[key] = measurement
        else:
            registry.counter(
                "hadoop_engine_reduce_cache_hits_total",
                "reduce sample measurements served from cache",
            ).inc()
        return measurement

    def split_fractions(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        measurement: MapSampleMeasurement,
        num_partitions: int,
        combined: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`partition_fractions` of one split's measurement (cached).

        Keyed like the measurement plus the partitioner, since jobs that
        differ only in their partitioner share a measurement.  The cached
        arrays are read-only.
        """
        key = (
            *_job_key(job, dataset),
            measurement.split_index,
            job.partitioner,
            num_partitions,
            combined,
        )
        registry = get_registry(self.registry)
        fractions = self._fractions_cache.get(key)
        if fractions is None:
            registry.counter(
                "hadoop_engine_partition_cache_misses_total",
                "partition fractions computed (cache misses)",
            ).inc()
            fractions = partition_fractions(
                measurement, job, num_partitions, combined
            )
            for array in fractions:
                array.flags.writeable = False
            self._fractions_cache[key] = fractions
        else:
            registry.counter(
                "hadoop_engine_partition_cache_hits_total",
                "partition fractions served from cache",
            ).inc()
        return fractions

    # ------------------------------------------------------------------
    # Execution layer
    # ------------------------------------------------------------------
    def run_job(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration | None = None,
        map_task_ids: Sequence[int] | None = None,
        profile: bool = False,
        profiling_overhead: float = DEFAULT_PROFILING_OVERHEAD,
        seed: int = 0,
    ) -> JobExecution:
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
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        with tracer.span(
            "hadoop.run_job", job=job.name, dataset=dataset.name, seed=seed
        ):
            execution = self._run_job_inner(
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

    def _run_job_inner(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration,
        map_task_ids: Sequence[int] | None,
        profile: bool,
        profiling_overhead: float,
        seed: int,
        registry: MetricsRegistry,
        tracer: Tracer,
    ) -> JobExecution:
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

        measurements = self.map_measurements(job, dataset)
        combined = config.use_combiner and job.has_combiner
        num_partitions = max(1, config.num_reduce_tasks) if job.has_reducer else 0

        # Fractions only for the representatives the executed tasks use.
        fractions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        map_tasks: list[MapTaskExecution] = []
        for task_id in executed_ids:
            rep = task_id % len(measurements)
            if rep not in fractions:
                fractions[rep] = (
                    self.split_fractions(
                        job, dataset, measurements[rep], num_partitions, combined
                    )
                    if num_partitions
                    else (np.zeros(1), np.zeros(1))
                )
            node = self.cluster.node_for_task(task_id, rng)
            task = simulate_map_task(
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

        if self.locality_aware and map_tasks:
            self._apply_locality_penalty(map_tasks, dataset, rng)

        reduce_tasks: list[ReduceTaskExecution] = []
        if job.has_reducer and num_partitions:
            reduce_measurement = self.reduce_measurement(job, dataset, combined)
            shuffle_bytes = np.zeros(num_partitions)
            shuffle_records = np.zeros(num_partitions)
            for task in map_tasks:
                shuffle_bytes += task.partition_bytes
                shuffle_records += task.partition_records
            for partition in range(num_partitions):
                node = self.cluster.node_for_task(partition, rng)
                reduce_tasks.append(
                    simulate_reduce_task(
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

        schedule = schedule_job(
            map_tasks,
            reduce_tasks,
            self.cluster.total_map_slots,
            self.cluster.total_reduce_slots,
            config,
            registry=registry,
        )
        self._record_schedule_trace(
            registry, tracer, map_tasks, reduce_tasks, schedule
        )

        counters = Counters()
        for task in map_tasks:
            counters.merge(task.counters)
        for task in reduce_tasks:
            counters.merge(task.counters)

        return JobExecution(
            job_name=job.name,
            dataset_name=dataset.name,
            input_bytes=sum(splits[i].nominal_bytes for i in executed_ids),
            map_tasks=map_tasks,
            reduce_tasks=reduce_tasks,
            runtime_seconds=schedule.runtime_seconds,
            counters=counters,
            sampled=sampled,
        )

    def _record_schedule_trace(
        self,
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

    def _apply_locality_penalty(
        self,
        map_tasks: list[MapTaskExecution],
        dataset: Dataset,
        rng: np.random.Generator,
    ) -> None:
        """Charge remote reads on the tasks locality scheduling misses.

        A remote read streams the block over the network instead of the
        local disks, so its READ phase is re-priced at network+disk rates.
        """
        from .hdfs import expected_locality, place_blocks

        placement = place_blocks(dataset.num_splits, self.cluster, seed=dataset.seed)
        stats = expected_locality(placement, self.cluster, seed=dataset.seed)
        remote_count = round(stats.remote_tasks / max(1, stats.total) * len(map_tasks))
        if remote_count <= 0:
            return
        remote_indices = rng.choice(len(map_tasks), size=remote_count, replace=False)
        for index in remote_indices:
            task = map_tasks[index]
            rates = task.rates
            penalty = (
                rates.network_ns_per_byte + rates.read_local_ns_per_byte
            ) / max(1e-9, rates.read_hdfs_ns_per_byte)
            task.phase_times["READ"] *= penalty

    def run_job_with_faults(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration | None = None,
        fault_model: "FaultModel | None" = None,
        seed: int = 0,
    ) -> tuple[JobExecution, "FaultyScheduleResult", "FaultyScheduleResult | None"]:
        """Execute *job* under task failures and speculative execution.

        Returns the fault-free execution record plus the fault-adjusted
        map-side and reduce-side schedules; the execution's
        ``runtime_seconds`` is inflated by the serial delay failures add
        on each side.
        """
        from .faults import FaultModel, schedule_with_faults
        from .scheduler import _list_schedule

        if fault_model is None:
            fault_model = FaultModel()
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        with tracer.span(
            "hadoop.run_job_with_faults", job=job.name, dataset=dataset.name
        ):
            execution = self.run_job(job, dataset, config, seed=seed)
            rng = np.random.default_rng((seed, 0xFA17))

            map_durations = [t.duration for t in execution.map_tasks]
            map_slots = self.cluster.total_map_slots
            faulty_map = schedule_with_faults(
                map_durations, map_slots, fault_model, rng
            )
            base_map = max(_list_schedule(map_durations, map_slots), default=0.0)
            delay = faulty_map.makespan - base_map

            faulty_reduce = None
            if execution.reduce_tasks:
                reduce_durations = [t.duration for t in execution.reduce_tasks]
                reduce_slots = self.cluster.total_reduce_slots
                faulty_reduce = schedule_with_faults(
                    reduce_durations, reduce_slots, fault_model, rng
                )
                base_reduce = max(
                    _list_schedule(reduce_durations, reduce_slots), default=0.0
                )
                delay += faulty_reduce.makespan - base_reduce

            execution.runtime_seconds += max(0.0, delay)

        registry.counter(
            "hadoop_engine_faulty_jobs_total", "jobs run under the fault model"
        ).inc()
        failures = faulty_map.failures + (
            faulty_reduce.failures if faulty_reduce else 0
        )
        speculative = faulty_map.speculative_attempts + (
            faulty_reduce.speculative_attempts if faulty_reduce else 0
        )
        registry.counter(
            "hadoop_engine_task_failures_total", "injected task failures"
        ).inc(failures)
        registry.counter(
            "hadoop_engine_speculative_attempts_total",
            "speculative task attempts launched",
        ).inc(speculative)
        registry.histogram(
            "hadoop_engine_fault_delay_seconds",
            "serial delay added by failures and speculation",
            buckets=SIM_SECONDS_BUCKETS,
        ).observe(max(0.0, delay))
        return execution, faulty_map, faulty_reduce

    def clear_caches(self) -> None:
        """Drop all cached measurements and the fractions priced from them
        (e.g. after dataset mutation)."""
        get_registry(self.registry).counter(
            "hadoop_engine_cache_clears_total", "measurement-cache invalidations"
        ).inc()
        self._map_cache.clear()
        self._reduce_cache.clear()
        self._fractions_cache.clear()
