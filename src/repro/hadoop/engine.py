"""HadoopEngine: the simulator façade.

``HadoopEngine.run_job`` executes an MR job — really executes the user's
map/reduce/combine callables over materialized sample records, then
extrapolates volumes to the dataset's nominal size and prices every task's
phases on the cluster model: each side's tasks as columns, in one pass,
with per-task records built only when read (see :mod:`repro.hadoop.tasks`).
Measurements (the expensive part: running user code) are cached per (job,
dataset, split), so re-running the same job under a different
configuration only re-prices the pipeline arithmetic, exactly like
re-submitting a job to a real cluster re-uses the same input data.
The sample records of each split are materialized and sized once per
(dataset, split) beside them, so jobs reading the same dataset share them.
The per-reducer output split of each measurement is cached beside it, per
(partitioner, reducer count, combiner setting).  Every cache is keyed by
the frozen :class:`Dataset` value, not its name.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Any, Sequence

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
from .dataset import Dataset, SplitSample
from .job import MapReduceJob
from .mapper_engine import (
    MapSampleMeasurement,
    measure_map_sample,
    partition_fractions,
    price_map_tasks,
)
from .reducer_engine import (
    ReduceSampleMeasurement,
    measure_reduce_from_pairs,
    price_reduce_tasks,
)
from .scheduler import schedule_job
from .tasks import JobExecution, MapTaskTable, ReduceTaskTable

__all__ = ["HadoopEngine"]

#: Relative slowdown of a profiled task (dynamic instrumentation cost).
DEFAULT_PROFILING_OVERHEAD = 0.10


@lru_cache(maxsize=None)
def _evenly_spaced(count: int, num_splits: int) -> tuple[int, ...]:
    """*count* evenly spaced split indices, memoized: ``np.linspace`` costs
    about as much as pricing a whole 1-task sample run."""
    if count == 1:
        return (0,)
    positions = np.linspace(0, num_splits - 1, count)
    return tuple(sorted({int(round(p)) for p in positions}))


def _job_key(job: MapReduceJob, dataset: Dataset) -> tuple:
    params = tuple(sorted((str(k), repr(v)) for k, v in job.params.items()))
    return (job.name, params, dataset)


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
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        measurement_workers: int = 1,
    ) -> None:
        self.cluster = cluster
        self.representative_splits = max(1, representative_splits)
        #: Threads used to measure uncached representative splits in
        #: parallel; 1 keeps measurement fully sequential.
        self.measurement_workers = max(1, measurement_workers)
        #: Observability sinks; None falls back to the module defaults.
        self.registry = registry
        self.tracer = tracer
        self._sample_cache: dict[tuple[Dataset, int], SplitSample] = {}
        self._map_cache: dict[tuple, MapSampleMeasurement] = {}
        self._reduce_cache: dict[tuple, ReduceSampleMeasurement] = {}
        self._fractions_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Measurement layer
    # ------------------------------------------------------------------
    def split_sample(self, dataset: Dataset, split_index: int) -> SplitSample:
        """The sample records of one split and their size (cached)."""
        key = (dataset, split_index)
        sample = self._sample_cache.get(key)
        if sample is None:
            sample = self._sample_cache[key] = dataset.sample(split_index)
        return sample

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
            measurement = measure_map_sample(
                job, self.split_sample(dataset, split_index)
            )
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
        return list(_evenly_spaced(count, dataset.num_splits))

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
            sizes: list[int] = []
            for map_measurement in self.map_measurements(job, dataset):
                pairs.extend(map_measurement.intermediate_pairs(combined))
                sizes.extend(map_measurement.intermediate_sizes(combined))
            measurement = measure_reduce_from_pairs(job, pairs, sizes)
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

        num_splits = dataset.num_splits
        if map_task_ids is None:
            task_ids = np.arange(num_splits)
            sampled = False
        else:
            executed_ids = sorted(set(map_task_ids))
            for task_id in executed_ids:
                if not 0 <= task_id < num_splits:
                    raise IndexError(f"map task {task_id} out of range")
            task_ids = np.array(executed_ids, dtype=np.intp)
            sampled = True
        # Only the last split is short (see Dataset.split).
        split_bytes = np.minimum(
            dataset.split_bytes, dataset.nominal_bytes - task_ids * dataset.split_bytes
        )

        measurements = self.map_measurements(job, dataset)
        combined = config.use_combiner and job.has_combiner
        num_partitions = max(1, config.num_reduce_tasks) if job.has_reducer else 0

        # Fractions only for the representatives the executed tasks use,
        # in the order they first appear.
        fractions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for rep in dict.fromkeys((task_ids % len(measurements)).tolist()):
            fractions[rep] = (
                self.split_fractions(
                    job, dataset, measurements[rep], num_partitions, combined
                )
                if num_partitions
                else (np.zeros(1), np.zeros(1))
            )
        map_rates = self.cluster.draw_task_rates(len(task_ids), rng)
        map_table = price_map_tasks(
            task_ids, split_bytes, measurements, fractions, job, config,
            self.cluster, map_rates, profile, profiling_overhead,
        )

        if job.has_reducer and num_partitions:
            reduce_measurement = self.reduce_measurement(job, dataset, combined)
            shuffle_bytes, shuffle_records = map_table.partition_totals()
            reduce_table = price_reduce_tasks(
                len(map_table), shuffle_bytes, shuffle_records,
                reduce_measurement, len(map_table), config, self.cluster,
                self.cluster.draw_task_rates(num_partitions, rng),
                profile, profiling_overhead,
            )
        else:
            reduce_table = ReduceTaskTable.empty()

        schedule = schedule_job(
            map_table,
            reduce_table,
            self.cluster.total_map_slots,
            self.cluster.total_reduce_slots,
            config,
            registry=registry,
        )
        self._record_schedule_trace(
            registry, tracer, map_table, reduce_table, schedule
        )

        counters = map_table.counters()
        counters.merge(reduce_table.counters())

        return JobExecution(
            job_name=job.name,
            dataset_name=dataset.name,
            input_bytes=int(split_bytes.sum()),
            map_table=map_table,
            reduce_table=reduce_table,
            runtime_seconds=schedule.runtime_seconds,
            counters=counters,
            sampled=sampled,
        )

    def _record_schedule_trace(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        map_table: MapTaskTable,
        reduce_table: ReduceTaskTable,
        schedule,
    ) -> None:
        """Emit simulated-time spans and task histograms for one schedule.

        Everything recorded here lives on the *simulated* clock, so the
        trace of a seeded run is deterministic (the property tests rely
        on that).
        """
        registry.histogram(
            "hadoop_engine_map_task_seconds",
            "simulated map task durations",
            buckets=SIM_SECONDS_BUCKETS,
        ).observe_many(map_table.durations)
        registry.histogram(
            "hadoop_engine_reduce_task_seconds",
            "simulated reduce task durations",
            buckets=SIM_SECONDS_BUCKETS,
        ).observe_many(reduce_table.durations)
        registry.counter(
            "hadoop_engine_map_tasks_total", "map tasks simulated"
        ).inc(len(map_table))
        registry.counter(
            "hadoop_engine_reduce_tasks_total", "reduce tasks simulated"
        ).inc(len(reduce_table))

        if not tracer.enabled:
            return
        for task_id, node_id, duration, finish in zip(
            map_table.column("task_id").tolist(),
            map_table.column("node_id").tolist(),
            map_table.durations,
            schedule.map_finish_times,
        ):
            tracer.record_span(
                "hadoop.map_task",
                start=max(0.0, finish - duration),
                end=finish,
                attrs={"task_id": task_id, "node_id": node_id},
            )
        for task_id, partition, duration, finish in zip(
            reduce_table.column("task_id").tolist(),
            reduce_table.column("partition").tolist(),
            reduce_table.durations,
            schedule.reduce_finish_times,
        ):
            tracer.record_span(
                "hadoop.reduce_task",
                start=max(0.0, finish - duration),
                end=finish,
                attrs={"task_id": task_id, "partition": partition},
            )
        if len(map_table):
            tracer.record_span(
                "hadoop.phase.map", start=0.0, end=schedule.map_makespan,
                attrs={"tasks": len(map_table)},
            )
        if len(reduce_table):
            # The shuffle window: reducers start pulling at slowstart and
            # cannot finish before the last map output exists.
            tracer.record_span(
                "hadoop.phase.shuffle",
                start=schedule.slowstart_time,
                end=max(schedule.map_makespan, schedule.slowstart_time),
                attrs={"tasks": len(reduce_table)},
            )
            tracer.record_span(
                "hadoop.phase.reduce",
                start=schedule.slowstart_time,
                end=schedule.runtime_seconds,
                attrs={"tasks": len(reduce_table)},
            )

    def clear_caches(self) -> None:
        """Drop all cached sample records, the measurements taken on them
        and the fractions priced from those (e.g. after dataset mutation)."""
        get_registry(self.registry).counter(
            "hadoop_engine_cache_clears_total", "measurement-cache invalidations"
        ).inc()
        self._sample_cache.clear()
        self._map_cache.clear()
        self._reduce_cache.clear()
        self._fractions_cache.clear()
