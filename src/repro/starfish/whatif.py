"""The What-If (WIF) engine: analytical runtime prediction.

Given a job profile, a configuration, the cluster, and a data size, predict
the job's runtime (§2.3.1).  The model reconstructs per-task data-flow
volumes from the profile's selectivities and record-size statistics, runs
the same buffer/spill/merge/shuffle arithmetic as the execution engine, and
prices phases with the profile's *cost factors* — so predictions are exactly
as good as the profile is representative, which is the property PStorM's
matching quality is measured by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hadoop.cluster import ClusterSpec
from ..hadoop.config import CONFIGURATION_SPACE, JobConfiguration
from ..hadoop.mapper_engine import (
    COLLECT_CPU_FRACTION,
    COMPARE_CPU_FRACTION,
    HEAP_SORT_FRACTION,
    INTERMEDIATE_COMPRESSION_RATIO,
    META_BYTES_PER_RECORD,
    TASK_CLEANUP_SECONDS,
    TASK_SETUP_SECONDS,
)
from ..hadoop.reducer_engine import OUTPUT_COMPRESSION_RATIO
from ..observability import COUNT_BUCKETS, MetricsRegistry, get_registry
from .profile import JobProfile, SideProfile

__all__ = ["WhatIfEngine", "WhatIfPrediction", "BatchPrediction"]


@dataclass(frozen=True)
class WhatIfPrediction:
    """Predicted execution shape of a virtual job run."""

    runtime_seconds: float
    map_task_seconds: float
    reduce_task_seconds: float
    num_map_tasks: int
    num_reduce_tasks: int
    map_phases: dict[str, float]
    reduce_phases: dict[str, float]


@dataclass(frozen=True)
class BatchPrediction:
    """Predictions for a whole generation of candidate configurations.

    Every per-config field is a NumPy array of length ``len(self)``; the
    value at index ``i`` is bit-identical to the corresponding field of
    ``WhatIfEngine.predict`` on the configuration in row ``i`` of the
    candidate matrix (the property tests in ``tests/test_whatif_batch.py``
    enforce this).
    """

    runtime_seconds: np.ndarray
    map_task_seconds: np.ndarray
    reduce_task_seconds: np.ndarray
    num_map_tasks: int
    num_reduce_tasks: np.ndarray
    map_phases: dict[str, np.ndarray]
    reduce_phases: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.runtime_seconds)


@dataclass(frozen=True)
class _VirtualMapTask:
    """Volumes and time of one representative virtual map task."""

    phases: dict[str, float]
    materialized_bytes: float
    spill_records: float

    @property
    def duration(self) -> float:
        return sum(self.phases.values())


class _ConfigColumns:
    """The candidate matrix: one float64/bool column per tuning parameter.

    Only the parameters the What-If model actually reads are extracted.
    Integer parameters are stored as float64 — all modelled values stay far
    below 2**53, so the representation is exact and arithmetic matches the
    scalar int/float mixing of :meth:`WhatIfEngine.predict` bit for bit.
    """

    __slots__ = (
        "n", "io_sort_mb", "io_sort_record_percent", "io_sort_spill_percent",
        "io_sort_factor", "use_combiner", "compress_map_output",
        "reduce_slowstart", "num_reduce_tasks", "shuffle_input_buffer_percent",
        "shuffle_merge_percent", "inmem_merge_threshold",
        "reduce_input_buffer_percent", "compress_output",
    )

    #: Candidate-matrix column index per attribute (Table 2.1 order).  The
    #: one parameter the model never reads (``min.num.spills.for.combine``)
    #: stays in the matrix but is skipped.
    MATRIX_COLUMNS: dict[str, int] = {
        spec.attribute: j for j, spec in enumerate(CONFIGURATION_SPACE)
    }

    def __init__(self, matrix: np.ndarray) -> None:
        """Columns of an ``(n, 14)`` candidate matrix.

        The matrix stores one float64 column per parameter in Table 2.1
        order (booleans as 0.0/1.0), which is how the CBO generates whole
        candidate generations without materializing ``JobConfiguration``
        objects.  Values must already be legal (clamped).
        """
        self.n = len(matrix)
        for attribute in self.__slots__[1:]:
            column = np.ascontiguousarray(matrix[:, self.MATRIX_COLUMNS[attribute]])
            if attribute in ("use_combiner", "compress_map_output", "compress_output"):
                column = column != 0.0
            setattr(self, attribute, column)


def _masked_log2(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``log2`` where *mask*, 0 elsewhere — computed with :func:`math.log2`.

    NumPy's SIMD ``np.log2`` differs from libm's ``log2`` in the last ulp
    for some inputs, which would break the batch == scalar bit-identity
    guarantee; transcendentals are a negligible fraction of the batch work,
    so they go through the exact scalar routine.
    """
    out = np.zeros_like(values)
    for i in np.nonzero(mask)[0]:
        out[i] = math.log2(values[i])
    return out


def _merge_passes_batch(segments: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`JobConfiguration.merge_passes` (element-exact)."""
    passes = np.zeros_like(segments)
    for i in np.nonzero(segments > 1)[0]:
        passes[i] = max(1, math.ceil(math.log(segments[i], factor[i])))
    return passes


def _phase_sum(phases: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Sum phase arrays in dict order, mirroring ``sum(phases.values())``."""
    total = np.zeros(n)
    for values in phases.values():
        total = total + values
    return total


class WhatIfEngine:
    """Analytical performance models over (profile, config, cluster, data)."""

    def __init__(
        self, cluster: ClusterSpec, registry: MetricsRegistry | None = None
    ) -> None:
        self.cluster = cluster
        self.registry = registry

    # ------------------------------------------------------------------
    def predict(
        self,
        profile: JobProfile,
        config: JobConfiguration,
        data_bytes: int | None = None,
    ) -> WhatIfPrediction:
        """Predict the runtime of the profiled job under *config*.

        Args:
            profile: the execution profile standing in for the job.
            config: the configuration being evaluated.
            data_bytes: input size of the virtual run; defaults to the
                size the profile was collected on.
        """
        if data_bytes is None:
            data_bytes = profile.input_bytes
        split_bytes = min(profile.split_bytes, data_bytes)
        num_maps = max(1, math.ceil(data_bytes / profile.split_bytes))

        map_task = self._virtual_map_task(profile.map_profile, config, split_bytes)
        map_slots = self.cluster.total_map_slots
        map_waves = math.ceil(num_maps / map_slots)
        map_makespan = map_waves * map_task.duration

        if profile.reduce_profile is None or config.num_reduce_tasks < 1:
            return WhatIfPrediction(
                runtime_seconds=map_makespan,
                map_task_seconds=map_task.duration,
                reduce_task_seconds=0.0,
                num_map_tasks=num_maps,
                num_reduce_tasks=0,
                map_phases=map_task.phases,
                reduce_phases={},
            )

        reduce_phases = self._virtual_reduce_task(
            profile.reduce_profile,
            config,
            total_materialized=map_task.materialized_bytes * num_maps,
            total_records=map_task.spill_records * num_maps,
            num_maps=num_maps,
        )
        reduce_task_time = sum(reduce_phases.values())

        reduce_slots = self.cluster.total_reduce_slots
        num_reducers = config.num_reduce_tasks
        reduce_waves = math.ceil(num_reducers / reduce_slots)

        slowstart_time = config.reduce_slowstart * map_makespan
        first_shuffle_end = max(
            map_makespan,
            slowstart_time + reduce_phases["SETUP"] + reduce_phases["SHUFFLE"],
        )
        post_shuffle = (
            reduce_phases["SORT"]
            + reduce_phases["REDUCE"]
            + reduce_phases["WRITE"]
            + reduce_phases["CLEANUP"]
        )
        finish = first_shuffle_end + post_shuffle
        if reduce_waves > 1:
            finish += (reduce_waves - 1) * reduce_task_time

        return WhatIfPrediction(
            runtime_seconds=max(map_makespan, finish),
            map_task_seconds=map_task.duration,
            reduce_task_seconds=reduce_task_time,
            num_map_tasks=num_maps,
            num_reduce_tasks=num_reducers,
            map_phases=map_task.phases,
            reduce_phases=reduce_phases,
        )

    # ------------------------------------------------------------------
    def _virtual_map_task(
        self, mp: SideProfile, config: JobConfiguration, split_bytes: int
    ) -> _VirtualMapTask:
        in_rec_bytes = max(1.0, mp.stat("INPUT_RECORD_BYTES", 100.0))
        input_records = split_bytes / in_rec_bytes
        out_bytes = split_bytes * mp.data_flow["MAP_SIZE_SEL"]
        out_records = input_records * mp.data_flow["MAP_PAIRS_SEL"]
        avg_rec = mp.stat("INTERMEDIATE_RECORD_BYTES")
        if avg_rec <= 0 and out_records > 0:
            avg_rec = out_bytes / out_records

        combine_applies = bool(config.use_combiner) and mp.stat("HAS_COMBINER") > 0
        if combine_applies:
            spill_records = out_records * mp.data_flow["COMBINE_PAIRS_SEL"]
            spill_bytes = out_bytes * mp.data_flow["COMBINE_SIZE_SEL"]
        else:
            spill_records = out_records
            spill_bytes = out_bytes

        if out_records > 0 and avg_rec > 0:
            sort_buffer = min(
                config.sort_buffer_bytes(),
                int(self.cluster.task_heap_bytes * HEAP_SORT_FRACTION),
            )
            record_buffer = int(sort_buffer * config.io_sort_record_percent)
            data_cap = (sort_buffer - record_buffer) * config.io_sort_spill_percent
            meta_cap = (
                record_buffer * config.io_sort_spill_percent / META_BYTES_PER_RECORD
            )
            records_per_spill = max(1.0, min(data_cap / avg_rec, meta_cap))
            num_spills = max(1, math.ceil(out_records / records_per_spill))
        else:
            records_per_spill = 1.0
            num_spills = 0
        merge_passes = config.merge_passes(num_spills)

        if config.compress_map_output:
            materialized = spill_bytes * INTERMEDIATE_COMPRESSION_RATIO
        else:
            materialized = spill_bytes

        framework_cpu = mp.stat("FRAMEWORK_CPU_COST", 350.0)
        read_s = split_bytes * mp.cost_factors["READ_HDFS_IO_COST"] / 1e9
        map_s = input_records * mp.cost_factors["MAP_CPU_COST"] / 1e9

        sort_compares = 0.0
        if num_spills > 0 and records_per_spill > 1:
            sort_compares = out_records * math.log2(records_per_spill)
        collect_s = (
            out_records * framework_cpu * COLLECT_CPU_FRACTION
            + sort_compares * framework_cpu * COMPARE_CPU_FRACTION
        ) / 1e9

        spill_cpu_ns = 0.0
        if combine_applies:
            spill_cpu_ns += out_records * mp.cost_factors["COMBINE_CPU_COST"]
        if config.compress_map_output:
            spill_cpu_ns += spill_bytes * mp.stat("COMPRESS_CPU_COST", 6.0)
        spill_s = (
            materialized * mp.cost_factors["WRITE_LOCAL_IO_COST"] + spill_cpu_ns
        ) / 1e9

        merge_s = (
            merge_passes
            * materialized
            * (
                mp.cost_factors["READ_LOCAL_IO_COST"]
                + mp.cost_factors["WRITE_LOCAL_IO_COST"]
            )
            / 1e9
        )
        if config.compress_map_output and merge_passes > 0:
            merge_s += (
                merge_passes
                * spill_bytes
                * (
                    mp.stat("DECOMPRESS_CPU_COST", 3.0)
                    + mp.stat("COMPRESS_CPU_COST", 6.0)
                )
                / 1e9
            )

        phases = {
            "SETUP": TASK_SETUP_SECONDS,
            "READ": read_s,
            "MAP": map_s,
            "COLLECT": collect_s,
            "SPILL": spill_s,
            "MERGE": merge_s,
            "CLEANUP": TASK_CLEANUP_SECONDS,
        }
        return _VirtualMapTask(
            phases=phases,
            materialized_bytes=materialized,
            spill_records=spill_records,
        )

    # ------------------------------------------------------------------
    def _virtual_reduce_task(
        self,
        rp: SideProfile,
        config: JobConfiguration,
        total_materialized: float,
        total_records: float,
        num_maps: int,
    ) -> dict[str, float]:
        num_reducers = max(1, config.num_reduce_tasks)
        skew = max(1.0, rp.stat("REDUCE_SKEW", 1.0))
        shuffle_bytes = total_materialized / num_reducers * skew
        records = total_records / num_reducers * skew

        if config.compress_map_output:
            plain_bytes = shuffle_bytes / INTERMEDIATE_COMPRESSION_RATIO
        else:
            plain_bytes = shuffle_bytes

        network = rp.stat("NETWORK_COST", 22.0)
        shuffle_s = shuffle_bytes * network / 1e9
        if config.compress_map_output:
            shuffle_s += plain_bytes * rp.stat("DECOMPRESS_CPU_COST", 3.0) / 1e9

        heap = self.cluster.task_heap_bytes
        buffer_bytes = heap * config.shuffle_input_buffer_percent
        merge_trigger = max(1.0, buffer_bytes * config.shuffle_merge_percent)
        overflow = max(0.0, plain_bytes - buffer_bytes)
        disk_segments = max(1, math.ceil(overflow / merge_trigger)) if overflow else 0
        disk_passes = config.merge_passes(disk_segments) if disk_segments else 0

        inmem_merges = 0
        if num_maps > 0:
            inmem_merges = max(
                math.ceil(num_maps / max(1, config.inmem_merge_threshold)),
                math.ceil(plain_bytes / merge_trigger) if plain_bytes else 0,
            )

        retained = heap * config.reduce_input_buffer_percent
        final_read = max(0.0, overflow - retained)
        framework_cpu = rp.stat("FRAMEWORK_CPU_COST", 350.0)
        compare_ns = framework_cpu * COMPARE_CPU_FRACTION
        sort_cpu_ns = 0.0
        if inmem_merges and records > 0:
            sort_cpu_ns = records * compare_ns * math.log2(
                max(2.0, records / max(1, inmem_merges))
            )
        sort_s = (
            disk_passes
            * overflow
            * (
                rp.cost_factors["READ_LOCAL_IO_COST"]
                + rp.cost_factors["WRITE_LOCAL_IO_COST"]
            )
            + final_read * rp.cost_factors["READ_LOCAL_IO_COST"]
            + sort_cpu_ns
        ) / 1e9

        reduce_s = records * rp.cost_factors["REDUCE_CPU_COST"] / 1e9

        records_per_group = max(1e-9, rp.stat("RECORDS_PER_GROUP", 1.0))
        groups = records / records_per_group
        out_records = groups * rp.stat("OUT_RECORDS_PER_GROUP", 1.0)
        out_bytes = out_records * rp.stat("OUTPUT_RECORD_BYTES", 0.0)
        if config.compress_output:
            write_bytes = out_bytes * OUTPUT_COMPRESSION_RATIO
            write_cpu_ns = out_bytes * rp.stat("COMPRESS_CPU_COST", 6.0)
        else:
            write_bytes = out_bytes
            write_cpu_ns = 0.0
        write_s = (
            write_bytes * rp.cost_factors["WRITE_HDFS_IO_COST"] + write_cpu_ns
        ) / 1e9

        return {
            "SETUP": TASK_SETUP_SECONDS,
            "SHUFFLE": shuffle_s,
            "SORT": sort_s,
            "REDUCE": reduce_s,
            "WRITE": write_s,
            "CLEANUP": TASK_CLEANUP_SECONDS,
        }

    # ------------------------------------------------------------------
    # Batched prediction
    # ------------------------------------------------------------------
    def predict_matrix(
        self,
        profile: JobProfile,
        matrix: np.ndarray,
        data_bytes: int | None = None,
    ) -> BatchPrediction:
        """Predict a whole generation of candidate configurations.

        *matrix* is ``(n, 14)``, its columns following
        ``_ConfigColumns.MATRIX_COLUMNS`` (Table 2.1 order, booleans as
        0.0/1.0, values already clamped).  Row ``i`` is priced bit-identically
        to :meth:`predict` on the same configuration, field by field, but the
        spill/merge/shuffle arithmetic runs once over NumPy columns instead
        of once per configuration, and no per-candidate
        ``JobConfiguration`` is ever materialized.  This is how the CBO
        scores its generations.
        """
        cols = _ConfigColumns(matrix)
        n = cols.n
        registry = get_registry(self.registry)
        registry.counter(
            "whatif_batches_total", "predict_matrix calls"
        ).inc()
        registry.counter(
            "whatif_batch_predictions_total",
            "configurations priced through the batched What-If path",
        ).inc(n)
        registry.histogram(
            "whatif_batch_size",
            "configurations per predict_matrix call",
            buckets=COUNT_BUCKETS,
        ).observe(n)
        if data_bytes is None:
            data_bytes = profile.input_bytes
        split_bytes = min(profile.split_bytes, data_bytes)
        num_maps = max(1, math.ceil(data_bytes / profile.split_bytes))

        map_phases, materialized, spill_records = self._virtual_map_batch(
            profile.map_profile, cols, split_bytes
        )
        map_duration = _phase_sum(map_phases, n)
        map_slots = self.cluster.total_map_slots
        map_waves = math.ceil(num_maps / map_slots)
        map_makespan = map_waves * map_duration

        if profile.reduce_profile is None:
            return BatchPrediction(
                runtime_seconds=map_makespan,
                map_task_seconds=map_duration,
                reduce_task_seconds=np.zeros(n),
                num_map_tasks=num_maps,
                num_reduce_tasks=np.zeros(n, dtype=np.int64),
                map_phases=map_phases,
                reduce_phases={},
            )

        reduce_phases = self._virtual_reduce_batch(
            profile.reduce_profile,
            cols,
            total_materialized=materialized * num_maps,
            total_records=spill_records * num_maps,
            num_maps=num_maps,
        )
        reduce_task_time = _phase_sum(reduce_phases, n)

        reduce_slots = self.cluster.total_reduce_slots
        reduce_waves = np.ceil(cols.num_reduce_tasks / reduce_slots)

        slowstart_time = cols.reduce_slowstart * map_makespan
        first_shuffle_end = np.maximum(
            map_makespan,
            slowstart_time + reduce_phases["SETUP"] + reduce_phases["SHUFFLE"],
        )
        post_shuffle = (
            reduce_phases["SORT"]
            + reduce_phases["REDUCE"]
            + reduce_phases["WRITE"]
            + reduce_phases["CLEANUP"]
        )
        finish = first_shuffle_end + post_shuffle
        finish = np.where(
            reduce_waves > 1,
            finish + (reduce_waves - 1) * reduce_task_time,
            finish,
        )

        # mapred.reduce.tasks < 1 cannot pass JobConfiguration validation
        # today, but predict() defines the map-only fallback, so mirror it.
        map_only = cols.num_reduce_tasks < 1
        return BatchPrediction(
            runtime_seconds=np.where(
                map_only, map_makespan, np.maximum(map_makespan, finish)
            ),
            map_task_seconds=map_duration,
            reduce_task_seconds=np.where(map_only, 0.0, reduce_task_time),
            num_map_tasks=num_maps,
            num_reduce_tasks=np.where(
                map_only, 0, cols.num_reduce_tasks
            ).astype(np.int64),
            map_phases=map_phases,
            reduce_phases=reduce_phases,
        )

    # ------------------------------------------------------------------
    def _virtual_map_batch(
        self, mp: SideProfile, cols: _ConfigColumns, split_bytes: int
    ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Column-wise :meth:`_virtual_map_task` over the candidate matrix.

        Every expression mirrors the scalar method's operation tree exactly
        (same association order, same truncation points), so each column
        element is bit-identical to the scalar result for that config.
        """
        n = cols.n
        in_rec_bytes = max(1.0, mp.stat("INPUT_RECORD_BYTES", 100.0))
        input_records = split_bytes / in_rec_bytes
        out_bytes = split_bytes * mp.data_flow["MAP_SIZE_SEL"]
        out_records = input_records * mp.data_flow["MAP_PAIRS_SEL"]
        avg_rec = mp.stat("INTERMEDIATE_RECORD_BYTES")
        if avg_rec <= 0 and out_records > 0:
            avg_rec = out_bytes / out_records

        combine_applies = cols.use_combiner & (mp.stat("HAS_COMBINER") > 0)
        spill_records = np.where(
            combine_applies, out_records * mp.data_flow["COMBINE_PAIRS_SEL"],
            out_records,
        )
        spill_bytes = np.where(
            combine_applies, out_bytes * mp.data_flow["COMBINE_SIZE_SEL"],
            out_bytes,
        )

        if out_records > 0 and avg_rec > 0:
            sort_buffer = np.minimum(
                cols.io_sort_mb * 1024 * 1024,
                int(self.cluster.task_heap_bytes * HEAP_SORT_FRACTION),
            )
            record_buffer = np.trunc(sort_buffer * cols.io_sort_record_percent)
            data_cap = (sort_buffer - record_buffer) * cols.io_sort_spill_percent
            meta_cap = (
                record_buffer * cols.io_sort_spill_percent / META_BYTES_PER_RECORD
            )
            records_per_spill = np.maximum(
                1.0, np.minimum(data_cap / avg_rec, meta_cap)
            )
            num_spills = np.maximum(
                1.0, np.ceil(out_records / records_per_spill)
            )
        else:
            records_per_spill = np.ones(n)
            num_spills = np.zeros(n)
        merge_passes = _merge_passes_batch(num_spills, cols.io_sort_factor)

        materialized = np.where(
            cols.compress_map_output,
            spill_bytes * INTERMEDIATE_COMPRESSION_RATIO,
            spill_bytes,
        )

        framework_cpu = mp.stat("FRAMEWORK_CPU_COST", 350.0)
        read_s = split_bytes * mp.cost_factors["READ_HDFS_IO_COST"] / 1e9
        map_s = input_records * mp.cost_factors["MAP_CPU_COST"] / 1e9

        sort_compares = out_records * _masked_log2(
            records_per_spill, (num_spills > 0) & (records_per_spill > 1)
        )
        collect_s = (
            out_records * framework_cpu * COLLECT_CPU_FRACTION
            + sort_compares * framework_cpu * COMPARE_CPU_FRACTION
        ) / 1e9

        spill_cpu_ns = np.where(
            combine_applies, out_records * mp.cost_factors["COMBINE_CPU_COST"], 0.0
        )
        spill_cpu_ns = np.where(
            cols.compress_map_output,
            spill_cpu_ns + spill_bytes * mp.stat("COMPRESS_CPU_COST", 6.0),
            spill_cpu_ns,
        )
        spill_s = (
            materialized * mp.cost_factors["WRITE_LOCAL_IO_COST"] + spill_cpu_ns
        ) / 1e9

        merge_s = (
            merge_passes
            * materialized
            * (
                mp.cost_factors["READ_LOCAL_IO_COST"]
                + mp.cost_factors["WRITE_LOCAL_IO_COST"]
            )
            / 1e9
        )
        merge_s = np.where(
            cols.compress_map_output & (merge_passes > 0),
            merge_s
            + merge_passes
            * spill_bytes
            * (
                mp.stat("DECOMPRESS_CPU_COST", 3.0)
                + mp.stat("COMPRESS_CPU_COST", 6.0)
            )
            / 1e9,
            merge_s,
        )

        phases = {
            "SETUP": np.full(n, TASK_SETUP_SECONDS),
            "READ": np.full(n, read_s),
            "MAP": np.full(n, map_s),
            "COLLECT": collect_s,
            "SPILL": spill_s,
            "MERGE": merge_s,
            "CLEANUP": np.full(n, TASK_CLEANUP_SECONDS),
        }
        return phases, materialized, spill_records

    # ------------------------------------------------------------------
    def _virtual_reduce_batch(
        self,
        rp: SideProfile,
        cols: _ConfigColumns,
        total_materialized: np.ndarray,
        total_records: np.ndarray,
        num_maps: int,
    ) -> dict[str, np.ndarray]:
        """Column-wise :meth:`_virtual_reduce_task` (same mirroring rules)."""
        n = cols.n
        num_reducers = np.maximum(1.0, cols.num_reduce_tasks)
        skew = max(1.0, rp.stat("REDUCE_SKEW", 1.0))
        shuffle_bytes = total_materialized / num_reducers * skew
        records = total_records / num_reducers * skew

        plain_bytes = np.where(
            cols.compress_map_output,
            shuffle_bytes / INTERMEDIATE_COMPRESSION_RATIO,
            shuffle_bytes,
        )

        network = rp.stat("NETWORK_COST", 22.0)
        shuffle_s = shuffle_bytes * network / 1e9
        shuffle_s = np.where(
            cols.compress_map_output,
            shuffle_s + plain_bytes * rp.stat("DECOMPRESS_CPU_COST", 3.0) / 1e9,
            shuffle_s,
        )

        heap = self.cluster.task_heap_bytes
        buffer_bytes = heap * cols.shuffle_input_buffer_percent
        merge_trigger = np.maximum(1.0, buffer_bytes * cols.shuffle_merge_percent)
        overflow = np.maximum(0.0, plain_bytes - buffer_bytes)
        disk_segments = np.where(
            overflow > 0,
            np.maximum(1.0, np.ceil(overflow / merge_trigger)),
            0.0,
        )
        disk_passes = _merge_passes_batch(disk_segments, cols.io_sort_factor)

        inmem_merges = np.zeros(n)
        if num_maps > 0:
            inmem_merges = np.maximum(
                np.ceil(num_maps / np.maximum(1.0, cols.inmem_merge_threshold)),
                np.where(
                    plain_bytes > 0, np.ceil(plain_bytes / merge_trigger), 0.0
                ),
            )

        retained = heap * cols.reduce_input_buffer_percent
        final_read = np.maximum(0.0, overflow - retained)
        framework_cpu = rp.stat("FRAMEWORK_CPU_COST", 350.0)
        compare_ns = framework_cpu * COMPARE_CPU_FRACTION
        sort_log_arg = np.maximum(2.0, records / np.maximum(1.0, inmem_merges))
        sort_cpu_ns = records * compare_ns * _masked_log2(
            sort_log_arg, (inmem_merges > 0) & (records > 0)
        )
        sort_s = (
            disk_passes
            * overflow
            * (
                rp.cost_factors["READ_LOCAL_IO_COST"]
                + rp.cost_factors["WRITE_LOCAL_IO_COST"]
            )
            + final_read * rp.cost_factors["READ_LOCAL_IO_COST"]
            + sort_cpu_ns
        ) / 1e9

        reduce_s = records * rp.cost_factors["REDUCE_CPU_COST"] / 1e9

        records_per_group = max(1e-9, rp.stat("RECORDS_PER_GROUP", 1.0))
        groups = records / records_per_group
        out_records = groups * rp.stat("OUT_RECORDS_PER_GROUP", 1.0)
        out_bytes = out_records * rp.stat("OUTPUT_RECORD_BYTES", 0.0)
        write_bytes = np.where(
            cols.compress_output, out_bytes * OUTPUT_COMPRESSION_RATIO, out_bytes
        )
        write_cpu_ns = np.where(
            cols.compress_output, out_bytes * rp.stat("COMPRESS_CPU_COST", 6.0), 0.0
        )
        write_s = (
            write_bytes * rp.cost_factors["WRITE_HDFS_IO_COST"] + write_cpu_ns
        ) / 1e9

        return {
            "SETUP": np.full(n, TASK_SETUP_SECONDS),
            "SHUFFLE": shuffle_s,
            "SORT": sort_s,
            "REDUCE": reduce_s,
            "WRITE": write_s,
            "CLEANUP": np.full(n, TASK_CLEANUP_SECONDS),
        }
