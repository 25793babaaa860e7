"""Task-level execution records produced by the simulator engines.

The engine prices a run's tasks as columns: a :class:`MapTaskTable` and a
:class:`ReduceTaskTable` hold one entry per task, in task order, for every
volume, phase time and cost rate.  The scheduler, the engine's telemetry
and the Starfish profiler (``repro.starfish.profiler``) read those columns
directly.  :attr:`JobExecution.map_tasks` and
:attr:`JobExecution.reduce_tasks` build the per-task
:class:`MapTaskExecution` / :class:`ReduceTaskExecution` records from them
on first access, for the figures that show per-task and per-phase
breakdowns (Figs 4.3, 4.5, 4.6).  Phase names follow the Starfish task
timeline: map tasks run SETUP/READ/MAP/COLLECT/SPILL/MERGE/CLEANUP and
reduce tasks run SETUP/SHUFFLE/SORT/REDUCE/WRITE/CLEANUP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import ClassVar

import numpy as np

from .cluster import RATE_FIELDS, CostRates
from .counters import FRAMEWORK_GROUP, Counters

__all__ = [
    "MAP_PHASES",
    "REDUCE_PHASES",
    "MapTaskExecution",
    "ReduceTaskExecution",
    "MapTaskTable",
    "ReduceTaskTable",
    "JobExecution",
]

MAP_PHASES: tuple[str, ...] = (
    "SETUP", "READ", "MAP", "COLLECT", "SPILL", "MERGE", "CLEANUP",
)
REDUCE_PHASES: tuple[str, ...] = (
    "SETUP", "SHUFFLE", "SORT", "REDUCE", "WRITE", "CLEANUP",
)


_MAP_PHASE_SET = frozenset(MAP_PHASES)
_REDUCE_PHASE_SET = frozenset(REDUCE_PHASES)
#: Rows of :meth:`MapTaskTable.partition_totals` summed per block, so no
#: (tasks x partitions) matrix is ever held whole.
_TOTALS_BLOCK_ELEMENTS = 8192


def _check_phases(times: dict[str, float], allowed: frozenset[str]) -> None:
    if not allowed.issuperset(times):
        unknown = set(times) - allowed
        raise ValueError(f"unknown phases: {sorted(unknown)}")
    negative = [name for name, value in times.items() if value < 0]
    if negative:
        raise ValueError(f"negative phase times: {sorted(negative)}")


@dataclass
class MapTaskExecution:
    """Measured execution of one map task (nominal, extrapolated volumes).

    Byte/record counts are *nominal*: extrapolated from the materialized
    sample records to the split's full nominal size, so they are directly
    comparable to what a real Hadoop counter would report for a 64 MB split.
    """

    task_id: int
    split_index: int
    node_id: int
    input_records: int
    input_bytes: int
    map_output_records: int
    map_output_bytes: int
    #: After the (optional) combiner and before compression.
    spill_records: int
    spill_bytes: int
    #: Bytes actually written per spill round trip (post compression).
    materialized_bytes: int
    num_spills: int
    merge_passes: int
    combine_input_records: int
    combine_output_records: int
    combine_ops: int
    #: Nominal bytes of final map output destined to each reduce partition.
    partition_bytes: np.ndarray
    partition_records: np.ndarray
    user_ops: int
    phase_times: dict[str, float]
    rates: CostRates
    counters: Counters = field(default_factory=Counters)
    profiled: bool = False

    def __post_init__(self) -> None:
        _check_phases(self.phase_times, _MAP_PHASE_SET)

    @property
    def duration(self) -> float:
        """Total task time in seconds."""
        return sum(self.phase_times.values())


@dataclass
class ReduceTaskExecution:
    """Measured execution of one reduce task."""

    task_id: int
    partition: int
    node_id: int
    shuffle_bytes: int
    shuffle_records: int
    #: Input records/bytes actually fed to the reduce function (post merge).
    reduce_input_records: int
    reduce_input_groups: int
    output_records: int
    output_bytes: int
    #: Bytes written to HDFS (post output compression).
    materialized_bytes: int
    disk_merge_passes: int
    user_ops: int
    phase_times: dict[str, float]
    rates: CostRates
    counters: Counters = field(default_factory=Counters)
    profiled: bool = False

    def __post_init__(self) -> None:
        _check_phases(self.phase_times, _REDUCE_PHASE_SET)

    @property
    def duration(self) -> float:
        return sum(self.phase_times.values())


@dataclass(eq=False)
class _TaskTable:
    """One run's tasks of one side as columns, one entry per task.

    ``integers`` has one int64 row per :attr:`FIELDS` entry (the integer
    fields of the side's record class), ``phase_times`` one row per phase
    of :attr:`PHASES` and ``rates`` one row per
    :data:`~repro.hadoop.cluster.RATE_FIELDS` entry.
    """

    FIELDS: ClassVar[tuple[str, ...]] = ()
    PHASES: ClassVar[tuple[str, ...]] = ()
    #: Framework counters one task reports, with the field each counts.
    COUNTERS: ClassVar[tuple[tuple[str, str], ...]] = ()

    integers: np.ndarray
    phase_times: np.ndarray
    rates: np.ndarray
    profiled: bool = False
    #: Each task's total time: the builtin ``sum`` of its phase times in
    #: :attr:`PHASES` order, exactly as :attr:`MapTaskExecution.duration`.
    durations: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.phase_times.shape[0] != len(self.PHASES):
            raise ValueError(
                f"expected {len(self.PHASES)} phase rows, "
                f"got {self.phase_times.shape[0]}"
            )
        negative = (self.phase_times < 0).any(axis=1).tolist()
        if any(negative):
            names = [name for name, bad in zip(self.PHASES, negative) if bad]
            raise ValueError(f"negative phase times: {sorted(names)}")
        self.durations = list(map(sum, self.phase_times.T.tolist()))

    def __len__(self) -> int:
        return len(self.durations)

    def column(self, name: str) -> np.ndarray:
        """The int64 column of record field *name*."""
        return self.integers[self.FIELDS.index(name)]

    def phase(self, name: str) -> np.ndarray:
        """The phase time column of phase *name*."""
        return self.phase_times[self.PHASES.index(name)]

    def rate(self, name: str) -> np.ndarray:
        """The column of cost rate *name* (a :class:`CostRates` field)."""
        return self.rates[RATE_FIELDS.index(name)]

    def phase_totals(self) -> dict[str, float]:
        """Each phase summed over tasks, added in task order from 0.0."""
        return {
            name: reduce(add, row, 0.0)
            for name, row in zip(self.PHASES, self.phase_times.tolist())
        }

    def counters(self) -> Counters:
        """The side's framework counters summed over its tasks."""
        counters = Counters()
        if len(self):
            totals = dict(zip(self.FIELDS, self.integers.sum(axis=1).tolist()))
            for counter, name in self.COUNTERS:
                counters.increment(FRAMEWORK_GROUP, counter, totals[name])
        return counters

    def _record_fields(self) -> list[dict]:
        """Per-task keyword arguments shared by both record classes."""
        records = []
        for integers, phases, rates in zip(
            self.integers.T.tolist(),
            self.phase_times.T.tolist(),
            self.rates.T.tolist(),
        ):
            values = dict(zip(self.FIELDS, integers))
            records.append({
                **values,
                "phase_times": dict(zip(self.PHASES, phases)),
                "rates": CostRates(*rates),
                "profiled": self.profiled,
                "counters": self._task_counters(values),
            })
        return records

    def _task_counters(self, values: dict[str, int]) -> Counters:
        counters = Counters()
        for counter, name in self.COUNTERS:
            counters.increment(FRAMEWORK_GROUP, counter, values[name])
        return counters


@dataclass(eq=False)
class MapTaskTable(_TaskTable):
    """A run's map tasks as columns.

    Tasks that share a representative split, a split size and a task heap
    have identical volumes, so they form one group: task ``i``'s output
    per reduce partition is row ``group[i]`` of ``partition_bytes`` /
    ``partition_records``.
    """

    FIELDS: ClassVar[tuple[str, ...]] = (
        "task_id", "split_index", "node_id", "input_records", "input_bytes",
        "map_output_records", "map_output_bytes", "spill_records",
        "spill_bytes", "materialized_bytes", "num_spills", "merge_passes",
        "combine_input_records", "combine_output_records", "combine_ops",
        "user_ops",
    )
    PHASES: ClassVar[tuple[str, ...]] = MAP_PHASES
    COUNTERS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("MAP_INPUT_RECORDS", "input_records"),
        ("MAP_INPUT_BYTES", "input_bytes"),
        ("MAP_OUTPUT_RECORDS", "map_output_records"),
        ("MAP_OUTPUT_BYTES", "map_output_bytes"),
    )

    partition_bytes: np.ndarray = field(kw_only=True)
    partition_records: np.ndarray = field(kw_only=True)
    group: np.ndarray = field(kw_only=True)

    def counters(self) -> Counters:
        counters = super().counters()
        if len(self):
            spilled = self.column("num_spills") > 0
            if spilled.any():
                counters.increment(
                    FRAMEWORK_GROUP,
                    "SPILLED_RECORDS",
                    int(self.column("spill_records")[spilled].sum()),
                )
        return counters

    def _task_counters(self, values: dict[str, int]) -> Counters:
        counters = super()._task_counters(values)
        if values["num_spills"] > 0:
            counters.increment(
                FRAMEWORK_GROUP, "SPILLED_RECORDS", values["spill_records"]
            )
        return counters

    def partition_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-partition (bytes, records) summed over tasks in task order.

        Each partition's total is added task by task from 0.0, as a
        reducer's shuffle accumulates map outputs, so the floats match a
        sequential sum bit for bit.
        """
        totals = []
        for rows in (self.partition_bytes, self.partition_records):
            total = np.zeros(rows.shape[1])
            step = max(1, _TOTALS_BLOCK_ELEMENTS // rows.shape[1])
            for start in range(0, len(self), step):
                block = rows[self.group[start:start + step]]
                block[0] += total
                total = np.cumsum(block, axis=0)[-1]
            totals.append(total)
        return totals[0], totals[1]

    def records(self) -> list[MapTaskExecution]:
        """Per-task records, in task order."""
        return [
            MapTaskExecution(
                **values,
                partition_bytes=self.partition_bytes[row].copy(),
                partition_records=self.partition_records[row].copy(),
            )
            for row, values in zip(self.group.tolist(), self._record_fields())
        ]


@dataclass(eq=False)
class ReduceTaskTable(_TaskTable):
    """A run's reduce tasks as columns (empty for a map-only run)."""

    FIELDS: ClassVar[tuple[str, ...]] = (
        "task_id", "partition", "node_id", "shuffle_bytes", "shuffle_records",
        "reduce_input_records", "reduce_input_groups", "output_records",
        "output_bytes", "materialized_bytes", "disk_merge_passes", "user_ops",
    )
    PHASES: ClassVar[tuple[str, ...]] = REDUCE_PHASES
    COUNTERS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("REDUCE_SHUFFLE_BYTES", "shuffle_bytes"),
        ("REDUCE_INPUT_RECORDS", "reduce_input_records"),
        ("REDUCE_INPUT_GROUPS", "reduce_input_groups"),
        ("REDUCE_OUTPUT_RECORDS", "output_records"),
    )

    @classmethod
    def empty(cls) -> "ReduceTaskTable":
        return cls(
            integers=np.zeros((len(cls.FIELDS), 0), dtype=np.int64),
            phase_times=np.zeros((len(REDUCE_PHASES), 0)),
            rates=np.zeros((len(RATE_FIELDS), 0)),
        )

    def records(self) -> list[ReduceTaskExecution]:
        """Per-task records, in task order."""
        return [ReduceTaskExecution(**values) for values in self._record_fields()]


@dataclass
class JobExecution:
    """One complete (or sampled) execution of an MR job on a cluster.

    ``map_tasks`` and ``reduce_tasks`` are built from the task tables on
    first access; the tables stay the source of truth.
    """

    job_name: str
    dataset_name: str
    input_bytes: int
    map_table: MapTaskTable
    reduce_table: ReduceTaskTable
    runtime_seconds: float
    counters: Counters = field(default_factory=Counters)
    sampled: bool = False

    @cached_property
    def map_tasks(self) -> list[MapTaskExecution]:
        return self.map_table.records()

    @cached_property
    def reduce_tasks(self) -> list[ReduceTaskExecution]:
        return self.reduce_table.records()

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_table)

    @property
    def num_reduce_tasks(self) -> int:
        return len(self.reduce_table)

    def map_phase_totals(self) -> dict[str, float]:
        """Summed map-side phase times across tasks (Fig 4.3-style data)."""
        return self.map_table.phase_totals()

    def reduce_phase_totals(self) -> dict[str, float]:
        """Summed reduce-side phase times across tasks (Fig 4.5/4.6 data)."""
        return self.reduce_table.phase_totals()
