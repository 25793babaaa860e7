"""Task-level execution records produced by the simulator engines.

The Starfish profiler (``repro.starfish.profiler``) reads these records to
build execution profiles, and the figures that show per-phase breakdowns
(Figs 4.3, 4.5, 4.6) read them directly.  Phase names follow the Starfish
task timeline: map tasks run SETUP/READ/MAP/COLLECT/SPILL/MERGE/CLEANUP and
reduce tasks run SETUP/SHUFFLE/SORT/REDUCE/WRITE/CLEANUP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import CostRates
from .counters import Counters

__all__ = [
    "MAP_PHASES",
    "REDUCE_PHASES",
    "MapTaskExecution",
    "ReduceTaskExecution",
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


@dataclass
class JobExecution:
    """One complete (or sampled) execution of an MR job on a cluster."""

    job_name: str
    dataset_name: str
    input_bytes: int
    map_tasks: list[MapTaskExecution]
    reduce_tasks: list[ReduceTaskExecution]
    runtime_seconds: float
    counters: Counters = field(default_factory=Counters)
    sampled: bool = False

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_tasks)

    @property
    def num_reduce_tasks(self) -> int:
        return len(self.reduce_tasks)

    def map_phase_totals(self) -> dict[str, float]:
        """Summed map-side phase times across tasks (Fig 4.3-style data)."""
        totals = {phase: 0.0 for phase in MAP_PHASES}
        for task in self.map_tasks:
            for phase, seconds in task.phase_times.items():
                totals[phase] += seconds
        return totals

    def reduce_phase_totals(self) -> dict[str, float]:
        """Summed reduce-side phase times across tasks (Fig 4.5/4.6 data)."""
        totals = {phase: 0.0 for phase in REDUCE_PHASES}
        for task in self.reduce_tasks:
            for phase, seconds in task.phase_times.items():
                totals[phase] += seconds
        return totals
