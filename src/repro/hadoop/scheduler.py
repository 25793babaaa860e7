"""Wave-based slot scheduler.

The JobTracker assigns map tasks to free map slots and reduce tasks to free
reduce slots.  We model this with greedy list scheduling over slot
availability times, which reproduces Hadoop's wave structure: with 30 map
slots and 571 map tasks, maps run in ~20 waves; reducers start once the
``mapred.reduce.slowstart.completed.maps`` fraction of maps has finished,
overlap their shuffle with the remaining maps, and cannot finish shuffling
before the last map output they depend on exists.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ..observability import MetricsRegistry, get_registry
from .config import JobConfiguration
from .tasks import MapTaskTable, ReduceTaskTable

__all__ = ["ScheduleResult", "schedule_job"]


@dataclass(frozen=True)
class ScheduleResult:
    """Timeline of one job execution."""

    map_finish_times: tuple[float, ...]
    reduce_finish_times: tuple[float, ...]
    map_makespan: float
    runtime_seconds: float
    slowstart_time: float


def _list_schedule(durations: list[float], num_slots: int, start: float = 0.0) -> list[float]:
    """Greedy list scheduling; returns each task's finish time."""
    if num_slots <= 0:
        raise ValueError("need at least one slot")
    slots = [start] * min(num_slots, max(1, len(durations)))
    heapq.heapify(slots)
    finishes = []
    for duration in durations:
        free_at = heapq.heappop(slots)
        finish = free_at + duration
        finishes.append(finish)
        heapq.heappush(slots, finish)
    return finishes


def _record_schedule_metrics(
    registry: MetricsRegistry | None,
    result: ScheduleResult,
    map_tasks: MapTaskTable,
    reduce_tasks: ReduceTaskTable,
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
    ).set(math.ceil(len(map_tasks) / map_slots) if len(map_tasks) else 0)
    registry.gauge(
        "hadoop_scheduler_reduce_waves",
        "reduce waves of the last scheduled job",
    ).set(math.ceil(len(reduce_tasks) / reduce_slots) if len(reduce_tasks) else 0)

    map_busy = sum(map_tasks.durations)
    map_window = map_slots * result.map_makespan
    registry.gauge(
        "hadoop_scheduler_map_slot_occupancy",
        "busy map-slot time / available map-slot time, last job",
    ).set(map_busy / map_window if map_window > 0 else 0.0)

    reduce_busy = sum(reduce_tasks.durations)
    reduce_window = reduce_slots * (result.runtime_seconds - result.slowstart_time)
    registry.gauge(
        "hadoop_scheduler_reduce_slot_occupancy",
        "busy reduce-slot time / available reduce-slot time, last job",
    ).set(reduce_busy / reduce_window if reduce_window > 0 else 0.0)


def schedule_job(
    map_tasks: MapTaskTable,
    reduce_tasks: ReduceTaskTable,
    map_slots: int,
    reduce_slots: int,
    config: JobConfiguration,
    registry: MetricsRegistry | None = None,
) -> ScheduleResult:
    """Compute the job timeline from the tasks' duration and phase columns.

    Reduce tasks of the first wave start at the slowstart point and overlap
    their SHUFFLE phase with the map tail; a reducer's shuffle cannot
    complete before the map makespan.  Later reduce waves start when slots
    free up, by which time all map outputs exist.
    """
    map_finishes = _list_schedule(map_tasks.durations, map_slots)
    map_makespan = max(map_finishes, default=0.0)

    if not len(reduce_tasks):
        result = ScheduleResult(
            map_finish_times=tuple(map_finishes),
            reduce_finish_times=(),
            map_makespan=map_makespan,
            runtime_seconds=map_makespan,
            slowstart_time=map_makespan,
        )
        _record_schedule_metrics(
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
    setup, shuffle, *after_shuffle = reduce_tasks.phase_times.tolist()
    for setup_s, shuffle_s, rest in zip(
        setup, shuffle, map(sum, zip(*after_shuffle))
    ):
        start = heapq.heappop(slots)
        # The final map output only exists at map_makespan; shuffles that
        # would finish earlier stall until then.
        shuffle_end = max(start + setup_s + shuffle_s, map_makespan)
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
    _record_schedule_metrics(
        registry, result, map_tasks, reduce_tasks, map_slots, reduce_slots
    )
    return result
