"""A terminal Starfish-style visualizer.

Figures 4.3, 4.5 and 4.6 of the thesis are screenshots "captured from the
Starfish Visualization System": per-phase breakdowns and task timelines
of job executions.  This module renders the same views as plain text —
phase-time bar charts and wave-structured task Gantt charts — off a
:class:`repro.hadoop.tasks.JobExecution`.
"""

from __future__ import annotations

from ..hadoop.tasks import JobExecution, MAP_PHASES, REDUCE_PHASES

__all__ = ["phase_breakdown", "task_timeline", "compare_phase_breakdowns"]

_BAR_WIDTH = 46


def _render_bars(totals: dict[str, float], title: str) -> list[str]:
    peak = max(totals.values(), default=0.0)
    lines = [title]
    for phase, seconds in totals.items():
        width = int(round(seconds / peak * _BAR_WIDTH)) if peak > 0 else 0
        lines.append(f"  {phase:<8} {'█' * width:<{_BAR_WIDTH}} {seconds:10.1f} s")
    return lines


def phase_breakdown(execution: JobExecution, per_task: bool = True) -> str:
    """Render the map/reduce phase breakdown of one execution.

    Args:
        per_task: average per task (the Fig 4.3/4.5 view) instead of
            cluster-wide totals.
    """
    map_totals = execution.map_phase_totals()
    reduce_totals = execution.reduce_phase_totals()
    if per_task:
        maps = max(1, execution.num_map_tasks)
        reduces = max(1, execution.num_reduce_tasks)
        map_totals = {k: v / maps for k, v in map_totals.items()}
        reduce_totals = {k: v / reduces for k, v in reduce_totals.items()}

    unit = "s/task" if per_task else "s total"
    lines = [
        f"{execution.job_name} on {execution.dataset_name} "
        f"({execution.num_map_tasks} maps, {execution.num_reduce_tasks} reduces)"
    ]
    lines += _render_bars(map_totals, f"map phases ({unit}):")
    if execution.num_reduce_tasks:
        lines += _render_bars(reduce_totals, f"reduce phases ({unit}):")
    return "\n".join(lines)


def compare_phase_breakdowns(
    first: JobExecution, second: JobExecution, per_task: bool = True
) -> str:
    """Side-by-side phase comparison (the Fig 4.5 view)."""
    def per(execution: JobExecution, totals: dict[str, float], count: int):
        if per_task:
            return {k: v / max(1, count) for k, v in totals.items()}
        return totals

    lines = [f"{'phase':<14}{first.job_name:>20}{second.job_name:>28}"]
    first_map = per(first, first.map_phase_totals(), first.num_map_tasks)
    second_map = per(second, second.map_phase_totals(), second.num_map_tasks)
    for phase in MAP_PHASES:
        lines.append(
            f"map:{phase:<10}{first_map[phase]:>20.2f}{second_map[phase]:>28.2f}"
        )
    if first.num_reduce_tasks and second.num_reduce_tasks:
        first_red = per(first, first.reduce_phase_totals(), first.num_reduce_tasks)
        second_red = per(second, second.reduce_phase_totals(), second.num_reduce_tasks)
        for phase in REDUCE_PHASES:
            lines.append(
                f"red:{phase:<10}{first_red[phase]:>20.2f}{second_red[phase]:>28.2f}"
            )
    return "\n".join(lines)


def task_timeline(
    execution: JobExecution,
    map_slots: int,
    reduce_slots: int,
    width: int = 72,
    max_rows: int = 24,
) -> str:
    """Render a wave-structured Gantt chart of the execution.

    Each row is a slot; ``m``/``r`` cells mark a running map/reduce task.
    Reconstructs the greedy schedule the engine used, so waves and the
    reduce overlap are visible the way the Starfish visualizer shows them.
    """
    import heapq

    from ..hadoop.config import JobConfiguration
    from ..hadoop.scheduler import schedule_job

    schedule = schedule_job(
        execution.map_table,
        execution.reduce_table,
        map_slots,
        reduce_slots,
        JobConfiguration(),
    )
    horizon = max(schedule.runtime_seconds, 1e-9)

    def place(durations, finishes, num_slots):
        """Recover (slot, start, finish) per task from finish times."""
        slots = [0.0] * num_slots
        assignment = []
        for duration, finish in zip(durations, finishes):
            start = finish - duration
            slot = min(range(num_slots), key=lambda s: abs(slots[s] - start))
            assignment.append((slot, start, finish))
            slots[slot] = finish
        return assignment

    rows: list[str] = []

    map_rows = min(map_slots, max_rows // 2, execution.num_map_tasks)
    map_assignment = place(
        execution.map_table.durations,
        schedule.map_finish_times,
        map_slots,
    )
    grid = [[" "] * width for __ in range(map_rows)]
    for slot, start, finish in map_assignment:
        if slot >= map_rows:
            continue
        lo = int(start / horizon * (width - 1))
        hi = max(lo + 1, int(finish / horizon * (width - 1)))
        for x in range(lo, min(hi, width)):
            grid[slot][x] = "m"
    rows += [f"map  slot {i:<3}|{''.join(row)}|" for i, row in enumerate(grid)]

    if execution.num_reduce_tasks:
        reduce_rows = min(reduce_slots, max_rows // 2, execution.num_reduce_tasks)
        reduce_assignment = place(
            execution.reduce_table.durations,
            schedule.reduce_finish_times,
            reduce_slots,
        )
        grid = [[" "] * width for __ in range(reduce_rows)]
        for slot, start, finish in reduce_assignment:
            if slot >= reduce_rows:
                continue
            lo = int(max(start, 0) / horizon * (width - 1))
            hi = max(lo + 1, int(finish / horizon * (width - 1)))
            for x in range(lo, min(hi, width)):
                grid[slot][x] = "r"
        rows += [f"red  slot {i:<3}|{''.join(row)}|" for i, row in enumerate(grid)]

    header = (
        f"{execution.job_name}: runtime {schedule.runtime_seconds:.0f} s, "
        f"0 s {'─' * (width - 14)} {schedule.runtime_seconds:.0f} s"
    )
    return "\n".join([header] + rows)
