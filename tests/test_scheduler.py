"""Unit tests for the wave-based slot scheduler."""

import numpy as np
import pytest

from repro.hadoop.cluster import RATE_FIELDS
from repro.hadoop.config import JobConfiguration
from repro.hadoop.scheduler import _list_schedule, schedule_job
from repro.hadoop.tasks import MAP_PHASES, REDUCE_PHASES, MapTaskTable, ReduceTaskTable


def _map_tasks(*seconds):
    """Map tasks whose whole duration is their MAP phase."""
    phases = np.zeros((len(MAP_PHASES), len(seconds)))
    phases[MAP_PHASES.index("MAP")] = seconds
    return MapTaskTable(
        integers=np.zeros((len(MapTaskTable.FIELDS), len(seconds)), dtype=np.int64),
        phase_times=phases,
        rates=np.zeros((len(RATE_FIELDS), len(seconds))),
        partition_bytes=np.zeros((1, 1)),
        partition_records=np.zeros((1, 1)),
        group=np.zeros(len(seconds), dtype=np.intp),
    )


def _reduce_tasks(*shuffle_rest):
    """Reduce tasks with the given (SHUFFLE, REDUCE) phase seconds."""
    phases = np.zeros((len(REDUCE_PHASES), len(shuffle_rest)))
    if shuffle_rest:
        phases[[REDUCE_PHASES.index("SHUFFLE"), REDUCE_PHASES.index("REDUCE")]] = (
            np.array(shuffle_rest).T
        )
    count = len(shuffle_rest)
    return ReduceTaskTable(
        integers=np.zeros((len(ReduceTaskTable.FIELDS), count), dtype=np.int64),
        phase_times=phases,
        rates=np.zeros((len(RATE_FIELDS), count)),
    )


class TestListSchedule:
    def test_single_slot_serializes(self):
        finishes = _list_schedule([1.0, 2.0, 3.0], num_slots=1)
        assert finishes == [1.0, 3.0, 6.0]

    def test_enough_slots_parallelizes(self):
        finishes = _list_schedule([1.0, 2.0, 3.0], num_slots=3)
        assert finishes == [1.0, 2.0, 3.0]

    def test_wave_structure(self):
        finishes = _list_schedule([2.0] * 6, num_slots=3)
        assert max(finishes) == pytest.approx(4.0)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            _list_schedule([1.0], num_slots=0)


class TestScheduleJob:
    def test_map_only_runtime_is_map_makespan(self):
        maps = _map_tasks(*[5.0] * 4)
        result = schedule_job(
            maps, _reduce_tasks(), map_slots=2, reduce_slots=2,
            config=JobConfiguration(),
        )
        assert result.runtime_seconds == pytest.approx(10.0)
        assert result.reduce_finish_times == ()

    def test_reducers_wait_for_last_map(self):
        maps = _map_tasks(10.0, 10.0)
        reduces = _reduce_tasks((0.1, 1.0))
        config = JobConfiguration(reduce_slowstart=0.0)
        result = schedule_job(maps, reduces, 2, 2, config)
        # Shuffle can't complete before map makespan (10s), then 1s reduce.
        assert result.runtime_seconds == pytest.approx(11.0)

    def test_post_map_shuffle_not_stalled(self):
        maps = _map_tasks(1.0)
        reduces = _reduce_tasks((50.0, 5.0))
        result = schedule_job(maps, reduces, 2, 2, JobConfiguration())
        assert result.runtime_seconds >= 55.0

    def test_reduce_waves(self):
        maps = _map_tasks(1.0)
        reduces = _reduce_tasks(*[(0.0, 10.0)] * 4)
        one_wave = schedule_job(maps, reduces, 2, 4, JobConfiguration())
        two_waves = schedule_job(maps, reduces, 2, 2, JobConfiguration())
        assert two_waves.runtime_seconds > one_wave.runtime_seconds

    def test_slowstart_zero_starts_immediately(self):
        maps = _map_tasks(10.0, 10.0)
        reduces = _reduce_tasks((3.0, 1.0))
        eager = schedule_job(maps, reduces, 2, 2, JobConfiguration(reduce_slowstart=0.0))
        lazy = schedule_job(maps, reduces, 2, 2, JobConfiguration(reduce_slowstart=1.0))
        assert eager.slowstart_time == 0.0
        assert lazy.slowstart_time == pytest.approx(10.0)
        assert eager.runtime_seconds <= lazy.runtime_seconds

    def test_runtime_at_least_map_makespan(self):
        maps = _map_tasks(*[7.0] * 5)
        reduces = _reduce_tasks((0.0, 0.0))
        result = schedule_job(maps, reduces, 2, 2, JobConfiguration())
        assert result.runtime_seconds >= result.map_makespan
