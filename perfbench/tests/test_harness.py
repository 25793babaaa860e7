"""Tests for the benchmark's measurement helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import (  # noqa: E402
    JITTER,
    LOAD_SENSITIVITY,
    MIN_TAIL_SAMPLES,
    ChunkTimer,
    SpanRecorder,
    jitter_profile_dict,
    jittered_copies,
    percentile,
    samples_beyond,
    self_times,
    speed_scale,
)
from harness import Span  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond(self):
        assert samples_beyond(90, 100) == MIN_TAIL_SAMPLES
        assert percentile(list(range(100)), 90) is not None
        assert samples_beyond(90, 99) == MIN_TAIL_SAMPLES - 1
        assert percentile(list(range(99)), 90) is None

    def test_p50_needs_twenty_samples(self):
        assert percentile(list(range(19)), 50) is None
        assert percentile(list(range(20)), 50) == pytest.approx(9.5)

    def test_harrell_davis_on_uniform_ranks(self):
        samples = [float(v) for v in range(1, 101)]
        random.Random(3).shuffle(samples)
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 90) == pytest.approx(90.5)
        assert percentile([7.0] * 100, 90) == pytest.approx(7.0)

    def test_one_sample_crossing_a_gap_moves_it_a_little(self):
        # Two job classes, 10 ms and 20 ms, with p90 right at the boundary:
        # one sample changing class moves a rank-interpolated p90 by 90% of
        # the gap; the weighted estimate moves by a fraction of it.
        before = [10.0] * 99 + [20.0] * 11
        after = [10.0] * 98 + [20.0] * 12
        assert abs(percentile(after, 90) - percentile(before, 90)) < 0.25 * 10.0

    @pytest.mark.parametrize(
        "q, fewest", [(50, 20), (90, 100), (99, 1000), (99.9, 10_000)]
    )
    def test_fewest_samples_for_each_percentile(self, q, fewest):
        assert percentile([1.0] * fewest, q) == pytest.approx(1.0)
        assert percentile([1.0] * (fewest - 1), q) is None


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
class TestSpans:
    def test_parenting_follows_nesting(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.op_id = 7
        with recorder.span("root") as root:
            with recorder.span("child") as child:
                with recorder.span("grandchild"):
                    pass
            with recorder.span("sibling"):
                pass
        with recorder.span("second-root"):
            pass
        parents = {span.name: span.parent_id for span in recorder.spans}
        assert parents == {
            "root": None,
            "child": root,
            "grandchild": child,
            "sibling": root,
            "second-root": None,
        }
        assert {span.op_id for span in recorder.spans} == {7}

    def test_span_closes_when_the_call_raises(self):
        recorder = SpanRecorder(clock=FakeClock())
        with pytest.raises(KeyError):
            with recorder.span("outer"):
                raise KeyError("x")
        with recorder.span("after"):
            pass
        assert [span.parent_id for span in recorder.spans] == [None, None]

    def test_wrap_records_and_undo_restores(self):
        class Target:
            def work(self, x):
                return x * 2

        recorder = SpanRecorder(clock=FakeClock())
        original = Target.work
        undo = recorder.wrap(Target, "work", lambda args, kwargs: f"work.{args[1]}")
        assert Target().work(3) == 6
        undo()
        assert Target.work is original
        assert [span.name for span in recorder.spans] == ["work.3"]

    def test_self_time_subtracts_covered_child_interval(self):
        spans = [
            Span(1, None, "parent", 0.0, 10.0, 1),
            Span(2, 1, "a", 1.0, 3.0, 1),
            Span(3, 1, "b", 2.0, 5.0, 1),  # overlaps a: covered is [1, 5]
            Span(4, 1, "c", 8.0, 12.0, 1),  # clipped to the parent's end
            Span(5, 2, "a-child", 1.5, 2.5, 1),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
        assert selfs[2] == pytest.approx(1.0)
        assert selfs[3] == pytest.approx(3.0)
        assert selfs[5] == pytest.approx(1.0)

    def test_self_times_sum_to_root_duration(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        with recorder.span("root"):
            clock.now += 1.0
            with recorder.span("child"):
                clock.now += 2.0
                with recorder.span("leaf"):
                    clock.now += 4.0
            clock.now += 8.0
        assert sum(self_times(recorder.spans).values()) == pytest.approx(15.0)


# ----------------------------------------------------------------------
# Jitter generator
# ----------------------------------------------------------------------
def _profile_payload(name: str, with_reduce: bool = True) -> dict:
    def side(kind: str) -> dict:
        return {
            "side": kind,
            "data_flow": {"SEL_A": 0.5, "SEL_B": 2.0},
            "cost_factors": {"CPU": 120.0, "IO": 3.5},
            "statistics": {"RECORD_BYTES": 64.0, "HAS_COMBINER": 1},
            "phase_times": {"MAP": 12.5},
            "num_tasks": 4,
        }

    return {
        "job_name": name,
        "dataset_name": "d",
        "input_bytes": 1 << 30,
        "split_bytes": 1 << 26,
        "num_map_tasks": 16,
        "num_reduce_tasks": 4,
        "map_profile": side("map"),
        "reduce_profile": side("reduce") if with_reduce else None,
        "source": "full",
    }


class TestJitter:
    SOURCES = [("a@d", _profile_payload("a")), ("b@d", _profile_payload("b", False))]

    def test_seeded(self):
        first = jittered_copies(self.SOURCES, 50, seed=5, prefix="x")
        assert first == jittered_copies(self.SOURCES, 50, seed=5, prefix="x")
        assert first != jittered_copies(self.SOURCES, 50, seed=6, prefix="x")

    def test_distinct_ids_cycling_over_sources(self):
        copies = jittered_copies(self.SOURCES, 101, seed=1, prefix="x")
        ids = [job_id for job_id, __, __ in copies]
        assert len(set(ids)) == len(ids) == 101
        assert [source for __, source, __ in copies[:4]] == ["a@d", "b@d", "a@d", "b@d"]

    def test_bounded_to_thirty_percent(self):
        for __, source, payload in jittered_copies(self.SOURCES, 200, seed=2, prefix="x"):
            original = dict(self.SOURCES)[source]
            for side in ("map_profile", "reduce_profile"):
                if original[side] is None:
                    assert payload[side] is None
                    continue
                for section in ("data_flow", "cost_factors", "statistics", "phase_times"):
                    for key, value in original[side][section].items():
                        new = payload[side][section][key]
                        if isinstance(value, float):
                            assert (1 - JITTER) * value <= new <= (1 + JITTER) * value
                        else:
                            assert new == value
            for key in ("input_bytes", "split_bytes", "num_map_tasks", "job_name"):
                assert payload[key] == original[key]

    def test_source_payload_untouched(self):
        payload = _profile_payload("a")
        before = repr(payload)
        jitter_profile_dict(payload, random.Random(0))
        assert repr(payload) == before


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_speed_scale_is_reference_over_median(self):
        assert speed_scale([2.0, 4.0, 100.0]) == pytest.approx(0.5 ** LOAD_SENSITIVITY)
        assert speed_scale([2.0]) == pytest.approx(1.0)

    def test_chunk_timer_excludes_calibration_time(self):
        clock = FakeClock()

        def calibrate() -> float:
            clock.now += 50.0  # calibration takes wall time, not work time
            return 4.0

        timer = ChunkTimer(calibrate=calibrate, clock=clock)
        clock.now += 1.0
        timer.tick()
        clock.now += 2.0
        timer.tick()
        assert timer.work_seconds == pytest.approx(3.0)
        assert timer.calibrated_seconds() == pytest.approx(3.0 * 0.5 ** LOAD_SENSITIVITY)
