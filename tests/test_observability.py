"""Unit tests for the observability subsystem.

Covers instrument semantics (counter/gauge/histogram, bucket edges,
quantiles, reset), registry behaviour (get-or-create, kind conflicts,
disabled no-ops), span production (nesting, ordering, ring-buffer
eviction), and the three export formats.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.observability import (
    DEFAULT_BUCKETS,
    DISABLED_REGISTRY,
    DISABLED_TRACER,
    SIMULATED_CLOCK,
    WALL_CLOCK,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    default_registry,
    default_tracer,
    get_registry,
    get_tracer,
    set_default_registry,
    set_default_tracer,
)
from repro.observability import export


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("requests_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        assert counter.value == 0.0

    def test_reset(self):
        counter = Counter("requests_total")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("in_flight")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0
        gauge.dec(20)
        assert gauge.value == -7.0  # gauges may go negative

    def test_reset(self):
        gauge = Gauge("in_flight")
        gauge.set(42)
        gauge.reset()
        assert gauge.value == 0.0


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (1.0, 1.5, 2.0, 3.0, 0.5):
            hist.observe(value)
        # 0.5 and 1.0 fall in le=1; 1.5 and 2.0 in le=2; 3.0 overflows.
        assert hist.bucket_counts() == [
            (1.0, 2),
            (2.0, 4),
            (math.inf, 5),
        ]

    def test_count_sum_min_max(self):
        hist = Histogram("h", buckets=(10.0,))
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(12.0)
        assert hist.minimum == 2.0
        assert hist.maximum == 6.0

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64)
            | st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-300]),
            max_size=40,
        ),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
    )
    def test_observe_many_equals_repeated_observe(self, values, earlier):
        one_by_one = Histogram("h", buckets=(0.0, 1.0, 2.0, 1e6))
        batched = Histogram("h", buckets=(0.0, 1.0, 2.0, 1e6))
        for value in earlier:
            one_by_one.observe(value)
            batched.observe(value)
        for value in values:
            one_by_one.observe(value)
        batched.observe_many(values)
        assert batched.bucket_counts() == one_by_one.bucket_counts()
        assert batched.count == one_by_one.count
        assert batched.sum.hex() == one_by_one.sum.hex()
        assert repr(batched.minimum) == repr(one_by_one.minimum)
        assert repr(batched.maximum) == repr(one_by_one.maximum)

    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64)
            | st.sampled_from(
                [0.0, -0.0, 1.0, 2.0, 1e6, math.inf, -math.inf, math.nan]
            ),
            max_size=160,
        ),
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, math.nan]),
            max_size=5,
        ),
    )
    def test_observe_many_of_an_ndarray_equals_repeated_observe(
        self, values, earlier
    ):
        # Bucket bounds themselves, ±inf and NaN: bisect_left counts NaN
        # in bucket 0 and the scalar min/max never take it.
        one_by_one = Histogram("h", buckets=(0.0, 1.0, 2.0, 1e6))
        batched = Histogram("h", buckets=(0.0, 1.0, 2.0, 1e6))
        for value in earlier:
            one_by_one.observe(value)
        batched.observe_many(np.asarray(earlier, dtype=np.float64))
        for value in values:
            one_by_one.observe(value)
        batched.observe_many(np.asarray(values, dtype=np.float64))
        assert batched.bucket_counts() == one_by_one.bucket_counts()
        assert batched.count == one_by_one.count
        assert batched.sum.hex() == one_by_one.sum.hex()
        assert repr(batched.minimum) == repr(one_by_one.minimum)
        assert repr(batched.maximum) == repr(one_by_one.maximum)

    @pytest.mark.parametrize("size", [4, 200])
    def test_observe_many_keeps_the_first_of_equal_extremes(self, size):
        # Both the per-value path (short batches) and the vectorized one.
        values = [math.nan, 0.0, -0.0, math.nan] * (size // 4)
        hist = Histogram("h", buckets=(0.0,))
        hist.observe_many(np.asarray(values))
        assert repr(hist.minimum) == repr(hist.maximum) == "0.0"
        assert hist.bucket_counts() == [(0.0, size), (math.inf, size)]

    def test_observe_many_of_a_long_batch_equals_repeated_observe(self):
        rng = np.random.default_rng(7)
        # Finite, so the bit-identical sum pins the summation order.
        values = np.concatenate(
            [rng.choice([0.0, -0.0, 1.0, 2.0, 1e6], 300), rng.normal(1.0, 3.0, 300)]
        )
        rng.shuffle(values)
        one_by_one = Histogram("h", buckets=(0.0, 1.0, 2.0, 1e6))
        batched = Histogram("h", buckets=(0.0, 1.0, 2.0, 1e6))
        for value in values.tolist():
            one_by_one.observe(value)
        batched.observe_many(values)
        assert batched.bucket_counts() == one_by_one.bucket_counts()
        assert batched.count == one_by_one.count
        assert batched.sum.hex() == one_by_one.sum.hex()
        assert repr(batched.minimum) == repr(one_by_one.minimum)
        assert repr(batched.maximum) == repr(one_by_one.maximum)

    def test_observe_many_of_nothing_changes_nothing(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.count == 0 and hist.minimum is None

    def test_disabled_histogram_accepts_observe_many(self):
        DISABLED_REGISTRY.histogram("h").observe_many([1.0, 2.0])

    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.minimum is None
        assert hist.maximum is None
        assert hist.quantile(0.5) is None
        assert hist.bucket_counts()[-1] == (math.inf, 0)

    def test_single_observation_quantiles_exact(self):
        hist = Histogram("h", buckets=DEFAULT_BUCKETS)
        hist.observe(0.42)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.42)

    def test_quantiles_ordered_and_bounded(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0, 50.0, 100.0))
        for value in range(1, 100):
            hist.observe(float(value))
        p50, p90, p99 = (hist.quantile(q) for q in (0.5, 0.9, 0.99))
        assert hist.minimum <= p50 <= p90 <= p99 <= hist.maximum
        # The interpolated median of 1..99 lands near 50.
        assert p50 == pytest.approx(50.0, rel=0.25)

    def test_quantile_out_of_range(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_summary_keys(self):
        hist = Histogram("h")
        hist.observe(0.3)
        summary = hist.summary()
        assert set(summary) == {"count", "sum", "min", "max", "p50", "p90", "p99"}
        assert summary["count"] == 1

    def test_reset(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        hist.reset()
        assert hist.count == 0
        assert hist.sum == 0.0
        assert hist.bucket_counts() == [(1.0, 0), (math.inf, 0)]

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, math.inf))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("jobs_total", "jobs")
        b = registry.counter("jobs_total")
        assert a is b
        assert len(registry) == 1

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", labels={"table": "Jobs"})
        b = registry.counter("ops_total", labels={"table": "Meta"})
        assert a is not b
        a.inc(3)
        assert registry.get("ops_total", labels={"table": "Jobs"}).value == 3
        assert registry.get("ops_total", labels={"table": "Meta"}).value == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.histogram("x_total")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("0starts_with_digit")

    def test_names_and_collect_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("zeta")
        registry.counter("alpha")
        assert registry.names() == ["alpha", "zeta"]
        assert [i.name for i in registry.collect()] == ["alpha", "zeta"]

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(5)
        registry.reset()
        assert len(registry) == 1
        assert registry.get("a_total").value == 0.0

    def test_clear_forgets_everything(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.clear()
        assert len(registry) == 0
        assert registry.get("a_total") is None

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a_total")
        counter.inc(100)
        gauge = registry.gauge("g")
        gauge.set(5)
        hist = registry.histogram("h")
        hist.observe(1.0)
        assert len(registry) == 0
        assert counter.value == 0.0
        assert hist.count == 0
        assert hist.summary()["count"] == 0
        # Shared singletons: no per-call allocation on the disabled path.
        assert registry.counter("b_total") is counter
        assert DISABLED_REGISTRY.counter("c_total") is counter


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer", job="wc") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        # Children complete (and are buffered) before their parents.
        completed = tracer.spans()
        assert [s.name for s in completed] == ["inner", "outer"]
        assert completed[0].parent_id == completed[1].span_id
        assert completed[1].parent_id is None
        assert completed[1].attrs == {"job": "wc"}
        for span in completed:
            assert span.end is not None
            assert span.duration >= 0.0
            assert span.clock == WALL_CLOCK

    def test_set_attr_inside_block(self):
        tracer = Tracer()
        with tracer.span("probe") as span:
            span.set_attr("matched", True)
        assert tracer.spans("probe")[0].attrs["matched"] is True

    def test_record_span_parented_under_active_span(self):
        tracer = Tracer()
        with tracer.span("run_job") as parent:
            recorded = tracer.record_span(
                "map_task", start=0.0, end=12.5, attrs={"task_id": 3}
            )
        assert recorded.parent_id == parent.span_id
        assert recorded.clock == SIMULATED_CLOCK
        assert recorded.duration == pytest.approx(12.5)
        # Simulated spans are buffered immediately, before the parent.
        assert [s.name for s in tracer.spans()] == ["map_task", "run_job"]

    def test_spans_filtering(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.record_span("b", 0.0, 1.0)
        assert [s.name for s in tracer.spans(name="a")] == ["a"]
        assert [s.name for s in tracer.spans(clock=SIMULATED_CLOCK)] == ["b"]
        assert [s.name for s in tracer.spans(clock=WALL_CLOCK)] == ["a"]

    def test_ring_buffer_eviction(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record_span(f"s{i}", 0.0, 1.0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_reset(self):
        tracer = Tracer(capacity=1)
        tracer.record_span("a", 0.0, 1.0)
        tracer.record_span("b", 0.0, 1.0)
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as span:
            span.set_attr("k", "v")  # must not raise
        assert tracer.record_span("b", 0.0, 1.0) is None
        assert len(tracer) == 0
        assert len(DISABLED_TRACER) == 0


# ----------------------------------------------------------------------
# Module defaults and dependency injection
# ----------------------------------------------------------------------
class TestDefaults:
    def test_get_registry_prefers_explicit(self):
        mine = MetricsRegistry()
        assert get_registry(mine) is mine
        assert get_registry(None) is default_registry()
        tracer = Tracer()
        assert get_tracer(tracer) is tracer
        assert get_tracer(None) is default_tracer()

    def test_set_default_roundtrip(self):
        replacement = MetricsRegistry()
        previous = set_default_registry(replacement)
        try:
            assert default_registry() is replacement
        finally:
            set_default_registry(previous)
        assert default_registry() is previous

        new_tracer = Tracer()
        old_tracer = set_default_tracer(new_tracer)
        try:
            assert default_tracer() is new_tracer
        finally:
            set_default_tracer(old_tracer)


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("jobs_total", "jobs run").inc(4)
    registry.counter("rows_total", labels={"table": "Jobs"}).inc(7)
    registry.gauge("waves", "map waves").set(2)
    hist = registry.histogram("latency_seconds", "op latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return registry


class TestExport:
    def test_registry_to_dict(self):
        snapshot = export.registry_to_dict(_populated_registry())
        assert snapshot["counters"]["jobs_total"] == 4.0
        assert snapshot["counters"]['rows_total{table="Jobs"}'] == 7.0
        assert snapshot["gauges"]["waves"] == 2.0
        hist = snapshot["histograms"]["latency_seconds"]
        assert hist["count"] == 3
        assert hist["buckets"] == [
            {"le": "0.1", "count": 1},
            {"le": "1", "count": 2},
            {"le": "+Inf", "count": 3},
        ]
        assert hist["min"] == 0.05
        assert hist["max"] == 5.0

    def test_json_roundtrips(self):
        registry = _populated_registry()
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record_span("task", 0.0, 3.0, attrs={"task_id": 1})
        text = export.to_json(registry, tracer)
        parsed = json.loads(text)
        assert parsed == export.snapshot(registry, tracer)
        assert parsed["trace"]["capacity"] == tracer.capacity
        assert parsed["trace"]["dropped"] == 0
        names = [s["name"] for s in parsed["trace"]["spans"]]
        assert names == ["task", "outer"]
        spans = parsed["trace"]["spans"]
        assert spans[0]["parent_id"] == spans[1]["span_id"]
        assert spans[0]["duration"] == pytest.approx(3.0)

    def test_prometheus_text_format(self):
        text = export.to_prometheus(_populated_registry())
        lines = text.splitlines()
        assert "# HELP jobs_total jobs run" in lines
        assert "# TYPE jobs_total counter" in lines
        assert "jobs_total 4" in lines
        assert 'rows_total{table="Jobs"} 7' in lines
        assert "# TYPE waves gauge" in lines
        assert "waves 2" in lines
        assert "# TYPE latency_seconds histogram" in lines
        assert 'latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'latency_seconds_bucket{le="1"} 2' in lines
        assert 'latency_seconds_bucket{le="+Inf"} 3' in lines
        assert "latency_seconds_count 3" in lines
        assert any(line.startswith("latency_seconds_sum ") for line in lines)
        assert text.endswith("\n")

    def test_empty_registry_exports(self):
        registry = MetricsRegistry()
        assert export.registry_to_dict(registry) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert export.to_prometheus(registry) == ""
        parsed = json.loads(export.to_json(registry, Tracer()))
        assert parsed["trace"]["spans"] == []


# ----------------------------------------------------------------------
# The catalogue in docs/observability.md cannot drift from the code
# ----------------------------------------------------------------------
_KINDS = ("counter", "gauge", "histogram")


def _registered_instruments(src):
    """``{name: kind}`` for every instrument a ``counter``/``gauge``/
    ``histogram`` call (or a module's ``_counter`` helper) registers
    under ``src/``.  An f-string name becomes a pattern with ``*`` for
    each interpolated part."""
    import ast

    found = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _KINDS + ("_counter",)
                and node.args
            ):
                continue
            kind = node.func.attr.lstrip("_")
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                found[name.value] = kind
            elif isinstance(name, ast.JoinedStr):
                found["".join(
                    part.value if isinstance(part, ast.Constant) else "*"
                    for part in name.values
                )] = kind
            # Anything else is a helper forwarding its parameter; its
            # callers are the registrations.
    return found


def _expand(name):
    """``a_{x,y}_b{labels}`` -> ``[a_x_b, a_y_b]``: a trailing brace
    group is the label list, any other one an alternation."""
    import re

    name = re.sub(r"\{[^}]*\}$", "", name)
    match = re.search(r"\{([^}]*)\}", name)
    if match is None:
        return [name]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in _expand(
            name[: match.start()] + option.strip() + name[match.end():]
        )
    ]


def _catalogued_instruments(doc):
    """``{name: kind}`` for every row of the catalogue's tables."""
    import re

    found = {}
    for line in doc.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[1] not in _KINDS:
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            for expanded in _expand(name):
                found[expanded] = cells[1]
    return found


def test_catalogue_lists_exactly_the_registered_instruments():
    from fnmatch import fnmatchcase
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parent
    registered = _registered_instruments(src)
    catalogued = _catalogued_instruments(
        src.parents[1] / "docs" / "observability.md"
    )
    patterns = {name: kind for name, kind in registered.items() if "*" in name}
    exact = {name: kind for name, kind in registered.items() if "*" not in name}

    def registered_kind(name):
        if name in exact:
            return exact[name]
        for pattern, kind in patterns.items():
            if fnmatchcase(name, pattern):
                return kind
        return None

    undocumented = sorted(set(exact) - set(catalogued))
    assert not undocumented, f"registered but not in the catalogue: {undocumented}"
    for pattern in patterns:
        assert any(fnmatchcase(name, pattern) for name in catalogued), pattern
    stale = sorted(name for name in catalogued if registered_kind(name) is None)
    assert not stale, f"catalogued but never registered: {stale}"
    wrong_kind = sorted(
        (name, kind, registered_kind(name))
        for name, kind in catalogued.items()
        if registered_kind(name) != kind
    )
    assert not wrong_kind, wrong_kind
