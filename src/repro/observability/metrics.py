"""Thread-safe metrics: counters, gauges, and fixed-bucket histograms.

The registry is the unit of collection: instrumented components ask it for
instruments by name (plus optional static labels) and record into them;
exporters (``repro.observability.export``) walk ``registry.collect()``.

A *disabled* registry hands out shared no-op instruments, so the cost of
instrumentation on a hot path collapses to an attribute check and an empty
method call — cheap enough to leave the calls inline in the simulator's
inner loops (benchmarked in ``benchmarks/test_observability_overhead.py``).
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "SIM_SECONDS_BUCKETS",
]

#: General-purpose bucket boundaries (unitless values around 1).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: Wall-clock latencies of in-process operations (seconds).
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.25, 1.0,
)
#: Small cardinalities: candidate-set sizes, rows per scan, waves.
COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)
#: Simulated durations (seconds of modelled cluster time).
SIM_SECONDS_BUCKETS: tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Batches at least this long take :meth:`Histogram.observe_many`'s
#: vectorized path; shorter ones are cheaper observed one by one (each
#: numpy call costs microseconds, more on a cold cache).
_VECTORIZE_FROM = 64


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Common identity/bookkeeping of one named instrument."""

    kind: str = "instrument"

    def __init__(
        self, name: str, description: str, labels: Mapping[str, str] | None
    ) -> None:
        self.name = name
        self.description = description
        self.labels: dict[str, str] = dict(_label_key(labels))
        self._lock = threading.Lock()

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, _label_key(self.labels))


class Counter(_Instrument):
    """Monotonically increasing accumulator."""

    kind = "counter"

    def __init__(self, name, description="", labels=None) -> None:
        super().__init__(name, description, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge(_Instrument):
    """A value that can go up and down (waves in flight, occupancy, ...)."""

    kind = "gauge"

    def __init__(self, name, description="", labels=None) -> None:
        super().__init__(name, description, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Instrument):
    """Fixed-boundary histogram with a quantile summary.

    Boundaries are inclusive upper bounds (Prometheus ``le`` semantics);
    an implicit ``+Inf`` bucket catches the tail.  Quantiles are estimated
    by linear interpolation inside the winning bucket, clamped to the
    observed min/max so single-observation histograms report exact values.
    """

    kind = "histogram"

    def __init__(
        self,
        name,
        description="",
        labels=None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, description, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket boundaries must be strictly increasing")
        if any(b != b or b in (float("inf"), float("-inf")) for b in bounds):
            raise ValueError("bucket boundaries must be finite")
        self.boundaries = bounds
        self._bound_array = np.asarray(bounds, dtype=np.float64)
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float] | np.ndarray) -> None:
        """:meth:`observe` each value in order, under one lock acquisition.

        Both paths keep the scalar semantics exactly: a value counts in
        the first bucket whose bound is ``>=`` it (``bisect_left``, so
        NaN counts in the first bucket), the sum adds the values one at
        a time in order (bit-identical to repeated :meth:`observe`), NaN
        is never taken as min or max, and among equal extremes (``0.0``
        and ``-0.0``) the first one observed is kept.  Below
        ``_VECTORIZE_FROM`` values a per-value loop is cheaper than
        numpy's fixed cost per call; from there on one vectorized pass
        sums with a sequential ``cumsum`` seeded with the running sum.
        """
        if not isinstance(values, np.ndarray):
            values = np.fromiter(values, dtype=np.float64)
        array = values.astype(np.float64, copy=False).reshape(-1)
        if not array.size:
            return
        if array.size < _VECTORIZE_FROM:
            self._observe_each(array.tolist())
        else:
            self._observe_array(array)

    def _observe_each(self, values: list[float]) -> None:
        bounds = self.boundaries
        indices = [bisect.bisect_left(bounds, value) for value in values]
        with self._lock:
            counts = self._counts
            for index in indices:
                counts[index] += 1
            self._count += len(values)
            total = self._sum
            for value in values:
                total += value
            self._sum = total
            self._min = min(self._min, *values)
            self._max = max(self._max, *values)

    def _observe_array(self, array: np.ndarray) -> None:
        indices = np.searchsorted(self._bound_array, array, side="left")
        # argmin/argmax return the first of equal extremes, as the
        # scalar strict comparisons keep it.
        low = float(array[array.argmin()])
        high = float(array[array.argmax()])
        if low != low or high != high:
            # argmin/argmax stop at the first NaN.  bisect_left counts
            # NaN in bucket 0 (searchsorted sorts it past the bounds),
            # and the scalar comparisons never take it as min or max.
            nan = np.isnan(array)
            indices[nan] = 0
            finite = array[~nan]
            low = float(finite[finite.argmin()]) if finite.size else math.inf
            high = float(finite[finite.argmax()]) if finite.size else -math.inf
        added = np.bincount(indices, minlength=len(self._counts)).tolist()
        with self._lock:
            self._counts = [
                count + extra for count, extra in zip(self._counts, added)
            ]
            self._count += array.size
            running = np.concatenate(((self._sum,), array))
            # Python float addition overflows to inf (and inf - inf to
            # NaN) silently; so does this.
            with np.errstate(over="ignore", invalid="ignore"):
                self._sum = float(running.cumsum()[-1])
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high

    # -- read side -----------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def minimum(self) -> float | None:
        return None if self._count == 0 else self._min

    @property
    def maximum(self) -> float | None:
        return None if self._count == 0 else self._max

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, total)``."""
        pairs = []
        cumulative = 0
        for bound, count in zip(self.boundaries, self._counts):
            cumulative += count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), self._count))
        return pairs

    def quantile(self, q: float) -> float | None:
        """Estimated q-quantile (0 <= q <= 1), or None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return None
            target = q * self._count
            cumulative = 0
            for index, count in enumerate(self._counts):
                if count == 0:
                    continue
                lower = cumulative
                cumulative += count
                if cumulative >= target:
                    low = self.boundaries[index - 1] if index > 0 else self._min
                    high = (
                        self.boundaries[index]
                        if index < len(self.boundaries)
                        else self._max
                    )
                    low = max(low, self._min)
                    high = min(high, self._max)
                    if high <= low or count == 0:
                        return low
                    fraction = (target - lower) / count
                    return low + (high - low) * min(1.0, max(0.0, fraction))
            return self._max

    def summary(self) -> dict[str, float | int | None]:
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


# ----------------------------------------------------------------------
# No-op instruments handed out by disabled registries
# ----------------------------------------------------------------------
class _NullCounter:
    kind = "counter"
    name = ""
    labels: dict[str, str] = {}
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def reset(self) -> None:
        pass


class _NullGauge:
    kind = "gauge"
    name = ""
    labels: dict[str, str] = {}
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def reset(self) -> None:
        pass


class _NullHistogram:
    kind = "histogram"
    name = ""
    labels: dict[str, str] = {}
    boundaries: tuple[float, ...] = ()
    count = 0
    sum = 0.0
    minimum = None
    maximum = None

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    def bucket_counts(self) -> list[tuple[float, int]]:
        return []

    def quantile(self, q: float) -> None:
        return None

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "p50": None, "p90": None, "p99": None}

    def reset(self) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Factory and collection point for instruments.

    Args:
        enabled: when False every ``counter``/``gauge``/``histogram`` call
            returns a shared no-op instrument and nothing is recorded.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[tuple, _Instrument] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, description, labels, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                _check_name(name)
                instrument = cls(name, description, labels, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(
        self,
        name: str,
        description: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get_or_create(Counter, name, description, labels)

    def gauge(
        self,
        name: str,
        description: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get_or_create(Gauge, name, description, labels)

    def histogram(
        self,
        name: str,
        description: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get_or_create(
            Histogram, name, description, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    def collect(self) -> list[_Instrument]:
        """All registered instruments, sorted by (name, labels)."""
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: i.key)

    def get(self, name: str, labels: Mapping[str, str] | None = None):
        """Look up an existing instrument, or None."""
        return self._instruments.get((name, _label_key(labels)))

    def names(self) -> list[str]:
        return sorted({i.name for i in self._instruments.values()})

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for instrument in self.collect():
            instrument.reset()

    def clear(self) -> None:
        """Forget every instrument."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)
