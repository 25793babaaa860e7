"""The common tuner protocol over the 14-parameter space.

PStorM's paper feeds matched profiles to exactly one optimizer — the
Starfish CBO.  This package widens that single point into a *family*:
every tuner answers the same question ("given this profile, which
configuration minimizes the What-If-predicted runtime?") through the
same :class:`Tuner` protocol, so the submit path, the serving layer,
and the league harness can swap search strategies freely.

Shared machinery lives here:

- :class:`TunerDecision` — the common result shape (a superset of the
  CBO's ``OptimizationResult`` fields, plus the tuner's name and an
  optional evaluated-candidate history used by the bounds property
  tests).
- The **unit-cube mapping**: the surrogate searches in ``u ∈ [0, 1]^14``
  where projection onto bounds is a plain ``clip``;
  :func:`row_from_unit` maps a cube point to a legal parameter-unit row
  (log-scale dimensions interpolate in log space, integers round,
  booleans threshold at 0.5) and :func:`unit_from_row` inverts it.
- :class:`WhatIfObjective` — a counting, memoizing wrapper around
  ``WhatIfEngine.predict`` keyed on the quantized parameter vector, so
  every candidate considered counts toward ``evaluations`` and
  duplicates that never reached the engine count toward ``memo_hits``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..hadoop.config import CONFIGURATION_SPACE, JobConfiguration
from ..observability import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from ..starfish.cbo import _config_from_row
from ..starfish.profile import JobProfile
from ..starfish.whatif import WhatIfEngine

__all__ = [
    "Tuner",
    "TunerDecision",
    "WhatIfObjective",
    "config_from_row",
    "row_from_config",
    "row_from_unit",
    "unit_from_row",
    "record_decision_metrics",
]

#: Dimensionality of the search space (the paper's Table 2.1).
DIMENSIONS = len(CONFIGURATION_SPACE)

#: Parameter-unit default row, in Table 2.1 column order.
DEFAULT_ROW: np.ndarray = np.array(
    [float(spec.default) for spec in CONFIGURATION_SPACE]
)


@dataclass(frozen=True)
class TunerDecision:
    """Outcome of one tuner search — the family-wide result shape."""

    #: Registry name of the tuner that produced this decision.
    tuner: str
    best_config: JobConfiguration
    predicted_runtime: float
    default_predicted_runtime: float
    #: Candidates considered, memo hits included (the CBO convention).
    evaluations: int
    #: Candidates answered from a memo instead of the What-If engine.
    memo_hits: int = 0
    #: Every evaluated candidate as ``(config, predicted_runtime)``, in
    #: evaluation order.  Vector tuners fill this (the bounds property
    #: tests walk it); adapters leave it empty.
    history: tuple[tuple[JobConfiguration, float], ...] = ()

    @property
    def predicted_speedup(self) -> float:
        """Predicted improvement over the default configuration."""
        if self.predicted_runtime <= 0:
            return 1.0
        return self.default_predicted_runtime / self.predicted_runtime


@runtime_checkable
class Tuner(Protocol):
    """What every member of the tuner family answers."""

    name: str

    def optimize(
        self,
        profile: JobProfile,
        data_bytes: int | None = None,
    ) -> TunerDecision:  # pragma: no cover - protocol signature
        ...


# ----------------------------------------------------------------------
# Unit-cube mapping
# ----------------------------------------------------------------------
def _cube_bounds() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lows = np.empty(DIMENSIONS)
    highs = np.empty(DIMENSIONS)
    log_mask = np.zeros(DIMENSIONS, dtype=bool)
    bool_mask = np.zeros(DIMENSIONS, dtype=bool)
    for j, spec in enumerate(CONFIGURATION_SPACE):
        if spec.kind == "bool":
            lows[j], highs[j] = 0.0, 1.0
            bool_mask[j] = True
            continue
        log_mask[j] = spec.log_scale
        if spec.log_scale:
            lows[j] = math.log(max(float(spec.low), 1e-9))
            highs[j] = math.log(float(spec.high))
        else:
            lows[j] = float(spec.low)
            highs[j] = float(spec.high)
    return lows, highs, log_mask, bool_mask


_LOWS, _HIGHS, _LOG_MASK, _BOOL_MASK = _cube_bounds()
_SPANS = _HIGHS - _LOWS
_INT_COLUMNS = tuple(
    j for j, spec in enumerate(CONFIGURATION_SPACE) if spec.kind == "int"
)
_FLOAT_COLUMNS = tuple(
    j for j, spec in enumerate(CONFIGURATION_SPACE) if spec.kind == "float"
)


def row_from_unit(unit: np.ndarray) -> np.ndarray:
    """Map one unit-cube point to a legal parameter-unit row.

    Log-scale dimensions interpolate between ``log(low)`` and
    ``log(high)``, integers round to the nearest legal value, booleans
    threshold at 0.5.  Any input is clipped into the cube first, so the
    result is *always* inside every parameter's bounds — projection and
    decoding are one step.
    """
    unit = np.clip(np.asarray(unit, dtype=np.float64), 0.0, 1.0)
    values = _LOWS + unit * _SPANS
    values = np.where(_LOG_MASK, np.exp(values), values)
    values = np.where(_BOOL_MASK, (unit >= 0.5).astype(np.float64), values)
    for j in _INT_COLUMNS:
        spec = CONFIGURATION_SPACE[j]
        values[j] = min(
            float(spec.high), max(float(spec.low), float(np.rint(values[j])))
        )
    return values


def unit_from_row(row: np.ndarray) -> np.ndarray:
    """Inverse of :func:`row_from_unit` up to integer rounding."""
    row = np.asarray(row, dtype=np.float64)
    scaled = np.where(_LOG_MASK, np.log(np.maximum(row, 1e-9)), row)
    unit = (scaled - _LOWS) / np.where(_SPANS == 0.0, 1.0, _SPANS)
    unit = np.where(_BOOL_MASK, np.where(row >= 0.5, 1.0, 0.0), unit)
    return np.clip(unit, 0.0, 1.0)


def config_from_row(row: np.ndarray) -> JobConfiguration:
    """Materialize a parameter-unit row as a :class:`JobConfiguration`."""
    return _config_from_row(row)


def row_from_config(config: JobConfiguration) -> np.ndarray:
    """Parameter-unit row of *config*, in Table 2.1 column order."""
    return np.array(
        [float(getattr(config, spec.attribute)) for spec in CONFIGURATION_SPACE]
    )


# ----------------------------------------------------------------------
# The shared objective
# ----------------------------------------------------------------------
def _quantize_matrix(matrix: np.ndarray) -> np.ndarray:
    """Round float columns to 12 significant digits (memo-key resolution).

    Integer and boolean columns are already exact by construction.  Twelve
    significant digits keeps the chance of two *distinct* candidates
    colliding far below anything a search could produce, while candidates
    that decode to the same legal row land on identical keys.
    """
    quantized = matrix.copy()
    for j in _FLOAT_COLUMNS:
        column = quantized[:, j]
        nonzero = column != 0.0
        safe = np.where(nonzero, np.abs(column), 1.0)
        scale = np.power(10.0, 11.0 - np.floor(np.log10(safe)))
        quantized[:, j] = np.where(
            nonzero, np.round(column * scale) / scale, 0.0
        )
    return quantized


class WhatIfObjective:
    """Counting, memoizing view of the What-If cost surface.

    One instance per search: it prices parameter-unit rows through
    ``WhatIfEngine.predict``, dedupes on a quantized key so a revisited
    candidate is free, and keeps the evaluated-candidate
    history the bounds property tests inspect.
    """

    def __init__(
        self,
        whatif: WhatIfEngine,
        profile: JobProfile,
        data_bytes: int | None = None,
    ) -> None:
        self.whatif = whatif
        self.profile = profile
        self.data_bytes = data_bytes
        self.evaluations = 0
        self.memo_hits = 0
        self._memo: dict[bytes, float] = {}
        self._history: list[tuple[JobConfiguration, float]] = []

    def __call__(self, row: np.ndarray) -> float:
        """Predicted runtime of one parameter-unit candidate row."""
        self.evaluations += 1
        key = _quantize_matrix(np.asarray(row, dtype=np.float64)[None, :]).tobytes()
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        config = _config_from_row(np.asarray(row, dtype=np.float64))
        runtime = float(
            self.whatif.predict(self.profile, config, self.data_bytes).runtime_seconds
        )
        self._memo[key] = runtime
        self._history.append((config, runtime))
        return runtime

    def price_unit(self, unit: np.ndarray) -> tuple[np.ndarray, float]:
        """Price a unit-cube point; returns its legal row and runtime."""
        row = row_from_unit(unit)
        return row, self(row)

    @property
    def history(self) -> tuple[tuple[JobConfiguration, float], ...]:
        """Engine-priced candidates as ``(config, runtime)``, in order."""
        return tuple(self._history)


# ----------------------------------------------------------------------
# Shared instrumentation
# ----------------------------------------------------------------------
def record_decision_metrics(
    decision: TunerDecision,
    started: float,
    registry: MetricsRegistry | None,
) -> None:
    """Count one finished search under the ``tuner_*`` metric names."""
    sink = get_registry(registry)
    labels = {"tuner": decision.tuner}
    sink.counter(
        "tuner_optimizations_total", "tuner searches completed", labels=labels
    ).inc()
    sink.histogram(
        "tuner_evaluations",
        "What-If candidates considered per search (memo hits included)",
        labels=labels,
        buckets=COUNT_BUCKETS,
    ).observe(float(decision.evaluations))
    sink.histogram(
        "tuner_predicted_speedup",
        "predicted speedup over the default configuration per search",
        labels=labels,
        buckets=(0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0),
    ).observe(decision.predicted_speedup)
    sink.histogram(
        "tuner_optimize_seconds",
        "wall time of one tuner search",
        labels=labels,
        buckets=LATENCY_BUCKETS,
    ).observe(time.perf_counter() - started)


def traced_optimize(
    tuner_name: str,
    tracer: Tracer | None,
    registry: MetricsRegistry | None,
    run: "Any",
) -> TunerDecision:
    """Run one search under the ``tuner.optimize`` span + metrics."""
    started = time.perf_counter()
    with get_tracer(tracer).span("tuner.optimize", tuner=tuner_name) as span:
        decision: TunerDecision = run()
        span.set_attr("evaluations", decision.evaluations)
        span.set_attr("predicted_speedup", round(decision.predicted_speedup, 4))
    record_decision_metrics(decision, started, registry)
    return decision
