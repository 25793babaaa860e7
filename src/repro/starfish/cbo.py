"""The Starfish cost-based optimizer (CBO).

Searches the 14-parameter configuration space with recursive random search
(the strategy the Starfish job optimizer uses): a broad random sampling of
the space, followed by rounds of local perturbation around the elite
configurations, always scoring candidates with the What-If engine.  The
recommendation is the best-predicted configuration found — so the quality
of the recommendation is bounded by the quality of the profile given to
the WIF engine, which is exactly what PStorM's matcher competes on.

The search is columnar end to end: candidate generations are drawn as
``(n, 14)`` NumPy matrices (one vectorized RNG call per parameter instead
of one scalar call per parameter *per candidate*), each priced in one
:meth:`WhatIfEngine.predict_matrix` call, and ranked in a bounded top-K
pool instead of an ever-growing re-sorted list.  Because the batched
predictions are bit-identical to scalar ``predict()`` and ties break on
insertion order exactly like a stable sort, the search returns the same
recommendation as scoring the same candidate stream one scalar
``predict()`` at a time (the reference search kept in
``tests/cbo_oracle.py``).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from ..hadoop.config import CONFIGURATION_SPACE, JobConfiguration, ParameterSpec
from ..observability import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from .profile import JobProfile
from .whatif import WhatIfEngine

__all__ = ["CostBasedOptimizer", "OptimizationResult"]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a CBO search."""

    best_config: JobConfiguration
    predicted_runtime: float
    evaluations: int
    default_predicted_runtime: float

    @property
    def predicted_speedup(self) -> float:
        """Predicted improvement over the default configuration."""
        if self.predicted_runtime <= 0:
            return 1.0
        return self.default_predicted_runtime / self.predicted_runtime


_DEFAULT_ROW: np.ndarray = np.array(
    [float(spec.default) for spec in CONFIGURATION_SPACE]
)
#: Relative width of a local (non-log) perturbation move.
_PERTURB_SPAN = 0.15
#: Sigma of the multiplicative log-space perturbation move.
_PERTURB_SIGMA = 0.35
#: Probability that a refinement move touches any given parameter.
_PERTURB_PROBABILITY = 0.4


def _clamp_column(
    spec: ParameterSpec, values: np.ndarray, reducer_cap: int | None
) -> np.ndarray:
    """Vectorized :meth:`ParameterSpec.clamp` over one candidate column."""
    if spec.kind == "bool":
        return values
    high = float(spec.high)
    if reducer_cap is not None and spec.attribute == "num_reduce_tasks":
        high = min(high, float(reducer_cap))
    values = np.clip(values, float(spec.low), high)
    if spec.kind == "int":
        values = np.rint(values)
    return values


def _random_matrix(
    rng: np.random.Generator, n: int, reducer_cap: int | None
) -> np.ndarray:
    """Draw *n* random legal configurations as an ``(n, 14)`` matrix.

    One vectorized RNG call per parameter — booleans as a Bernoulli column,
    log-scale parameters as ``exp(uniform(log low, log high))``, the rest
    uniform over their legal range — in Table 2.1 order, so the draw is
    fully determined by the generator state.
    """
    matrix = np.empty((n, len(CONFIGURATION_SPACE)))
    for j, spec in enumerate(CONFIGURATION_SPACE):
        if spec.kind == "bool":
            column = rng.integers(0, 2, size=n).astype(np.float64)
        elif spec.log_scale:
            low = math.log(max(float(spec.low), 1e-9))
            column = np.exp(rng.uniform(low, math.log(float(spec.high)), size=n))
        else:
            column = rng.uniform(float(spec.low), float(spec.high), size=n)
        matrix[:, j] = _clamp_column(spec, column, reducer_cap)
    return matrix


def _perturb_matrix(
    rng: np.random.Generator,
    elite_matrix: np.ndarray,
    per_elite: int,
    reducer_cap: int | None,
) -> np.ndarray:
    """Generate ``per_elite`` local neighbours of every elite row.

    Each parameter of each neighbour is perturbed independently with
    probability ``_PERTURB_PROBABILITY``: booleans flip, log-scale values
    move by a log-normal factor, linear values by a Gaussian step sized to
    the parameter's range.  Unperturbed entries are copied bit-exactly.
    """
    base = np.repeat(elite_matrix, per_elite, axis=0)
    out = base.copy()
    n = len(base)
    for j, spec in enumerate(CONFIGURATION_SPACE):
        perturb = rng.random(n) < _PERTURB_PROBABILITY
        current = base[:, j]
        if spec.kind == "bool":
            out[:, j] = np.where(perturb, 1.0 - current, current)
            continue
        if spec.log_scale:
            moved = current * np.exp(rng.normal(0.0, _PERTURB_SIGMA, size=n))
        else:
            span = (float(spec.high) - float(spec.low)) * _PERTURB_SPAN
            moved = current + rng.normal(0.0, span, size=n)
        out[:, j] = np.where(
            perturb, _clamp_column(spec, moved, reducer_cap), current
        )
    return out


def _config_from_row(row: np.ndarray) -> JobConfiguration:
    """Materialize one candidate-matrix row as a :class:`JobConfiguration`."""
    attrs: dict[str, object] = {}
    for j, spec in enumerate(CONFIGURATION_SPACE):
        value = row[j]
        if spec.kind == "bool":
            attrs[spec.attribute] = bool(value)
        elif spec.kind == "int":
            attrs[spec.attribute] = int(value)
        else:
            attrs[spec.attribute] = float(value)
    return JobConfiguration(**attrs)


class _TopK:
    """Bounded best-K pool ranked by (runtime, insertion index).

    Replaces the unbounded ``scored`` list + full re-sort per refine round:
    a size-K max-heap keeps exactly the K candidates a stable
    sort-by-runtime would rank first, because ties fall back to insertion
    order just like Python's stable ``list.sort``.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, capacity)
        self._heap: list[tuple[float, int, np.ndarray]] = []
        self._inserted = 0

    def push(self, runtime: float, row: np.ndarray) -> None:
        entry = (-runtime, -self._inserted, row)
        self._inserted += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        else:
            heapq.heappushpop(self._heap, entry)

    def ranked(self) -> list[tuple[float, np.ndarray]]:
        """Contents as (runtime, row), best first; ties by insertion."""
        ordered = sorted(
            ((-r, -i, row) for r, i, row in self._heap),
            key=lambda entry: (entry[0], entry[1]),
        )
        return [(runtime, row) for runtime, __, row in ordered]


@dataclass
class CostBasedOptimizer:
    """Recursive-random-search optimizer over the WIF engine.

    Attributes:
        whatif: the What-If engine used as the objective.
        num_samples: size of the initial random sampling.
        refine_rounds: rounds of local perturbation.
        elite: how many best configurations seed each refinement round.
        perturbations_per_elite: neighbours generated per elite per round.
        max_reducers: optional cap on ``mapred.reduce.tasks`` during the
            search; defaults to the parameter's full range, since huge
            shuffles genuinely profit from many reducer waves.
        seed: RNG seed; the search is fully deterministic.
        registry: metrics sink; None falls back to the module default.
    """

    whatif: WhatIfEngine
    num_samples: int = 120
    refine_rounds: int = 3
    elite: int = 5
    perturbations_per_elite: int = 6
    max_reducers: int | None = None
    seed: int = 0
    registry: MetricsRegistry | None = None

    # ------------------------------------------------------------------
    def optimize(
        self,
        profile: JobProfile,
        data_bytes: int | None = None,
    ) -> OptimizationResult:
        """Search for the configuration with the lowest predicted runtime.

        Each candidate generation is priced in one batched What-If call;
        the recommendation is byte-identical to scoring the same
        candidates one scalar ``predict()`` at a time.
        """
        registry = get_registry(self.registry)
        started = time.perf_counter()
        rng = np.random.default_rng(self.seed)

        evaluations = 0
        pool = _TopK(self.elite)

        matrix = np.vstack(
            [
                _DEFAULT_ROW[None, :],
                _random_matrix(rng, self.num_samples, self.max_reducers),
            ]
        )
        runtimes = self._score_matrix(profile, matrix, data_bytes, registry)
        evaluations += len(runtimes)
        default_runtime = runtimes[0]
        for runtime, row in zip(runtimes, matrix):
            pool.push(runtime, row)

        for __ in range(self.refine_rounds):
            elites = pool.ranked()[: self.elite]
            elite_matrix = np.array([row for __, row in elites])
            matrix = _perturb_matrix(
                rng, elite_matrix, self.perturbations_per_elite, self.max_reducers
            )
            runtimes = self._score_matrix(profile, matrix, data_bytes, registry)
            evaluations += len(runtimes)
            for runtime, row in zip(runtimes, matrix):
                pool.push(runtime, row)

        best_runtime, best_row = pool.ranked()[0]
        registry.counter(
            "cbo_optimizations_total", "CBO searches completed"
        ).inc()
        registry.histogram(
            "cbo_optimize_seconds",
            "wall time of one CBO search",
            buckets=LATENCY_BUCKETS,
        ).observe(time.perf_counter() - started)
        return OptimizationResult(
            best_config=_config_from_row(best_row),
            predicted_runtime=best_runtime,
            evaluations=evaluations,
            default_predicted_runtime=default_runtime,
        )

    # ------------------------------------------------------------------
    def _score_matrix(
        self,
        profile: JobProfile,
        matrix: np.ndarray,
        data_bytes: int | None,
        registry: MetricsRegistry,
    ) -> list[float]:
        """Price one generation in a single batched What-If call."""
        if len(matrix) == 0:
            return []
        registry.histogram(
            "cbo_generation_size",
            "candidates per scored generation",
            buckets=COUNT_BUCKETS,
        ).observe(len(matrix))
        return self.whatif.predict_matrix(
            profile, matrix, data_bytes
        ).runtime_seconds.tolist()
