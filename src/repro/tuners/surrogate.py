"""Surrogate tuner: a Bayesian-style model fit over What-If evaluations.

Where the CBO samples the cost surface at random, this tuner *models*
it: a Gaussian-kernel ridge surrogate is fit over every candidate evaluated so
far (in unit-cube coordinates), and each round evaluates the point of a
seeded candidate pool that minimizes a lower-confidence-bound style
acquisition — surrogate mean minus an exploration bonus proportional to
the distance from the nearest evaluated point.  All linear algebra is
plain deterministic NumPy (no SciPy optimizers), so the search is
bit-reproducible for a fixed seed.

Warm starting (the PStorM angle): when a profile store is supplied, the
initial design is seeded from **matched-profile history** — the stored
profiles closest in input size to the probe job contribute (a) the
Appendix-B RBO recommendation computed *from their own profile* and (b)
a "shape echo" carrying their observed reducer count.  A store that has
seen similar jobs therefore starts the surrogate in regions that worked
before, instead of uniform noise; an unreachable store (chaos) silently
degrades to the cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..hadoop.config import CONFIGURATION_SPACE
from ..observability import MetricsRegistry, Tracer, get_registry
from ..starfish.profile import JobProfile
from ..starfish.rbo import RuleBasedOptimizer
from ..starfish.whatif import WhatIfEngine
from .base import (
    DEFAULT_ROW,
    DIMENSIONS,
    TunerDecision,
    WhatIfObjective,
    config_from_row,
    row_from_config,
    traced_optimize,
    unit_from_row,
)

__all__ = ["SurrogateTuner"]

#: Column of ``mapred.reduce.tasks`` in Table 2.1 order.
_REDUCE_COLUMN = next(
    j
    for j, spec in enumerate(CONFIGURATION_SPACE)
    if spec.attribute == "num_reduce_tasks"
)


@dataclass
class SurrogateTuner:
    """Kernel-ridge surrogate search over the What-If objective.

    Attributes:
        whatif: the What-If engine used as the objective.
        store: optional profile store whose history warm-starts the
            initial design (duck-typed: anything with ``bulk_profiles``).
        initial_samples: size of the seeded random initial design.
        rounds: surrogate-guided evaluations after the initial design.
        candidate_pool: acquisition pool size per round.
        warm_start_limit: most history profiles mined for seed points.
        length_scale: Gaussian kernel width in unit-cube units.
        ridge: Tikhonov regularizer added to the kernel diagonal.
        explore: exploration weight on the distance-to-design bonus
            (objective values are normalized by the default runtime, so
            this is unitless).
        seed: RNG seed; the search is fully deterministic.
    """

    whatif: WhatIfEngine
    store: Any = None
    initial_samples: int = 16
    rounds: int = 12
    candidate_pool: int = 256
    warm_start_limit: int = 4
    length_scale: float = 0.35
    ridge: float = 1e-6
    explore: float = 0.5
    seed: int = 0
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None

    name = "surrogate"

    def optimize(
        self,
        profile: JobProfile,
        data_bytes: int | None = None,
    ) -> TunerDecision:
        return traced_optimize(
            self.name,
            self.tracer,
            self.registry,
            lambda: self._optimize(profile, data_bytes),
        )

    # ------------------------------------------------------------------
    def _warm_start_rows(self, profile: JobProfile) -> list[np.ndarray]:
        """Seed rows mined from the store's profile history."""
        if self.store is None:
            return []
        try:
            history = self.store.bulk_profiles()
        except Exception:
            # Store unreachable (chaos): cold-start instead of failing.
            get_registry(self.registry).counter(
                "tuner_warm_start_failures_total",
                "surrogate warm starts that lost the store",
            ).inc()
            return []
        ranked = sorted(
            history.items(),
            key=lambda item: (
                abs(item[1].input_bytes - profile.input_bytes),
                item[0],
            ),
        )[: self.warm_start_limit]
        rbo = RuleBasedOptimizer(self.whatif.cluster)
        rows: list[np.ndarray] = []
        for __, hist in ranked:
            try:
                rows.append(row_from_config(rbo.recommend(hist).config))
            except Exception:
                pass  # malformed history profile: skip its seed point
            if hist.num_reduce_tasks > 0:
                echo = DEFAULT_ROW.copy()
                echo[_REDUCE_COLUMN] = float(hist.num_reduce_tasks)
                rows.append(echo)
        if rows:
            get_registry(self.registry).counter(
                "tuner_warm_start_points_total",
                "surrogate seed points mined from stored profiles",
            ).inc(len(rows))
        return rows

    def _optimize(
        self, profile: JobProfile, data_bytes: int | None
    ) -> TunerDecision:
        objective = WhatIfObjective(self.whatif, profile, data_bytes)
        rng = np.random.default_rng(self.seed)

        default_runtime = objective(DEFAULT_ROW)
        scale = max(default_runtime, 1e-9)

        design: list[np.ndarray] = [unit_from_row(DEFAULT_ROW)]
        values: list[float] = [default_runtime / scale]
        best_row, best_runtime = DEFAULT_ROW.copy(), default_runtime

        def evaluate(unit: np.ndarray) -> None:
            nonlocal best_row, best_runtime
            row, runtime = objective.price_unit(unit)
            design.append(np.clip(unit, 0.0, 1.0))
            values.append(runtime / scale)
            if runtime < best_runtime:
                best_row, best_runtime = row, runtime

        for row in self._warm_start_rows(profile):
            evaluate(unit_from_row(row))
        for unit in rng.uniform(0.0, 1.0, size=(self.initial_samples, DIMENSIONS)):
            evaluate(unit)

        for __ in range(self.rounds):
            X = np.vstack(design)
            y = np.asarray(values)
            weights = self._fit(X, y)
            pool = rng.uniform(0.0, 1.0, size=(self.candidate_pool, DIMENSIONS))
            cross = self._kernel(pool, X)
            mean = cross @ weights
            nearest = np.sqrt(
                np.maximum(
                    (pool * pool).sum(axis=1)[:, None]
                    - 2.0 * pool @ X.T
                    + (X * X).sum(axis=1)[None, :],
                    0.0,
                )
            ).min(axis=1)
            acquisition = mean - self.explore * nearest
            evaluate(pool[int(np.argmin(acquisition))])

        return TunerDecision(
            tuner=self.name,
            best_config=config_from_row(best_row),
            predicted_runtime=best_runtime,
            default_predicted_runtime=default_runtime,
            evaluations=objective.evaluations,
            memo_hits=objective.memo_hits,
            history=objective.history,
        )

    # ------------------------------------------------------------------
    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            (a * a).sum(axis=1)[:, None]
            - 2.0 * a @ b.T
            + (b * b).sum(axis=1)[None, :]
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.length_scale**2))

    def _fit(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        gram = self._kernel(X, X)
        gram[np.diag_indices_from(gram)] += self.ridge
        return np.linalg.solve(gram, y)
