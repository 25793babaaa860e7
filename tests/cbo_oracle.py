"""Scalar reference search for ``CostBasedOptimizer.optimize``.

The optimizer prices each candidate generation in one batched
``predict_matrix`` call and ranks candidates in a bounded top-K pool.
This module keeps the search it replaced: the *same* candidate stream
(the generation helpers share the RNG call sequence), each candidate
priced by one scalar ``predict()`` call, and an unbounded scored list
re-sorted every refinement round.  It is the oracle the batched search
must match bit for bit (``tests/test_whatif_batch.py``) and the baseline
``benchmarks/test_cbo_throughput.py`` times it against.
"""

from __future__ import annotations

import numpy as np

from repro.starfish.cbo import (
    _DEFAULT_ROW,
    CostBasedOptimizer,
    OptimizationResult,
    _config_from_row,
    _perturb_matrix,
    _random_matrix,
)
from repro.starfish.profile import JobProfile


def optimize_sequential(
    cbo: CostBasedOptimizer,
    profile: JobProfile,
    data_bytes: int | None = None,
) -> OptimizationResult:
    """Run *cbo*'s search one scalar ``predict()`` per candidate."""
    rng = np.random.default_rng(cbo.seed)

    def evaluate(row: np.ndarray) -> float:
        config = _config_from_row(row)
        return cbo.whatif.predict(profile, config, data_bytes).runtime_seconds

    matrix = np.vstack(
        [
            _DEFAULT_ROW[None, :],
            _random_matrix(rng, cbo.num_samples, cbo.max_reducers),
        ]
    )
    scored: list[tuple[float, np.ndarray]] = [(evaluate(row), row) for row in matrix]
    evaluations = len(scored)
    default_runtime = scored[0][0]

    for __ in range(cbo.refine_rounds):
        scored.sort(key=lambda pair: pair[0])
        elite_matrix = np.array([row for __, row in scored[: cbo.elite]])
        candidates = _perturb_matrix(
            rng, elite_matrix, cbo.perturbations_per_elite, cbo.max_reducers
        )
        for row in candidates:
            scored.append((evaluate(row), row))
            evaluations += 1

    scored.sort(key=lambda pair: pair[0])
    best_runtime, best_row = scored[0]
    return OptimizationResult(
        best_config=_config_from_row(best_row),
        predicted_runtime=best_runtime,
        evaluations=evaluations,
        default_predicted_runtime=default_runtime,
    )
