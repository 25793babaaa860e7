"""CBO throughput: batched What-If scoring vs the scalar reference.

Measures (1) raw What-If predictions/sec — one ``predict()`` call per
config vs one ``predict_matrix`` call per generation — and (2) end-to-end
``CostBasedOptimizer.optimize()`` wall time vs the scalar reference
search in ``tests/cbo_oracle.py`` on the same search, asserting the two return byte-identical
recommendations before trusting either number.

Results land in ``BENCH_cbo.json`` at the repo root so future PRs have a
perf trajectory to compare against.  ``CBO_BENCH_QUICK=1`` switches to a
small search for CI smoke runs: equality is still asserted bit-for-bit,
but the ≥5x speedup floor is only enforced on the full benchmark.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.hadoop.cluster import ec2_cluster
from repro.hadoop.engine import HadoopEngine
from repro.starfish import CostBasedOptimizer, StarfishProfiler, WhatIfEngine
from repro.starfish.cbo import _config_from_row, _random_matrix
from repro.workloads import word_count_job
from repro.workloads.datasets import Dataset, random_text_source
from tests.cbo_oracle import optimize_sequential

QUICK = os.environ.get("CBO_BENCH_QUICK", "") not in ("", "0")
#: Acceptance floor for the full benchmark: the batched search must beat
#: the scalar reference by at least this factor.
SPEEDUP_FLOOR = 5.0
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_cbo.json"


@pytest.fixture(scope="module")
def profile():
    engine = HadoopEngine(ec2_cluster())
    dataset = Dataset(
        "bench-text",
        nominal_bytes=64 * 2**20,
        source=random_text_source(),
        seed=3,
    )
    job_profile, __ = StarfishProfiler(engine).profile_job(word_count_job(), dataset)
    return engine.cluster, job_profile


def _timeit(fn, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _merge_results(update: dict) -> dict:
    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload.update(update)
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def test_prediction_throughput(profile):
    """Raw What-If pricing rate: scalar loop vs one matrix call."""
    cluster, job_profile = profile
    whatif = WhatIfEngine(cluster)
    n = 128 if QUICK else 512
    matrix = _random_matrix(np.random.default_rng(7), n, None)
    configs = [_config_from_row(row) for row in matrix]

    scalar_runtimes = [
        whatif.predict(job_profile, config).runtime_seconds for config in configs
    ]
    batch = whatif.predict_matrix(job_profile, matrix)
    assert scalar_runtimes == list(batch.runtime_seconds), (
        "batched predictions diverged from the scalar path"
    )

    repeats = 2 if QUICK else 5
    scalar_s = _timeit(
        lambda: [whatif.predict(job_profile, config) for config in configs], repeats
    )
    batch_s = _timeit(lambda: whatif.predict_matrix(job_profile, matrix), repeats)
    results = {
        "predictions": {
            "generation_size": n,
            "scalar_per_sec": round(n / scalar_s, 1),
            "batch_per_sec": round(n / batch_s, 1),
            "speedup": round(scalar_s / batch_s, 2),
        }
    }
    _merge_results(results)
    assert batch_s < scalar_s, "batched pricing should never be slower"


def test_optimize_throughput(profile):
    """End-to-end search: batched optimize() vs the sequential reference."""
    cluster, job_profile = profile
    whatif = WhatIfEngine(cluster)
    cbo = CostBasedOptimizer(
        whatif,
        num_samples=150 if QUICK else 600,
        refine_rounds=3,
        elite=5,
        perturbations_per_elite=10 if QUICK else 40,
        seed=0,
    )

    batched = cbo.optimize(job_profile)
    sequential = optimize_sequential(cbo, job_profile)
    assert batched.best_config == sequential.best_config
    assert batched.predicted_runtime == sequential.predicted_runtime
    assert batched.evaluations == sequential.evaluations
    assert (
        batched.default_predicted_runtime == sequential.default_predicted_runtime
    )

    repeats = 1 if QUICK else 5
    batch_s = _timeit(lambda: cbo.optimize(job_profile), repeats)
    sequential_s = _timeit(
        lambda: optimize_sequential(cbo, job_profile), max(1, repeats - 2)
    )
    speedup = sequential_s / batch_s
    payload = _merge_results(
        {
            "optimize": {
                "num_samples": cbo.num_samples,
                "refine_rounds": cbo.refine_rounds,
                "elite": cbo.elite,
                "perturbations_per_elite": cbo.perturbations_per_elite,
                "evaluations": batched.evaluations,
                "batch_ms": round(batch_s * 1e3, 3),
                "sequential_ms": round(sequential_s * 1e3, 3),
                "speedup": round(speedup, 2),
                "identical_result": True,
            }
        }
    )
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not QUICK:
        assert speedup >= SPEEDUP_FLOOR, (
            f"optimize() speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )
