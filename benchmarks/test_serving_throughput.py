"""Serving throughput: the tuning service cold vs warm result cache.

Measures requests/second and wait+service latency percentiles through
:func:`repro.serving.run_load` on the simulated clock, in two states:

- **cold** — the cache is cleared before every replay, so each distinct
  (job, dataset) key pays the full sample + match + CBO pipeline;
- **warm** — the same traffic replayed against the already-filled cache,
  so repeat keys cost ``CACHE_HIT_COST_SECONDS``.

The acceptance bar for the serving PR is warm ≥ 2x cold throughput; the
numbers land in ``BENCH_serving.json`` at the repo root next to the CBO
and matcher baselines.  ``SERVING_BENCH_QUICK=1`` shrinks the replay for
CI smoke runs (the 2x floor still holds — cache hits are that much
cheaper — so it is asserted in both modes).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.observability import MetricsRegistry
from repro.serving import LoadConfig, TenantSpec, run_load
from repro.serving.loadgen import LOADGEN_SERVICE

QUICK = os.environ.get("SERVING_BENCH_QUICK", "") not in ("", "0")
#: Acceptance floor: warm-cache throughput vs cold-cache throughput.
WARM_SPEEDUP_FLOOR = 2.0
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"


def _merge_results(update: dict) -> dict:
    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload.update(update)
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _config() -> LoadConfig:
    return LoadConfig(
        requests=60 if QUICK else 200,
        seed=7,
        # Fast arrivals + wide-open gates: the whole replay lands in a
        # few simulated seconds and nothing is shed, so the makespan
        # measures how fast the workers drain the backlog — pipeline
        # cost, not arrival pacing or shedding.
        arrival_rate=50.0,
        remember_every=0,
        tenants=[
            TenantSpec("bench", weight=1.0, rate_per_second=1e6, burst=1e6)
        ],
        service=replace(
            LOADGEN_SERVICE,
            workers=4,
            queue_capacity=512,
            shed_watermark=512,
            deadline_seconds=10_000.0,
        ),
    )


def _latency_block(summary: dict) -> dict:
    total = summary["latency"]["total_seconds"]
    return {"p50_s": total["p50"], "p99_s": total["p99"]}


@pytest.fixture(scope="module")
def replays():
    """One service, the same seeded traffic replayed cold then warm."""
    config = _config()
    cold = run_load(config, registry=MetricsRegistry())
    warm = run_load(config, service=cold.service, registry=MetricsRegistry())
    return config, cold, warm


def test_warm_cache_doubles_throughput(replays):
    config, cold, warm = replays
    cold_rps = cold.summary["throughput_rps"]
    warm_rps = warm.summary["throughput_rps"]
    assert cold_rps > 0 and warm_rps > 0
    speedup = warm_rps / cold_rps
    payload = _merge_results(
        {
            "serving": {
                "requests": config.requests,
                "workers": config.service.workers,
                "seed": config.seed,
                "cold": {
                    "throughput_rps": cold_rps,
                    "cache_hits": cold.summary["counts"]["cache_hits"],
                    **_latency_block(cold.summary),
                },
                "warm": {
                    "throughput_rps": warm_rps,
                    "cache_hits": warm.summary["counts"]["cache_hits"],
                    **_latency_block(warm.summary),
                },
                "warm_speedup": round(speedup, 2),
            }
        }
    )
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm cache speedup {speedup:.2f}x below the "
        f"{WARM_SPEEDUP_FLOOR}x floor"
    )


def test_every_request_served(replays):
    """The benchmark's gates are wide open: nothing may be shed."""
    __, cold, warm = replays
    assert cold.summary["counts"]["shed_total"] == 0
    assert warm.summary["counts"]["shed_total"] == 0
    assert warm.summary["counts"]["cache_hits"] >= (
        cold.summary["counts"]["cache_hits"]
    )
