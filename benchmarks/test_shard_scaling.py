"""Probe latency across region splits: the sharding scaling curve.

A sharded store keeps one match-index partition per Dynamic-range
region and probes them scatter-gather.  The claim under test: as the
table grows 16x (4k -> 64k jobs) and the row space splits across
dozens of regions, the indexed probe's median latency drifts by at
most 1.5x — the per-partition bounding-box prune discards regions that
cannot contain a stage survivor, so probe cost tracks the matching
neighbourhood, not the table.  Every timed probe is also checked
bit-identical against the flat scan-path reference, so the curve can
never be bought with a wrong answer.  Results land in
``BENCH_sharding.json``.

``SHARD_BENCH_QUICK=1`` shrinks the sweep for CI smoke runs; the drift
ceiling is asserted only on the full sweep (quick sizes are too small
for a stable ratio).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.core.matcher import ProfileMatcher
from repro.core.store import ProfileStore
from repro.observability import MetricsRegistry

QUICK = os.environ.get("SHARD_BENCH_QUICK", "") not in ("", "0")
SIZES = [512, 2048] if QUICK else [4096, 16384, 65536]
SPLIT_THRESHOLD = 256 if QUICK else 8192
REPEATS = 15 if QUICK else 40
#: Acceptance ceiling: p50 drift from the smallest to the largest size.
DRIFT_CEILING = 1.5
#: The sweep must actually cross region splits to prove anything.
MIN_SPLITS = 4
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sharding.json"

#: Jobs near the probe (the matching neighbourhood, constant-size).
NEAR_JOBS = 64


def _specs():
    from tests.test_match_index import _spec

    near = _spec()
    far = _spec(
        map_flow=(4.0, 4.0, 0.0, 0.0),
        red_flow=(0.0, 0.05),
        map_cfg=1,
        red_cfg=2,
        statics={name: "beta" for name in near["statics"]},
    )
    return near, far


def _build(size: int, registry: MetricsRegistry) -> ProfileStore:
    from tests.test_match_index import make_profile, make_static

    near_spec, far_spec = _specs()
    near = (make_profile("near", near_spec), make_static(near_spec))
    far = (make_profile("far", far_spec), make_static(far_spec))
    store = ProfileStore(
        registry=registry,
        shard_index=True,
        num_region_servers=4,
        split_threshold=SPLIT_THRESHOLD,
    )
    stride = max(1, size // NEAR_JOBS)
    for number in range(size):
        if number % stride == 0:
            store.put(near[0], near[1], job_id=f"near-{number:06d}@bench")
        else:
            store.put(far[0], far[1], job_id=f"far-{number:06d}@bench")
    return store


def _measure(size: int) -> dict:
    from tests.test_match_index import make_features

    registry = MetricsRegistry()
    store = _build(size, registry)
    near_spec, __ = _specs()
    features = make_features(near_spec)

    view = store.match_index().view()
    matcher = ProfileMatcher(store, registry=MetricsRegistry())
    scan = ProfileMatcher(store, registry=MetricsRegistry(), use_index=False)

    # Correctness first: the timed path must answer scan-identically.
    outcome = matcher.match_job(features)
    assert outcome == scan.match_job(features)
    assert outcome.matched
    assert outcome.map_match.job_id == "near-000000@bench"

    samples = []
    for __ in range(REPEATS):
        start = time.perf_counter()
        matcher.match_job(features)
        samples.append(time.perf_counter() - start)
    return {
        "jobs": size,
        "partitions": view.partition_count,
        "splits": int(registry.counter("hbase_region_splits_total").value),
        "p50_ms": round(statistics.median(samples) * 1e3, 3),
        "scan_identical": True,
    }


def test_probe_latency_flat_across_splits():
    _measure(SIZES[0] // 4)  # warm imports and lazy module state
    rows = [_measure(size) for size in SIZES]
    drift = round(rows[-1]["p50_ms"] / rows[0]["p50_ms"], 2)

    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload["shard_scaling"] = {
        "sizes": SIZES,
        "split_threshold": SPLIT_THRESHOLD,
        "rows": rows,
        "p50_drift": drift,
        "drift_ceiling": DRIFT_CEILING,
        "min_splits": MIN_SPLITS,
    }
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))

    assert rows[0]["partitions"] >= 1
    assert rows[-1]["partitions"] > rows[0]["partitions"]
    assert rows[-1]["splits"] >= MIN_SPLITS, rows[-1]
    if not QUICK:
        assert drift <= DRIFT_CEILING, rows
