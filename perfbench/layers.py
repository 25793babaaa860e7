"""The traced run: spans around each layer's public entry points.

Spans are recorded from benchmark code only — every wrapper below
replaces a public function or method for the duration of the traced
passes and is undone afterwards; nothing in the package is edited.
Counts come from the package's own metrics registry, read as deltas over
the traced passes.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import repro.core.pstorm as pstorm_module
import repro.hadoop.engine as engine_module
from repro.core.matcher import ProfileMatcher
from repro.core.store import ProfileStore
from repro.hadoop.engine import HadoopEngine
from repro.hbase.storage import LsmStore
from repro.hbase.table import HTable
from repro.hbase.wal import WriteAheadLog
from repro.observability import MetricsRegistry, set_default_registry
from repro.starfish.profiler import StarfishProfiler
from repro.starfish.sampler import Sampler
from repro.starfish.whatif import WhatIfEngine
from repro.tuners.adapters import CboTuner

from harness import Span, SpanRecorder, self_times

#: Root span around each timed op; its self time is driver overhead.
OP_SPAN = "bench.op"

#: Layers in match order: a span belongs to the first prefix it starts with.
LAYERS = (
    "core.pstorm",
    "core.features",
    "core.matcher",
    "core.store",
    "tuners",
    "starfish",
    "hadoop",
    "hbase",
    "observability",
    "bench",
)


def _run_job_name(args: tuple, kwargs: dict) -> str:
    # run_job(self, job, dataset, config=None, map_task_ids=None, ...)
    map_task_ids = kwargs.get("map_task_ids", args[4] if len(args) > 4 else None)
    return "hadoop.run_job.sample" if map_task_ids is not None else "hadoop.run_job.full"


#: (owner, attribute, span name) for every wrapped entry point.
ENTRY_POINTS: tuple[tuple[Any, str, Any], ...] = (
    (pstorm_module.PStorM, "submit", "core.pstorm.submit"),
    (pstorm_module, "extract_job_features", "core.features.extract"),
    (pstorm_module, "registry_to_dict", "observability.registry_snapshot"),
    (ProfileMatcher, "match_job", "core.matcher.match_job"),
    (ProfileStore, "put", "core.store.put"),
    (ProfileStore, "get_profile", "core.store.get_profile"),
    (CboTuner, "optimize", "tuners.optimize"),
    (WhatIfEngine, "predict_matrix", "starfish.whatif.predict_matrix"),
    (Sampler, "collect", "starfish.sampler.collect"),
    (StarfishProfiler, "profile_job", "starfish.profiler.profile_job"),
    (HadoopEngine, "run_job", _run_job_name),
    (HadoopEngine, "measure_split", "hadoop.measure_split"),
    (engine_module, "partition_fractions", "hadoop.partition_fractions"),
    (HTable, "put", "hbase.table.put"),
    (HTable, "put_row", "hbase.table.put_row"),
    (HTable, "get", "hbase.table.get"),
    (LsmStore, "flush", "hbase.lsm.flush"),
    (LsmStore, "compact", "hbase.lsm.compact"),
    (WriteAheadLog, "append", "hbase.wal.append"),
    (WriteAheadLog, "sync", "hbase.wal.sync"),
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[MetricsRegistry]:
    """Wrap every entry point and give the package a fresh default
    registry; yields the registry so counts can be read as deltas."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    undo = [recorder.wrap(owner, attr, name) for owner, attr, name in ENTRY_POINTS]
    try:
        yield registry
    finally:
        for restore in reversed(undo):
            restore()
        set_default_registry(previous)


def counter_total(registry: MetricsRegistry, name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(
        i.value for i in registry.collect() if i.name == name and i.kind == "counter"
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    spans: Sequence[Span],
    registry: MetricsRegistry,
    ops: int,
    wrote_bytes: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, layer_self_ms_per_op)`` from one traced phase."""
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        inclusive[span.name] += span.duration
    selfs = self_times(spans)
    layer_seconds: dict[str, float] = defaultdict(float)
    submit_self = 0.0
    for span in spans:
        layer_seconds[layer_of(span.name)] += selfs[span.span_id]
        if span.name == "core.pstorm.submit":
            submit_self += selfs[span.span_id]
    op_seconds = inclusive[OP_SPAN]

    def mean_ms(name: str) -> float:
        return _ratio(inclusive[name] * 1000.0, calls[name])

    def per_op_ms(name: str) -> float:
        return _ratio(inclusive[name] * 1000.0, ops)

    def count(name: str) -> float:
        return counter_total(registry, name)

    puts = calls["core.store.put"]
    metrics = {
        "hadoop.run_job.sample_ms": mean_ms("hadoop.run_job.sample"),
        "hadoop.run_job.full_ms": mean_ms("hadoop.run_job.full"),
        "hadoop.partition_fractions.calls_per_op": _ratio(
            calls["hadoop.partition_fractions"], ops
        ),
        "hadoop.partition_fractions.ms_per_op": per_op_ms("hadoop.partition_fractions"),
        "hadoop.measure_split.ms_per_op": per_op_ms("hadoop.measure_split"),
        "hadoop.map_cache.hit_ratio": _ratio(
            count("hadoop_engine_map_cache_hits_total"),
            count("hadoop_engine_map_cache_hits_total")
            + count("hadoop_engine_map_cache_misses_total"),
        ),
        "core.features.extract_ms": mean_ms("core.features.extract"),
        "core.matcher.match_job_ms": mean_ms("core.matcher.match_job"),
        "core.matcher.index_rebuilds": count("pstorm_matcher_index_rebuilds_total"),
        "core.matcher.match_ratio": _ratio(
            count("pstorm_matcher_matches_total"), count("pstorm_matcher_jobs_total")
        ),
        "tuners.optimize_ms": mean_ms("tuners.optimize"),
        "starfish.whatif.predictions_per_op": _ratio(
            count("whatif_batch_predictions_total"), ops
        ),
        "starfish.cbo.memo_hit_ratio": _ratio(
            count("cbo_memo_hits_total"),
            count("cbo_memo_hits_total") + count("cbo_memo_misses_total"),
        ),
        "core.store.put_ms": mean_ms("core.store.put"),
        "core.store.get_profile_ms": mean_ms("core.store.get_profile"),
        "hbase.wal.appends_per_put": _ratio(count("wal_appends_total"), puts),
        "hbase.wal.syncs_per_put": _ratio(count("wal_syncs_total"), puts),
        "hbase.wal.bytes_per_put": _ratio(wrote_bytes, puts),
        "hbase.lsm.flushes": count("lsm_flushes_total"),
        "hbase.lsm.compactions": count("lsm_compactions_total"),
        "hbase.block_cache.hit_ratio": _ratio(
            count("sstable_block_cache_hits_total"),
            count("sstable_block_cache_hits_total")
            + count("sstable_block_cache_misses_total"),
        ),
        "hbase.bloom.false_positive_ratio": _ratio(
            count("bloom_false_positives_total"), count("bloom_probes_total")
        ),
        "core.pstorm.submit_self_ms": _ratio(
            submit_self * 1000.0, calls["core.pstorm.submit"]
        ),
        "observability.registry_snapshot_ms": mean_ms("observability.registry_snapshot"),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _ratio(layer_seconds[layer], op_seconds)
    self_ms_per_op = {
        layer: _ratio(layer_seconds[layer] * 1000.0, ops) for layer in LAYERS
    }
    return metrics, self_ms_per_op
