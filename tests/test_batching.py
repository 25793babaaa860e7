"""Deterministic-ordering tests for batched serving.

``handle_batch`` exists so the process backend can coalesce a window of
submissions into one vectorized stage-1 probe — but only if the batched
responses stay *byte-identical* to serving the same requests one by one,
cache accounting included.  These tests pin that equivalence (with
duplicate-signature windows exercising the segment barriers), pin the
batched load harness against the sequential one, and guard the latency
reporting fixes: warm-path percentiles resolve off the 0.01 cache-hit
grid and shed retry-after hints are recorded at full resolution.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import set_default_injector
from repro.observability import MetricsRegistry
from repro.serving import (
    LoadConfig,
    ServiceConfig,
    TuningRequest,
    TuningService,
    run_load,
)
from repro.serving.loadgen import LOADGEN_SERVICE, _percentiles


@pytest.fixture(autouse=True)
def _no_ambient_chaos():
    set_default_injector(None)
    yield
    set_default_injector(None)


def _inline_service(cluster):
    return TuningService(
        cluster=cluster,
        config=ServiceConfig(workers=2, queue_capacity=32),
        seed=0,
        registry=MetricsRegistry(),
    )


class TestHandleBatchEquivalence:
    def _requests(self, wordcount, maponly_job, small_text):
        # Duplicate signatures inside the window force segment barriers:
        # [wc, maponly] | [wc] | [wc-params, maponly].
        jobs = [
            wordcount,
            maponly_job,
            wordcount,
            wordcount.with_params(round=2),
            maponly_job,
        ]
        return [
            TuningRequest(number + 1, "t", job, small_text)
            for number, job in enumerate(jobs)
        ]

    def test_batched_equals_sequential_byte_for_byte(
        self, cluster, wordcount, maponly_job, small_text
    ):
        nows = [0.0, 0.5, 1.0, 1.5, 2.0]

        sequential = _inline_service(cluster)
        expected = [
            sequential.handle(request, now=now)
            for request, now in zip(
                self._requests(wordcount, maponly_job, small_text), nows
            )
        ]

        batched = _inline_service(cluster)
        actual = batched.handle_batch(
            self._requests(wordcount, maponly_job, small_text), nows=nows
        )

        assert [r.to_dict() for r in actual] == [
            r.to_dict() for r in expected
        ]
        # The duplicate wordcount submission was a genuine cache hit in
        # both orders — accounting parity, not just payload parity.
        assert [r.cache_hit for r in actual] == [
            False, False, True, False, True,
        ]
        assert batched.cache.stats() == sequential.cache.stats()
        assert len(batched.store) == len(sequential.store)

    def test_barrier_preserves_remember_invalidation_order(
        self, cluster, wordcount, small_text
    ):
        """A window that is *all* one signature degenerates to sequential:
        every element after the first is its own segment."""
        sequential = _inline_service(cluster)
        batched = _inline_service(cluster)
        requests = [
            TuningRequest(n + 1, "t", wordcount, small_text) for n in range(3)
        ]
        expected = [sequential.handle(r, now=0.0) for r in requests]
        actual = batched.handle_batch(requests, nows=[0.0] * 3)
        assert [r.to_dict() for r in actual] == [
            r.to_dict() for r in expected
        ]
        assert [r.cache_hit for r in actual] == [False, True, True]


class TestLoadgenBatching:
    def _config(self, **service):
        return LoadConfig(
            requests=60,
            seed=7,
            service=replace(LOADGEN_SERVICE, workers=4, **service),
        )

    def test_batched_replay_matches_sequential_report(self):
        sequential = run_load(self._config(), registry=MetricsRegistry())
        batched = run_load(
            self._config(batch_window_seconds=0.5, batch_max=4),
            registry=MetricsRegistry(),
        )
        assert batched.summary == sequential.summary

    def test_batches_actually_form(self, cluster, monkeypatch):
        """The equality above is vacuous if no group ever coalesces."""
        config = self._config(batch_window_seconds=0.5, batch_max=4)
        sizes: list[int] = []
        inner = TuningService.handle_batch

        def spy(self, requests, nows=None):
            sizes.append(len(requests))
            return inner(self, requests, nows=nows)

        monkeypatch.setattr(TuningService, "handle_batch", spy)
        run_load(config, cluster=cluster, registry=MetricsRegistry())
        assert sizes and max(sizes) > 1


class TestLatencyResolution:
    def test_warm_hits_resolve_off_the_tick_grid(self):
        """Regression: warm p50/p99 used to clamp at the 0.01 tick because
        every hit cost exactly CACHE_HIT_COST_SECONDS.  The lookup tax
        puts hits at 0.0103 — representable only at full resolution."""
        config = LoadConfig(requests=60, seed=7)
        report = run_load(config, registry=MetricsRegistry())
        hits = [
            r
            for r in report.responses
            if r.status == "ok" and r.cache_hit
        ]
        assert hits
        for response in hits:
            assert response.service_seconds == pytest.approx(0.0103)
        warm = _percentiles([r.service_seconds for r in hits])
        assert warm["p50"] == 0.0103 != 0.01
        assert warm["p99"] == 0.0103

    def test_shed_retry_after_recorded_at_full_resolution(self):
        config = LoadConfig(
            requests=80,
            seed=7,
            arrival_rate=20.0,
            service=replace(LOADGEN_SERVICE, workers=2),
        )
        report = run_load(config, registry=MetricsRegistry())
        hints = [
            r.retry_after_seconds
            for r in report.responses
            if r.status == "shed" and r.retry_after_seconds
        ]
        assert hints
        # At least one hint lives off the 0.01 grid — rounding them at
        # record time (the old bug) would snap every one onto it.
        assert any(abs(h * 100 - round(h * 100)) > 1e-9 for h in hints)

    def test_percentiles_keep_six_decimals(self):
        assert _percentiles([0.0103, 0.0103, 0.0103])["p50"] == 0.0103
        assert _percentiles([1e-6])["max"] == 1e-6
