"""Tests for the tuning-as-a-service layer (repro.serving)."""

from __future__ import annotations

import time

import pytest

from repro.chaos import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    outage_plan,
    set_default_injector,
)
from repro.hadoop import MapReduceJob
from repro.observability import MetricsRegistry, Tracer
from repro.serving import (
    AdmissionController,
    CacheKey,
    ResultCache,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadError,
    TenantPolicy,
    TokenBucket,
    TuningRequest,
    TuningService,
    cache_key_for,
    job_signature,
)
from repro.serving.service import CACHE_HIT_COST_SECONDS


@pytest.fixture(autouse=True)
def _no_ambient_chaos():
    """Serving tests control chaos explicitly; clear the process default."""
    set_default_injector(None)
    yield
    set_default_injector(None)


def _key(sig="job#abc", dataset="d1", cluster="c/15"):
    return CacheKey(job_signature=sig, dataset=dataset, cluster=cluster)


class TestJobSignature:
    def test_stable_across_calls(self, wordcount):
        assert job_signature(wordcount) == job_signature(wordcount)

    def test_differs_between_programs(self, wordcount, maponly_job):
        assert job_signature(wordcount) != job_signature(maponly_job)

    def test_params_change_signature(self, wordcount):
        assert job_signature(wordcount) != job_signature(
            wordcount.with_params(window=5)
        )

    def test_key_includes_dataset_and_cluster(self, wordcount, small_text, cluster):
        key = cache_key_for(wordcount, small_text, cluster)
        assert key.dataset == "small-text"
        assert key.cluster.endswith(f"/{cluster.num_workers}")


class TestResultCache:
    def test_hit_after_put(self):
        cache = ResultCache(registry=MetricsRegistry())
        cache.put(_key(), "answer", now=0.0)
        assert cache.get(_key(), now=1.0) == "answer"

    def test_miss_when_empty(self):
        cache = ResultCache(registry=MetricsRegistry())
        assert cache.get(_key(), now=0.0) is None

    def test_ttl_expiry_on_simulated_clock(self):
        cache = ResultCache(ttl_seconds=100.0, registry=MetricsRegistry())
        cache.put(_key(), "answer", now=0.0)
        assert cache.get(_key(), now=99.0) == "answer"
        assert cache.get(_key(), now=100.0) is None
        assert cache.stats()["expired"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2, registry=MetricsRegistry())
        cache.put(_key("a"), 1, now=0.0)
        cache.put(_key("b"), 2, now=0.0)
        cache.get(_key("a"), now=1.0)  # refresh "a"
        cache.put(_key("c"), 3, now=2.0)  # evicts LRU "b"
        assert cache.get(_key("a"), now=3.0) == 1
        assert cache.get(_key("b"), now=3.0) is None
        assert cache.get(_key("c"), now=3.0) == 3

    def test_invalidate_job_scoped_by_signature(self):
        cache = ResultCache(registry=MetricsRegistry())
        cache.put(_key("sig", "d1"), 1, now=0.0)
        cache.put(_key("sig", "d2"), 2, now=0.0)
        cache.put(_key("other", "d1"), 3, now=0.0)
        assert cache.invalidate_job("sig") == 2
        assert cache.get(_key("other", "d1"), now=1.0) == 3
        assert len(cache) == 1

    def test_invalidate_keeps_writer_entry(self):
        cache = ResultCache(registry=MetricsRegistry())
        keep = _key("sig", "d1")
        cache.put(keep, 1, now=0.0)
        cache.put(_key("sig", "d2"), 2, now=0.0)
        assert cache.invalidate_job("sig", keep=keep) == 1
        assert cache.get(keep, now=1.0) == 1

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0.0)


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate_per_second=1.0, burst=2.0)
        assert bucket.try_acquire(now=0.0)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_per_second=0.5, burst=1.0)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=1.0)
        assert bucket.try_acquire(now=2.0)

    def test_retry_after_is_exact(self):
        bucket = TokenBucket(rate_per_second=0.25, burst=1.0)
        assert bucket.try_acquire(now=0.0)
        assert bucket.retry_after(now=0.0) == pytest.approx(4.0)


class TestAdmissionController:
    def test_admits_under_watermark(self):
        gate = AdmissionController(queue_capacity=4, registry=MetricsRegistry())
        gate.admit("t", queue_depth=3, now=0.0)  # no raise

    def test_queue_full_shed_carries_hint(self):
        gate = AdmissionController(
            queue_capacity=4, shed_watermark=2, registry=MetricsRegistry()
        )
        with pytest.raises(ServiceOverloadError) as err:
            gate.admit("t", queue_depth=2, now=0.0, backlog_seconds_hint=7.5)
        assert err.value.reason == "queue-full"
        assert err.value.retry_after_seconds == pytest.approx(7.5)
        assert err.value.tenant == "t"

    def test_rate_limit_shed(self):
        gate = AdmissionController(
            queue_capacity=8,
            tenant_policies={"hot": TenantPolicy(rate_per_second=0.1, burst=1.0)},
            registry=MetricsRegistry(),
        )
        gate.admit("hot", queue_depth=0, now=0.0)
        with pytest.raises(ServiceOverloadError) as err:
            gate.admit("hot", queue_depth=0, now=0.0)
        assert err.value.reason == "rate-limited"
        assert err.value.retry_after_seconds > 0

    def test_queue_check_runs_before_rate_limit(self):
        # A shed request must not also burn a token.
        gate = AdmissionController(
            queue_capacity=1,
            tenant_policies={"t": TenantPolicy(rate_per_second=0.1, burst=1.0)},
            registry=MetricsRegistry(),
        )
        with pytest.raises(ServiceOverloadError) as err:
            gate.admit("t", queue_depth=1, now=0.0)
        assert err.value.reason == "queue-full"
        gate.admit("t", queue_depth=0, now=0.0)  # token still there

    def test_watermark_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_capacity=4, shed_watermark=5)


@pytest.fixture()
def service(cluster):
    svc = TuningService(
        cluster=cluster,
        config=ServiceConfig(workers=2, queue_capacity=8),
        seed=0,
        registry=MetricsRegistry(),
    )
    yield svc
    svc.stop(timeout=30.0)


class TestTuningServiceInline:
    """handle() called directly (the loadgen frontend's contract)."""

    def test_repeat_submission_hits_cache(self, service, wordcount, small_text):
        first = service.handle(
            TuningRequest(1, "t", wordcount, small_text), now=0.0
        )
        second = service.handle(
            TuningRequest(2, "t", wordcount, small_text), now=1.0
        )
        assert first.ok and not first.cache_hit
        assert second.ok and second.cache_hit
        assert second.service_seconds == pytest.approx(CACHE_HIT_COST_SECONDS)
        assert second.result is first.result

    def test_remember_invalidates_matching_signature(
        self, service, wordcount, small_text
    ):
        service.handle(TuningRequest(1, "t", wordcount, small_text), now=0.0)
        assert len(service.cache) == 1
        service.remember(wordcount, small_text)
        assert len(service.cache) == 0
        after = service.handle(
            TuningRequest(2, "t", wordcount, small_text), now=20.0
        )
        assert not after.cache_hit

    def test_post_remember_submission_sees_profile_via_index(
        self, service, wordcount, maponly_job, small_text
    ):
        registry = service.registry
        hits = registry.counter("pstorm_matcher_index_hits_total")
        rebuilds = registry.counter("pstorm_matcher_index_rebuilds_total")

        stored = service.remember(wordcount, small_text)
        assert stored is not None

        response = service.handle(
            TuningRequest(1, "t", wordcount, small_text), now=1.0
        )
        assert response.ok and response.result.matched
        assert response.result.outcome.map_match.job_id == stored
        assert hits.value >= 1  # the probe ran on the indexed path
        assert rebuilds.value == 1  # first probe built the cold index

        # With the index now hot, remember() must refresh it alongside
        # the result cache: the next submission sees the new profile on
        # the indexed path without paying another rebuild scan.
        stored_late = service.remember(maponly_job, small_text)
        assert stored_late is not None
        hits_before = hits.value
        late = service.handle(
            TuningRequest(2, "t", maponly_job, small_text), now=20.0
        )
        assert late.ok and not late.cache_hit
        assert late.result.matched
        assert late.result.outcome.map_match.job_id == stored_late
        assert hits.value > hits_before
        assert rebuilds.value == 1  # the remember-time refresh was incremental

    def test_degraded_results_are_not_cached(self, cluster, wordcount, small_text):
        set_default_injector(FaultInjector(outage_plan(seed=3)))
        try:
            service = TuningService(
                cluster=cluster,
                config=ServiceConfig(workers=1),
                registry=MetricsRegistry(),
            )
            # Puts survive the outage preset (scans don't): seed the
            # store so the matcher actually probes — and degrades.
            service.remember(wordcount, small_text)
            response = service.handle(
                TuningRequest(1, "t", wordcount, small_text), now=0.0
            )
            assert response.ok
            assert response.degraded
            assert len(service.cache) == 0
        finally:
            set_default_injector(None)

    def test_response_to_dict_is_jsonable(self, service, wordcount, small_text):
        import json

        response = service.handle(
            TuningRequest(1, "t", wordcount, small_text), now=0.0
        )
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["status"] == "ok"
        assert payload["result"]["job_name"] == wordcount.name


def _lane_service(cluster, backend, registry=None, **overrides):
    defaults = dict(workers=2, queue_capacity=8, backend=backend)
    defaults.update(overrides)
    return TuningService(
        cluster=cluster,
        config=ServiceConfig(**defaults),
        seed=0,
        registry=registry if registry is not None else MetricsRegistry(),
    )


class _LaneCases:
    """The real frontend's request path, which both backends share: one
    queue, one lane loop.  Subclasses pick the backend."""

    def test_end_to_end_with_cache_hits(self, cluster, wordcount, small_text):
        service = _lane_service(cluster, self.backend)
        service.start()
        try:
            futures = [
                service.submit_request(wordcount, small_text, tenant="t")
                for __ in range(6)
            ]
            responses = [f.result(timeout=60.0) for f in futures]
        finally:
            assert service.stop(timeout=30.0)
        assert service.hung_workers == 0
        assert all(r.ok for r in responses)
        assert sum(1 for r in responses if r.cache_hit) >= 4

    def test_closed_service_refuses(self, cluster, wordcount, small_text):
        service = _lane_service(cluster, self.backend)
        with pytest.raises(ServiceClosedError):
            service.submit_request(wordcount, small_text)
        service.start()
        assert service.stop(timeout=30.0)
        with pytest.raises(ServiceClosedError):
            service.submit_request(wordcount, small_text)

    def test_rate_limited_tenant_sheds(
        self, cluster, wordcount, small_text
    ):
        service = _lane_service(
            cluster,
            self.backend,
            workers=1,
            tenant_policies={
                "hot": TenantPolicy(rate_per_second=0.001, burst=1.0)
            },
        )
        service.start()
        try:
            service.submit_request(wordcount, small_text, tenant="hot")
            with pytest.raises(ServiceOverloadError) as err:
                service.submit_request(wordcount, small_text, tenant="hot")
            assert err.value.reason == "rate-limited"
        finally:
            assert service.stop(timeout=30.0)

    def test_stop_idempotent(self, cluster):
        service = _lane_service(cluster, self.backend)
        service.start()
        assert service.stop(timeout=30.0)
        assert service.stop(timeout=30.0)

    def test_request_queued_past_deadline_is_shed(
        self, cluster, wordcount, small_text
    ):
        registry = MetricsRegistry()
        service = _lane_service(
            cluster, self.backend, deadline_seconds=1e-9, registry=registry
        )
        service.start()
        try:
            response = service.submit_request(
                wordcount, small_text, tenant="t"
            ).result(timeout=60.0)
        finally:
            assert service.stop(timeout=30.0)
        assert response.status == "shed"
        assert response.shed_reason == "deadline"
        assert response.wait_seconds > 1e-9
        assert (
            registry.counter(
                "serving_shed_total", labels={"reason": "deadline"}
            ).value
            == 1
        )

    def test_back_to_back_repeats_hit_the_cache(
        self, cluster, wordcount, small_text
    ):
        """A lane probes the cache when it takes a request, so a repeat
        queued behind its own miss is answered from the cache."""
        service = _lane_service(cluster, self.backend, workers=1)
        service.start()
        try:
            futures = [
                service.submit_request(wordcount, small_text, tenant="t")
                for __ in range(3)
            ]
            responses = [f.result(timeout=120.0) for f in futures]
        finally:
            assert service.stop(timeout=30.0)
        assert all(r.ok for r in responses)
        assert sum(1 for r in responses if r.cache_hit) >= 1


class TestTuningServiceProcesses(_LaneCases):
    backend = "processes"

    def test_lone_miss_records_queue_wait_and_handle_span(
        self, cluster, wordcount, small_text
    ):
        registry = MetricsRegistry()
        tracer = Tracer()
        service = TuningService(
            cluster=cluster,
            config=ServiceConfig(workers=1, backend="processes"),
            seed=0,
            registry=registry,
            tracer=tracer,
        )
        service.start()
        try:
            began = time.monotonic()
            response = service.submit_request(
                wordcount, small_text, tenant="t"
            ).result(timeout=120.0)
            latency = time.monotonic() - began
        finally:
            assert service.stop(timeout=30.0)
        assert response.ok and not response.cache_hit
        assert registry.histogram("serving_queue_wait_seconds").count == 1
        spans = tracer.spans("serving.handle")
        assert [span.attrs["cache_hit"] for span in spans] == [False]
        # wait_seconds is time spent queued, not time spent being served.
        assert response.wait_seconds < 0.5 * latency


    def test_unpicklable_job_fails_instead_of_hanging(self, cluster, small_text):
        job = MapReduceJob(
            name="lambda-mapper", mapper=lambda key, value, ctx: ctx.emit(key, 1)
        )
        service = _lane_service(cluster, self.backend, workers=1)
        service.start()
        try:
            response = service.submit_request(job, small_text).result(
                timeout=60.0
            )
        finally:
            assert service.stop(timeout=30.0)
        assert response.status == "failed"
        assert "pickle" in response.error.lower()


class TestTuningServiceThreaded(_LaneCases):
    backend = "threads"

    def test_outage_degrades_without_hanging(self, cluster, wordcount, small_text):
        set_default_injector(FaultInjector(outage_plan(seed=3)))
        try:
            service = TuningService(
                cluster=cluster,
                config=ServiceConfig(workers=2, queue_capacity=8),
                registry=MetricsRegistry(),
            )
            # Seed the store (puts survive) so every submission's probe
            # hits the failing scan path and must degrade.
            service.remember(wordcount, small_text)
            service.start()
            futures = [
                service.submit_request(wordcount, small_text, tenant="t")
                for __ in range(4)
            ]
            responses = [f.result(timeout=60.0) for f in futures]
            assert service.stop(timeout=30.0)
            assert service.hung_workers == 0
            assert all(r.status in ("ok", "failed") for r in responses)
            assert any(r.degraded for r in responses)
        finally:
            set_default_injector(None)

    def test_remember_failure_is_counted_not_raised(
        self, cluster, wordcount, small_text
    ):
        # The outage preset spares puts; fail them outright instead.
        put_outage = FaultPlan(
            seed=3,
            faults=(FaultSpec(op="put", kind="unavailable", probability=1.0),),
        )
        set_default_injector(FaultInjector(put_outage))
        try:
            service = TuningService(
                cluster=cluster,
                config=ServiceConfig(workers=1),
                registry=MetricsRegistry(),
            )
            assert service.remember(wordcount, small_text) is None
        finally:
            set_default_injector(None)

    def test_store_capacity_bounds_profiles(self, cluster, wordcount, small_text):
        service = TuningService(
            cluster=cluster,
            config=ServiceConfig(workers=1, store_capacity=1),
            registry=MetricsRegistry(),
        )
        service.remember(wordcount, small_text)
        service.remember(wordcount.with_params(v=2), small_text)
        assert len(service.store) == 1
