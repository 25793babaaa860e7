"""Tests for the multi-process serving backend (repro.serving.procpool).

The headline property is backend parity: a one-at-a-time request
sequence served by ``backend="processes"`` must produce responses
byte-identical (modulo real wall-clock wait) to the thread backend,
because the parent completes every result through the same response
helpers and the workers probe a published snapshot equal to the parent
store.  Around it: chaos worker-kill + respawn completing every request,
spawn-failure containment, clean shutdown with provably unlinked shm
segments, and in-process ``WorkerRuntime`` units.
"""

from __future__ import annotations

import multiprocessing.shared_memory as shared_memory
import time

import pytest

from repro.chaos import FaultInjector, set_default_injector, worker_kill_plan
from repro.core.shm_index import SharedIndexPublisher
from repro.core.store import ProfileStore
from repro.observability import MetricsRegistry
from repro.serving import (
    ServiceClosedError,
    ServiceConfig,
    TuningService,
    WorkerRuntime,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in divide"
)


@pytest.fixture(autouse=True)
def _no_ambient_chaos():
    set_default_injector(None)
    yield
    set_default_injector(None)


def _service(cluster, backend, registry, **overrides):
    defaults = dict(workers=2, queue_capacity=32, backend=backend)
    defaults.update(overrides)
    return TuningService(
        cluster=cluster,
        config=ServiceConfig(**defaults),
        seed=0,
        registry=registry,
    )


def _normalized(response):
    """Wire dict with the wall-clock-dependent fields zeroed."""
    payload = response.to_dict()
    payload["wait_seconds"] = 0.0
    payload["request_id"] = 0
    return payload


def _segment_gone(name):
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


def _run_scenario(service, wordcount, maponly_job, small_text):
    """One mixed sequence: misses, a hit, a remember-invalidated re-miss."""
    responses = []
    for job in (wordcount, wordcount, maponly_job):
        responses.append(
            service.submit_request(job, small_text, tenant="t").result(
                timeout=120.0
            )
        )
    service.remember(wordcount, small_text)
    responses.append(
        service.submit_request(wordcount, small_text, tenant="t").result(
            timeout=120.0
        )
    )
    return responses


class TestBackendParity:
    def test_processes_match_threads_bit_for_bit(
        self, cluster, wordcount, maponly_job, small_text
    ):
        threads = _service(cluster, "threads", MetricsRegistry())
        try:
            threads.start()
            expected = _run_scenario(
                threads, wordcount, maponly_job, small_text
            )
        finally:
            assert threads.stop(timeout=60.0)

        proc_registry = MetricsRegistry()
        processes = _service(cluster, "processes", proc_registry)
        try:
            processes.start()
            actual = _run_scenario(
                processes, wordcount, maponly_job, small_text
            )
        finally:
            assert processes.stop(timeout=60.0)

        assert [_normalized(r) for r in actual] == [
            _normalized(r) for r in expected
        ]
        # Same cache economics, not just the same payloads: miss, hit,
        # miss, then the remember-invalidated re-miss.
        assert [r.cache_hit for r in actual] == [False, True, False, False]
        # The second miss's profile travelled back through the outbox and
        # landed in the parent's authoritative store.
        assert (
            proc_registry.counter("serving_outbox_profiles_total").value >= 1
        )

    def test_remember_republishes_for_workers(
        self, cluster, wordcount, small_text
    ):
        registry = MetricsRegistry()
        service = _service(cluster, "processes", registry, workers=1)
        try:
            service.start()
            generation = service._procpool._publisher.published_generation
            stored = service.remember(wordcount, small_text)
            assert stored is not None
            assert (
                service._procpool._publisher.published_generation > generation
            )
            response = service.submit_request(
                wordcount, small_text, tenant="t"
            ).result(timeout=120.0)
            assert response.ok and response.result.matched
            assert response.result.outcome.map_match.job_id == stored
        finally:
            assert service.stop(timeout=60.0)


class TestWorkerKill:
    def test_killed_worker_respawns_and_all_requests_complete(
        self, cluster, wordcount, maponly_job, small_text
    ):
        registry = MetricsRegistry()
        service = _service(cluster, "processes", registry)
        injector = FaultInjector(worker_kill_plan(at=1), registry=registry)
        try:
            service.start()
            service._procpool._injector = injector
            jobs = [wordcount, maponly_job, wordcount.with_params(round=2)]
            responses = [
                service.submit_request(job, small_text, tenant="t").result(
                    timeout=120.0
                )
                for job in jobs
            ]
        finally:
            assert service.stop(timeout=60.0)
        # Every request completed ok — including the one whose dispatch
        # triggered the SIGKILL (re-dispatched to the replacement).
        assert [r.status for r in responses] == ["ok"] * 3
        assert registry.counter("serving_worker_kills_total").value == 1
        assert registry.counter("serving_worker_respawns_total").value == 1
        assert registry.counter("serving_worker_spawns_total").value == 3
        assert injector.summary() == {"dispatch/kill": 1}


class TestSpawnFailure:
    def test_boot_failure_fails_requests_without_hanging(
        self, cluster, wordcount, small_text, monkeypatch
    ):
        # Fork inherits the patched module state, so every child's boot
        # raises before it can serve.
        def _refuse(*args, **kwargs):
            raise RuntimeError("synthetic boot failure")

        monkeypatch.setattr(
            "repro.serving.procpool.WorkerRuntime", _refuse
        )
        registry = MetricsRegistry()
        service = _service(cluster, "processes", registry, workers=1)
        try:
            service.start()
            response = service.submit_request(
                wordcount, small_text, tenant="t"
            ).result(timeout=60.0)
            assert response.status == "failed"
            assert "RuntimeError" in response.error
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if registry.counter(
                    "serving_worker_spawn_errors_total"
                ).value:
                    break
                time.sleep(0.02)
            assert (
                registry.counter("serving_worker_spawn_errors_total").value
                == 1
            )
            # The slot stays dead (a worker that cannot boot must not
            # respawn-loop); later requests fail fast.
            later = service.submit_request(
                wordcount, small_text, tenant="t"
            ).result(timeout=60.0)
            assert later.status == "failed"
        finally:
            assert service.stop(timeout=60.0)
        assert registry.counter("serving_worker_respawns_total").value == 0


class TestShutdown:
    def test_stop_unlinks_every_segment(self, cluster, wordcount, small_text):
        service = _service(cluster, "processes", MetricsRegistry())
        service.start()
        publisher = service._procpool._publisher
        names = set(publisher.segment_names())
        names.add(publisher.ctrl_name)
        response = service.submit_request(
            wordcount, small_text, tenant="t"
        ).result(timeout=120.0)
        assert response.ok
        names.update(publisher.segment_names())
        assert service.stop(timeout=60.0)
        leaked = sorted(name for name in names if not _segment_gone(name))
        assert leaked == []
        with pytest.raises(ServiceClosedError):
            service.submit_request(wordcount, small_text, tenant="t")


class TestWorkerRuntime:
    """The worker's serving core, driven in-process for coverage."""

    @pytest.fixture()
    def published(self):
        store = ProfileStore(registry=MetricsRegistry())
        publisher = SharedIndexPublisher(store, registry=MetricsRegistry())
        publisher.publish()
        yield store, publisher
        publisher.close()

    def test_single_task_returns_wire_payload(
        self, published, cluster, wordcount, small_text
    ):
        __, publisher = published
        runtime = WorkerRuntime(publisher.ctrl_name, cluster)
        try:
            entry = runtime.serve(
                {
                    "request_id": 7,
                    "job": wordcount,
                    "dataset": small_text,
                    "config": None,
                    "seed": 0,
                }
            )
            generation = runtime.proxy.view_generation
        finally:
            runtime.close()
        assert entry["request_id"] == 7 and entry["ok"]
        assert entry["result"]["job_name"] == wordcount.name
        # The miss-path profile write rode the outbox, not the store.
        assert len(entry["outbox"]) == 1
        assert entry["outbox"][0][0] == entry["result"]["profile_stored_as"]
        assert entry["generation"] == generation >= 0

    def test_failure_entry_uses_thread_backend_error_format(
        self, published, cluster, small_text
    ):
        __, publisher = published
        runtime = WorkerRuntime(publisher.ctrl_name, cluster)
        try:
            entry = runtime.serve(
                {
                    "request_id": 3,
                    "job": None,  # no such job: the pipeline raises
                    "dataset": small_text,
                }
            )
        finally:
            runtime.close()
        assert not entry["ok"] and entry["result"] is None
        # "TypeName: message" — exactly what _failure_response expects.
        error_type = entry["error"].split(":", 1)[0]
        assert error_type.isidentifier() and error_type.endswith("Error")
