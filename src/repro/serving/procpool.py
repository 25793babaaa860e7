"""Multi-process serving: worker processes over the shared-memory index.

The GIL caps the thread frontend of :mod:`repro.serving.service` at one
core of matcher/CBO work no matter how many workers it starts.  This
module is the escape hatch: N worker *processes*, each running its own
read-only PStorM pipeline, all probing the same columnar
:class:`~repro.core.match_index.MatchIndex` matrices through
``multiprocessing.shared_memory`` (:mod:`repro.core.shm_index`) — one
copy of the matrices per generation, zero-copy numpy views per worker.

Ownership is strictly single-writer:

- the **parent** owns the authoritative profile store, the result cache,
  and the :class:`~repro.core.shm_index.SharedIndexPublisher`; it serves
  cache hits itself (no IPC) and is the only process that ever writes;
- each **worker** owns a :class:`SnapshotStoreProxy`: a local replica
  rebuilt from the last published generation, an outbox of profile
  writes travelling back to the parent, and the same ``view()``
  contract as the store's match index, so the stock
  :class:`~repro.core.matcher.ProfileMatcher` probes the shared matrices
  unchanged.  Workers never see a torn view: generations are immutable
  segments, and a worker holding unpublished local writes *poisons* its
  own indexed path so the matcher's existing fallback ladder serves the
  probe from the replica scan — read-your-writes without a lock.

Results travel back as ``SubmissionResult.to_dict()`` wire payloads plus
the drained outbox; the parent applies the outbox to the real store,
republishes, and finishes the response through the exact same
bookkeeping helpers the thread frontend uses — which is what makes a
one-at-a-time process-backend run bit-identical to the thread backend.

Failure modes are embraced, not avoided: a chaos plan's ``kill`` fault
(:func:`repro.chaos.plan.worker_kill_plan`) SIGKILLs the target worker
at the dispatch boundary, and the frontend respawns it and re-dispatches
every in-flight request it held — duplicate results after a respawn are
tolerated by completing each request id at most once.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis.static_features import StaticFeatures
from ..chaos import get_injector
from ..chaos.retry import StoreUnavailableError
from ..core.match_index import IndexView
from ..core.pstorm import PStorM, SubmissionResult
from ..core.shm_index import (
    SharedIndexClient,
    SharedIndexPublisher,
    SharedIndexUnavailableError,
)
from ..core.store import ProfileStore
from ..hadoop.cluster import ClusterSpec
from ..hadoop.config import JobConfiguration
from ..hadoop.engine import HadoopEngine
from ..hbase.errors import HBaseError, WorkerKilledError
from ..observability import COUNT_BUCKETS, MetricsRegistry, get_registry
from ..starfish.profile import JobProfile
from .errors import ServiceClosedError

if TYPE_CHECKING:
    from .service import TuningRequest, TuningService

__all__ = [
    "SnapshotStoreProxy",
    "WorkerRuntime",
    "ProcessPoolFrontend",
]

_STOP = None  # worker/dispatcher sentinel


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class SnapshotStoreProxy:
    """A worker's store: published snapshot replica + pending local writes.

    Duck-type compatible with :class:`~repro.core.store.ProfileStore`
    (everything not overridden delegates to the replica), so the stock
    ``PStorM``/``ProfileMatcher``/``ResilientProfileStore`` stack runs
    on it unchanged.  ``put`` lands in the replica *and* an outbox the
    worker ships back with each result; once the parent publishes a
    generation containing a local write, :meth:`sync` prunes it.

    It is also its own match index: :meth:`view` hands the matcher the
    pinned shared-memory view, so one ``match_side`` call runs entirely
    against a single generation even if the publisher flips mid-probe.
    """

    def __init__(
        self,
        client: SharedIndexClient,
        registry: MetricsRegistry | None = None,
        tracer: Any = None,
    ) -> None:
        # Plain attributes first: __getattr__ delegates to the replica,
        # so everything it needs must exist before any delegation.
        self.registry = registry
        self.tracer = tracer
        self._client = client
        self._view = None
        self._local: dict[str, tuple[JobProfile, StaticFeatures]] = {}
        self._outbox: list[tuple[str, JobProfile, StaticFeatures]] = []
        self._replica = ProfileStore(
            registry=registry, tracer=tracer, enable_index=False
        )

    # -- generation sync ----------------------------------------------
    def sync(self):
        """Attach the freshest published view; rebuild the replica on a
        generation change.  Returns the pinned
        :class:`~repro.core.match_index.IndexView`."""
        view = self._client.view()
        if view is not self._view:
            self._rebuild(self._client.meta())
            self._view = view
        return view

    def _rebuild(self, meta: dict[str, Any]) -> None:
        profiles = meta.get("profiles", {})
        statics = meta.get("statics", {})
        replica = ProfileStore(
            registry=self.registry, tracer=self.tracer, enable_index=False
        )
        # Sorted ids: the min/max normalizer updates are order-independent,
        # so any deterministic order reproduces the parent's bounds.
        for job_id in sorted(profiles):
            replica.put(
                JobProfile.from_dict(profiles[job_id]),
                StaticFeatures.from_dict(statics[job_id]),
                job_id=job_id,
            )
        # Published local writes are now authoritative; the rest replay
        # on top of the fresh snapshot, in original put order.
        for job_id in [j for j in self._local if j in profiles]:
            del self._local[job_id]
        for job_id, (profile, static) in self._local.items():
            replica.put(profile, static, job_id=job_id)
        self._replica = replica

    @property
    def view_generation(self) -> int:
        """Generation of the currently attached view (-1 = none)."""
        return self._client.attached_generation

    def has_pending_local(self) -> bool:
        return bool(self._local)

    def drain_outbox(self) -> list[tuple[str, dict[str, Any], dict[str, Any]]]:
        """Pending writes as wire dicts; clears the outbox (not ``_local``,
        which lives until the parent publishes the writes back)."""
        drained = [
            (job_id, profile.to_dict(), static.to_dict())
            for job_id, profile, static in self._outbox
        ]
        self._outbox = []
        return drained

    # -- ProfileStore overrides ---------------------------------------
    def put(
        self,
        profile: JobProfile,
        static: StaticFeatures,
        job_id: str | None = None,
    ) -> str:
        job_id = self._replica.put(profile, static, job_id)
        self._local[job_id] = (profile, static)
        self._outbox.append((job_id, profile, static))
        return job_id

    def match_index(self) -> "SnapshotStoreProxy":
        return self

    def view(self) -> IndexView:
        """The pinned view for one probe side (the match-index contract).

        Remaps to the newest published generation, then *raises*
        :class:`SharedIndexUnavailableError` while this worker holds
        local writes the publisher has not absorbed yet — the matcher
        counts that as a poisoned index and probes the replica scan
        path, which *does* see the local writes.
        """
        view = self.sync()
        if self._local:
            raise SharedIndexUnavailableError(
                "worker-local writes are not published yet; "
                "probing the replica scan path instead"
            )
        return view

    def refresh_match_index(self) -> None:
        # The shared view refreshes on the next probe's view(); there is
        # nothing to rebuild worker-side.
        return None

    def close(self) -> None:
        self._client.close()

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._replica, name)

    def __len__(self) -> int:
        return len(self._replica)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._replica


class WorkerRuntime:
    """One worker's serving core, separable from its process for tests.

    Builds the read-only stack — shared-index client, snapshot store
    proxy, private PStorM pipeline — and answers task dicts with wire
    payloads.  ``_worker_main`` is a thin loop around this class, so the
    logic is coverable in-process.
    """

    def __init__(
        self,
        ctrl_name: str,
        cluster: ClusterSpec,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        unregister: bool = False,
        tuner: str = "cbo",
    ) -> None:
        #: Per-process sink; disabled by default so result payloads skip
        #: the per-submit metrics snapshot (parent-side metrics are the
        #: observable ones).
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.client = SharedIndexClient(
            ctrl_name, registry=self.registry, unregister=unregister
        )
        self.proxy = SnapshotStoreProxy(self.client, registry=self.registry)
        self.pipeline = PStorM(
            HadoopEngine(cluster),
            store=self.proxy,
            seed=seed,
            tuner=tuner,
            registry=self.registry,
        )

    # ------------------------------------------------------------------
    def _serve_one(
        self,
        request_id: int,
        job: Any,
        dataset: Any,
        config: JobConfiguration | None,
        seed: int,
        presampled: Any = None,
        stage1: Any = None,
    ) -> dict[str, Any]:
        try:
            if presampled is not None and not isinstance(presampled, Exception):
                result = self.pipeline.submit(
                    job, dataset, config, seed=seed,
                    _presampled=presampled, _stage1=stage1,
                )
            else:
                result = self.pipeline.submit(job, dataset, config, seed=seed)
            return {
                "request_id": request_id,
                "ok": True,
                "result": result.to_dict(),
                "error": None,
            }
        except Exception as exc:  # noqa: BLE001 — workers must survive anything
            # Same wire format as the thread backend's failure responses.
            return {
                "request_id": request_id,
                "ok": False,
                "result": None,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def serve(self, task: dict[str, Any]) -> dict[str, Any]:
        """Answer one task dict (single submission or coalesced batch)."""
        if task.get("batch") is not None:
            items = task["batch"]
            normalized = [
                (
                    item["job"],
                    item["dataset"],
                    item.get("config"),
                    item.get("seed", 0),
                )
                for item in items
            ]
            presampled, stage1 = self.pipeline.prepare_batch(normalized)
            entries = [
                self._serve_one(
                    item["request_id"], job, dataset, config, seed,
                    presampled=pre, stage1=stage1,
                )
                for item, (job, dataset, config, seed), pre in zip(
                    items, normalized, presampled
                )
            ]
            return {
                "batch": entries,
                "outbox": self.proxy.drain_outbox(),
                "generation": self.proxy.view_generation,
            }
        entry = self._serve_one(
            task["request_id"],
            task["job"],
            task["dataset"],
            task.get("config"),
            task.get("seed", 0),
        )
        entry["outbox"] = self.proxy.drain_outbox()
        entry["generation"] = self.proxy.view_generation
        return entry

    def close(self) -> None:
        self.proxy.close()


def _worker_main(
    worker_index: int,
    ctrl_name: str,
    cluster: ClusterSpec,
    seed: int,
    task_queue: Any,
    result_queue: Any,
    unregister: bool,
    tuner: str = "cbo",
) -> None:
    """Child-process entry point: build a runtime, drain the task queue."""
    try:
        runtime = WorkerRuntime(
            ctrl_name, cluster, seed=seed, unregister=unregister, tuner=tuner
        )
    except Exception as exc:  # noqa: BLE001 — report, never hang the parent
        result_queue.put(
            ("spawn-error", worker_index, f"{type(exc).__name__}: {exc}")
        )
        return
    try:
        while True:
            task = task_queue.get()
            if task is _STOP:
                return
            result_queue.put(("result", worker_index, runtime.serve(task)))
    finally:
        runtime.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """One dispatched-but-unanswered request."""

    request: "TuningRequest"
    future: Any
    key: Any
    now: float
    task: dict[str, Any]
    worker_index: int
    enqueued_at: float


@dataclass
class _Worker:
    index: int
    process: Any
    queue: Any
    alive: bool = True
    spawned_at: float = field(default_factory=time.monotonic)


class ProcessPoolFrontend:
    """The process backend behind ``TuningService`` (``backend="processes"``).

    The parent publishes the store's match index over shared memory,
    serves cache hits itself, and round-robins misses to worker
    processes; a collector thread applies each result's outbox to the
    authoritative store, republishes, and completes the future through
    the service's own response helpers.  Chaos ``kill`` faults at the
    ``dispatch`` boundary SIGKILL the target worker; the frontend
    respawns it with a fresh queue and re-dispatches everything it held.
    """

    def __init__(
        self,
        service: "TuningService",
        injector: Any = None,
        start_method: str | None = None,
    ) -> None:
        self.service = service
        self.registry = service.registry
        self._injector = injector
        self._ctx = multiprocessing.get_context(start_method)
        #: Forked children share the parent's resource tracker (which the
        #: publisher's unlinks satisfy); spawned children run their own
        #: and must drop attach-time registrations they do not own.
        self._unregister = self._ctx.get_start_method() != "fork"
        self._lock = threading.RLock()
        self._publisher: SharedIndexPublisher | None = None
        self._workers: list[_Worker | None] = []
        self._inflight: dict[int, _Pending] = {}
        self._result_queue: Any = None
        self._collector: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        self._dispatch_queue: "queue_module.Queue[Any] | None" = None
        self._rr = itertools.count()
        self._running = False
        self._stopping = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        registry = get_registry(self.registry)
        self._publisher = SharedIndexPublisher(
            self.service.store, registry=self.registry
        )
        self._publisher.publish()
        self._result_queue = self._ctx.Queue()
        self._workers = [
            self._spawn(index) for index in range(self.service.config.workers)
        ]
        self._running = True
        self._stopping = False
        registry.gauge(
            "serving_workers_alive", "serving worker processes currently alive"
        ).set(float(len(self._workers)))
        self._collector = threading.Thread(
            target=self._collector_loop, name="procpool-collector", daemon=True
        )
        self._collector.start()
        if self.service.config.batch_window_seconds > 0:
            self._dispatch_queue = queue_module.Queue()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="procpool-dispatcher", daemon=True
            )
            self._dispatcher.start()

    def _spawn(self, index: int) -> _Worker:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self._publisher.ctrl_name,
                self.service.cluster,
                self.service.seed,
                task_queue,
                self._result_queue,
                self._unregister,
                self.service.config.tuner,
            ),
            name=f"tuning-proc-{index}",
            daemon=True,
        )
        process.start()
        get_registry(self.registry).counter(
            "serving_worker_spawns_total", "serving worker processes started"
        ).inc()
        return _Worker(index=index, process=process, queue=task_queue)

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Admission's queue-depth signal: dispatched + not yet answered."""
        with self._lock:
            depth = len(self._inflight)
        if self._dispatch_queue is not None:
            depth += self._dispatch_queue.qsize()
        return depth

    def publish(self) -> None:
        """Republish after a parent-side write (``remember`` path)."""
        with self._lock:
            if self._publisher is not None:
                self._publisher.publish()

    # ------------------------------------------------------------------
    def submit(self, request: "TuningRequest", future: Any, now: float) -> None:
        """Accept one admitted request (called by ``submit_request``)."""
        if self._dispatch_queue is not None:
            self._dispatch_queue.put((request, future, now))
            return
        self._dispatch([(request, future, now)])

    def _dispatch_loop(self) -> None:
        window = self.service.config.batch_window_seconds
        batch_max = max(1, self.service.config.batch_max)
        assert self._dispatch_queue is not None
        while True:
            item = self._dispatch_queue.get()
            if item is _STOP:
                return
            batch = [item]
            deadline = time.monotonic() + window
            while len(batch) < batch_max:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._dispatch_queue.get(timeout=remaining)
                except queue_module.Empty:
                    break
                if nxt is _STOP:
                    self._dispatch(batch)
                    return
                batch.append(nxt)
            self._dispatch(batch)

    def _dispatch(self, items: list[tuple[Any, Any, float]]) -> None:
        """Serve cache hits parent-side; coalesce the misses to one worker."""
        from .cache import cache_key_for  # local import: avoid cycle at module load

        registry = get_registry(self.registry)
        misses: list[_Pending] = []
        for request, future, __ in items:
            now = self.service.clock.now()
            registry.counter(
                "serving_requests_total",
                "requests reaching the service pipeline",
                labels={"tenant": request.tenant},
            ).inc()
            key = cache_key_for(request.job, request.dataset, self.service.cluster)
            cached = self.service.cache.get(key, now)
            if cached is not None:
                response = self.service._hit_response(request, cached)
                self.service._record_response(response)
                with self.service._lock:
                    self.service.clock.advance(response.service_seconds)
                future.set_result(response)
                continue
            misses.append(
                _Pending(
                    request=request,
                    future=future,
                    key=key,
                    now=now,
                    task={},
                    worker_index=-1,
                    enqueued_at=time.monotonic(),
                )
            )
        if not misses:
            return
        if len(misses) == 1:
            pending = misses[0]
            request = pending.request
            pending.task = {
                "request_id": request.request_id,
                "job": request.job,
                "dataset": request.dataset,
                "config": request.config,
                "seed": request.seed,
            }
        else:
            task = {
                "batch": [
                    {
                        "request_id": p.request.request_id,
                        "job": p.request.job,
                        "dataset": p.request.dataset,
                        "config": p.request.config,
                        "seed": p.request.seed,
                    }
                    for p in misses
                ]
            }
            for pending in misses:
                pending.task = task
        registry.histogram(
            "serving_batch_size",
            "submissions coalesced into one worker dispatch",
            buckets=COUNT_BUCKETS,
        ).observe(len(misses))
        with self._lock:
            for pending in misses:
                self._inflight[pending.request.request_id] = pending
            self._dispatch_task(
                misses[0].task, [p.request.request_id for p in misses]
            )

    def _pick_worker(self) -> _Worker | None:
        for __ in range(len(self._workers)):
            candidate = self._workers[next(self._rr) % len(self._workers)]
            if candidate is not None and candidate.alive:
                return candidate
        return None

    def _dispatch_task(self, task: dict[str, Any], request_ids: list[int]) -> None:
        """Pick a worker, consult chaos, enqueue. Caller holds the lock."""
        registry = get_registry(self.registry)
        worker = self._pick_worker()
        if worker is None:
            for rid in request_ids:
                pending = self._inflight.pop(rid, None)
                if pending is not None:
                    pending.future.set_result(
                        self.service._failure_response(
                            pending.request, "RuntimeError: no live workers"
                        )
                    )
            return
        injector = get_injector(self._injector)
        if injector is not None:
            try:
                injector.on_operation("dispatch", server_id=worker.index)
            except WorkerKilledError:
                registry.counter(
                    "serving_worker_kills_total",
                    "worker processes SIGKILLed by chaos kill faults",
                ).inc()
                self._respawn(worker, kill=True)
                worker = self._workers[worker.index]
            except HBaseError:
                # Non-kill chaos at the dispatch boundary is treated as
                # transient dispatcher noise, never a lost request.
                registry.counter(
                    "serving_dispatch_faults_total",
                    "non-kill chaos faults absorbed at dispatch",
                ).inc()
        for rid in request_ids:
            if rid in self._inflight:
                self._inflight[rid].worker_index = worker.index
        registry.counter(
            "serving_dispatches_total", "tasks handed to worker processes"
        ).inc()
        worker.queue.put(task)

    # ------------------------------------------------------------------
    def _respawn(self, worker: _Worker, kill: bool) -> None:
        """Replace one worker with a fresh process + queue and re-dispatch
        everything it held. Caller holds the lock."""
        registry = get_registry(self.registry)
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=10.0)
        worker.alive = False
        try:
            worker.queue.close()
        except Exception:  # noqa: BLE001 — a killed reader can corrupt it
            pass
        replacement = self._spawn(worker.index)
        self._workers[worker.index] = replacement
        registry.counter(
            "serving_worker_respawns_total",
            "worker processes respawned after a kill or unexpected death",
        ).inc()
        registry.gauge(
            "serving_workers_alive", "serving worker processes currently alive"
        ).set(float(sum(1 for w in self._workers if w is not None and w.alive)))
        # Re-dispatch the dead worker's in-flight tasks, dispatch order
        # preserved, shared batch tasks exactly once.
        seen: set[int] = set()
        for rid in sorted(self._inflight):
            pending = self._inflight[rid]
            if pending.worker_index != worker.index:
                continue
            pending.worker_index = replacement.index
            if id(pending.task) in seen:
                continue
            seen.add(id(pending.task))
            replacement.queue.put(pending.task)

    def _collector_loop(self) -> None:
        assert self._result_queue is not None
        while True:
            try:
                message = self._result_queue.get(timeout=0.2)
            except queue_module.Empty:
                if not self._running:
                    return
                self._check_liveness()
                continue
            kind, worker_index, payload = message
            if kind == "spawn-error":
                self._on_spawn_error(worker_index, payload)
            else:
                self._on_result(payload)

    def _check_liveness(self) -> None:
        with self._lock:
            if self._stopping:
                return
            for worker in self._workers:
                if worker is None or not worker.alive:
                    continue
                if worker.process.is_alive():
                    continue
                if any(
                    p.worker_index == worker.index
                    for p in self._inflight.values()
                ):
                    self._respawn(worker, kill=False)

    def _on_spawn_error(self, worker_index: int, message: str) -> None:
        """A worker died before serving: fail its work, leave the slot dead
        (respawning a worker that cannot boot would loop forever)."""
        get_registry(self.registry).counter(
            "serving_worker_spawn_errors_total",
            "worker processes that failed during startup",
        ).inc()
        with self._lock:
            worker = self._workers[worker_index]
            if worker is not None:
                worker.alive = False
            stranded = [
                rid
                for rid, p in self._inflight.items()
                if p.worker_index == worker_index
            ]
            pendings = [self._inflight.pop(rid) for rid in sorted(stranded)]
        for pending in pendings:
            response = self.service._failure_response(pending.request, message)
            self.service._record_response(response)
            pending.future.set_result(response)
        get_registry(self.registry).gauge(
            "serving_workers_alive", "serving worker processes currently alive"
        ).set(
            float(sum(1 for w in self._workers if w is not None and w.alive))
        )

    def _on_result(self, payload: dict[str, Any]) -> None:
        registry = get_registry(self.registry)
        outbox = payload.get("outbox") or []
        for job_id, profile_dict, static_dict in outbox:
            try:
                self.service.store.put(
                    JobProfile.from_dict(profile_dict),
                    StaticFeatures.from_dict(static_dict),
                    job_id=job_id,
                )
                registry.counter(
                    "serving_outbox_profiles_total",
                    "worker miss-path profiles applied to the parent store",
                ).inc()
            except StoreUnavailableError:
                registry.counter(
                    "serving_outbox_failures_total",
                    "outbox writes that exhausted the store budget",
                ).inc()
        if outbox:
            try:
                with self._lock:
                    if self._publisher is not None:
                        self._publisher.publish()
            except Exception:  # noqa: BLE001 — workers keep the last good view
                registry.counter(
                    "serving_publish_failures_total",
                    "shared-index republishes that failed after an outbox",
                ).inc()
        with self._lock:
            published = (
                -1
                if self._publisher is None
                else self._publisher.published_generation
            )
        registry.gauge(
            "serving_generation_lag",
            "published generation minus the generation workers answered from",
        ).set(float(published - payload.get("generation", -1)))
        entries = payload["batch"] if payload.get("batch") is not None else [payload]
        for entry in entries:
            self._finish_entry(entry)

    def _finish_entry(self, entry: dict[str, Any]) -> None:
        with self._lock:
            pending = self._inflight.pop(entry["request_id"], None)
        if pending is None:
            return  # duplicate result after a kill + re-dispatch
        request = pending.request
        if entry["ok"]:
            result = SubmissionResult.from_dict(entry["result"])
            self.service._miss_bookkeeping(pending.key, result, pending.now)
            response = self.service._miss_response(request, result)
        else:
            get_registry(self.registry).counter(
                "serving_pipeline_failures_total",
                "requests that raised inside the tuning pipeline",
            ).inc()
            response = self.service._failure_response(request, entry["error"])
        response.wait_seconds = max(
            0.0, time.monotonic() - pending.enqueued_at
        )
        self.service._record_response(response)
        with self.service._lock:
            self.service.clock.advance(response.service_seconds)
        pending.future.set_result(response)

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 30.0) -> int:
        """Drain, shut workers down, unlink every segment; returns the
        number of workers that had to be force-killed (the "hung" count)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            self._stopping = True
        if self._dispatcher is not None and self._dispatch_queue is not None:
            self._dispatch_queue.put(_STOP)
            self._dispatcher.join(timeout=max(0.0, deadline - time.monotonic()))
            self._dispatcher = None
        # Let the collector finish in-flight work first.
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.02)
        for worker in self._workers:
            if worker is not None and worker.alive:
                try:
                    worker.queue.put(_STOP)
                except Exception:  # noqa: BLE001
                    pass
        hung = 0
        for worker in self._workers:
            if worker is None or not worker.alive:
                continue
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                hung += 1
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.alive = False
        self._running = False
        if self._collector is not None:
            self._collector.join(timeout=5.0)
            self._collector = None
        with self._lock:
            stranded = sorted(self._inflight)
            pendings = [self._inflight.pop(rid) for rid in stranded]
        for pending in pendings:
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceClosedError("service stopped before completion")
                )
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.queue.close()
            except Exception:  # noqa: BLE001
                pass
        if self._result_queue is not None:
            try:
                self._result_queue.close()
            except Exception:  # noqa: BLE001
                pass
            self._result_queue = None
        with self._lock:
            if self._publisher is not None:
                self._publisher.close()
                self._publisher = None
        registry = get_registry(self.registry)
        registry.gauge(
            "serving_workers_alive", "serving worker processes currently alive"
        ).set(0.0)
        self._workers = []
        return hung
