"""The tuning service: a concurrent multi-client frontend over PStorM.

``PStorM.submit`` is a blocking single-caller library call; this module
wraps it in the serving shape the ROADMAP's always-on deployment needs:

- a **bounded request queue** fed through the admission gates of
  :mod:`repro.serving.admission` (watermark shedding + per-tenant token
  buckets), drained by ``config.workers`` **lane threads**;
- a keyed :class:`~repro.serving.cache.ResultCache` probed when a lane
  takes a request off the queue, before any pipeline work, and
  **invalidated** when ``remember()`` (or a miss-path profile write)
  lands a new profile for a matching job signature;
- graceful degradation under chaos: ``PStorM.submit`` already absorbs
  store outages into degraded results, and ``remember()`` failures are
  swallowed into a counted ``None`` — a lane never dies of a bad
  request, a request never hangs.

There is one request path.  Each lane takes one request at a time,
sheds it if it waited past its deadline, and otherwise serves it through
:meth:`TuningService.handle`'s code: a cache hit is answered in the
parent, a miss runs on the lane's **miss runner** as one
``PStorM.submit``.  The backends differ only in that runner:

- ``backend="threads"``: the lane's own in-process PStorM pipeline
  (engine, profiler, sampler, tuner — none shared-state safe) over the
  **one shared profile store**, which *is* concurrency-safe;
- ``backend="processes"``: the one worker process the lane owns, over
  the shared-memory match index (:mod:`repro.serving.procpool`).

The deterministic event loop of :mod:`repro.serving.loadgen` calls
:meth:`TuningService.handle` inline at simulated timestamps instead —
bit-reproducible summaries.
"""

from __future__ import annotations

import functools
import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..chaos.retry import RetryPolicy, StoreUnavailableError, VirtualClock
from ..core.maintenance import MaintainedStore
from ..core.pstorm import PStorM, SubmissionResult
from ..core.resilient import ResilientProfileStore
from ..core.store import ProfileStore
from ..hadoop.cluster import ClusterSpec, ec2_cluster
from ..hadoop.config import JobConfiguration
from ..hadoop.dataset import Dataset
from ..hadoop.engine import HadoopEngine
from ..hadoop.job import MapReduceJob
from ..observability import (
    SIM_SECONDS_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from ..tuners import TUNER_NAMES
from .admission import AdmissionController, TenantPolicy
from .cache import ResultCache, cache_key_for, job_signature
from .errors import ServiceClosedError

__all__ = [
    "ServiceConfig",
    "TuningRequest",
    "TuningResponse",
    "TuningService",
]

_SENTINEL = object()

#: Modelled cost of serving a cached result (simulated seconds).
CACHE_HIT_COST_SECONDS = 0.01
#: Modelled matcher/CBO overhead on top of the 1-task sample cost.
MATCH_OVERHEAD_SECONDS = 0.25
#: Modelled cost of one remember() write (full instrumented run).
REMEMBER_COST_SECONDS = 60.0
#: Result-cache TTL on the service's simulated clock.
CACHE_TTL_SECONDS = 6 * 3600.0
#: Miss runners of the real frontend (see ``ServiceConfig.backend``).
BACKENDS = ("threads", "processes")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`TuningService` deployment."""

    #: Lane threads of the real frontend (each owning one worker process
    #: under the process backend) / simulated servers (loadgen).
    workers: int = 4
    #: Hard bound of the request queue.
    queue_capacity: int = 64
    #: Depth at which admission starts shedding; None = queue_capacity.
    shed_watermark: int | None = None
    #: Result-cache entry bound (LRU beyond it).
    cache_capacity: int = 256
    #: Per-tenant rate limits; other tenants get ``TenantPolicy()``.
    tenant_policies: Mapping[str, TenantPolicy] = field(default_factory=dict)
    #: Budget a request may spend waiting in the queue before it is shed
    #: with reason "deadline" instead of started late.
    deadline_seconds: float = 1800.0
    #: When set, bound the shared store to this many profiles
    #: (MaintainedStore inside the resilient client).
    store_capacity: int | None = None
    #: Concurrency backend of the real frontend: "threads" (worker
    #: threads, GIL-bound) or "processes" (worker processes over the
    #: shared-memory index, :mod:`repro.serving.procpool`).
    backend: str = field(default="threads", metadata={"choices": BACKENDS})
    #: Modelled cost of the cache probe itself (simulated seconds).
    #: Deliberately off the 0.01 cache-hit grid so warm-path latency
    #: percentiles resolve instead of clamping to one tick.
    cache_lookup_cost_seconds: float = 0.0
    #: Region servers hosting the store's HBase substrate (sharding).
    num_region_servers: int = 1
    #: Read replicas per region (clamped to num_region_servers).
    replication: int = 1
    #: Rows per region before it splits; None = substrate default.
    split_threshold: int | None = None
    #: Probe with per-region scatter-gather match-index partitions
    #: instead of one flat index.
    shard_index: bool = False
    #: Which tuner-family member optimizes matched profiles on the hit
    #: path ("rbo", "cbo", "surrogate"); "cbo" is the paper's workflow
    #: and is bit-identical to the pre-family path.
    tuner: str = field(default="cbo", metadata={"choices": TUNER_NAMES})

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.tuner not in TUNER_NAMES:
            raise ValueError(
                f"unknown tuner {self.tuner!r}; expected one of {TUNER_NAMES}"
            )
        if self.deadline_seconds <= 0:
            raise ValueError("deadline must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.num_region_servers < 1:
            raise ValueError("need at least one region server")
        if self.replication < 1:
            raise ValueError("replication must be at least 1")


@dataclass(frozen=True)
class TuningRequest:
    """One tuning question from one tenant."""

    request_id: int
    tenant: str
    job: MapReduceJob
    dataset: Dataset
    config: JobConfiguration | None = None
    seed: int = 0
    submitted_at: float = 0.0
    deadline_seconds: float | None = None


@dataclass
class TuningResponse:
    """What the service answered (wire-serializable via to_dict)."""

    request_id: int
    tenant: str
    #: "ok" | "shed" | "failed"
    status: str
    cache_hit: bool = False
    degraded: bool = False
    shed_reason: str | None = None
    retry_after_seconds: float | None = None
    wait_seconds: float = 0.0
    service_seconds: float = 0.0
    result: SubmissionResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable wire form (result via its own codec)."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "shed_reason": self.shed_reason,
            "retry_after_seconds": self.retry_after_seconds,
            "wait_seconds": self.wait_seconds,
            "service_seconds": self.service_seconds,
            "result": None if self.result is None else self.result.to_dict(),
            "error": self.error,
        }


#: A miss runner: runs one cache-missing request, returning its
#: ``SubmissionResult`` or the ``"TypeName: message"`` it raised.
MissRunner = Callable[[TuningRequest], "SubmissionResult | str"]


def run_submission(
    pipeline: PStorM,
    job: MapReduceJob,
    dataset: Dataset,
    config: JobConfiguration | None,
    seed: int,
) -> SubmissionResult | str:
    """Submit one job to *pipeline*: its result, or the
    ``"TypeName: message"`` it raised.  Thread lanes and worker
    processes both run misses through here."""
    try:
        return pipeline.submit(job, dataset, config, seed=seed)
    except Exception as exc:  # noqa: BLE001 — a bad request fails alone
        return f"{type(exc).__name__}: {exc}"


class TuningService:
    """A multi-tenant tuning frontend over one shared profile store.

    Args:
        cluster: the cluster every worker pipeline simulates against;
            a fresh EC2-shaped one if omitted.
        store: the shared profile store (bare, maintained, or already
            resilient); built from ``config.store_capacity`` if omitted.
        config: service knobs.
        seed: seed handed to each worker's PStorM (CBO search etc.).
        engine_factory: how a worker builds its private engine; defaults
            to ``HadoopEngine(cluster)``.
        data_dir: build the service over a *durable* profile store
            rooted here (restored if the directory already holds
            state, so a restarted service serves its first probe from
            the snapshot checkpoint).  Ignored when *store* is given.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        store: Any = None,
        config: ServiceConfig | None = None,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        retry_policy: RetryPolicy | None = None,
        engine_factory: Callable[[], HadoopEngine] | None = None,
        data_dir: Any = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cluster = cluster if cluster is not None else ec2_cluster()
        self.seed = seed
        self.registry = registry
        self.tracer = tracer
        self._engine_factory = engine_factory

        inner = (
            store
            if store is not None
            else ProfileStore(
                registry=registry,
                data_dir=data_dir,
                num_region_servers=self.config.num_region_servers,
                replication=self.config.replication,
                split_threshold=self.config.split_threshold,
                shard_index=self.config.shard_index,
            )
        )
        if self.config.store_capacity is not None and not isinstance(
            inner, (MaintainedStore, ResilientProfileStore)
        ):
            inner = MaintainedStore(inner, capacity=self.config.store_capacity)
        if isinstance(inner, ResilientProfileStore):
            self.store = inner
        else:
            self.store = ResilientProfileStore(
                inner, policy=retry_policy, registry=registry
            )

        #: Simulated clock: cache TTLs and service-time accounting live
        #: here.  The lanes advance it by each response's modelled cost;
        #: the load harness drives it directly.
        self.clock = VirtualClock()
        self.cache = ResultCache(
            capacity=self.config.cache_capacity,
            ttl_seconds=CACHE_TTL_SECONDS,
            registry=registry,
        )
        self.admission = AdmissionController(
            queue_capacity=self.config.queue_capacity,
            shed_watermark=self.config.shed_watermark,
            tenant_policies=dict(self.config.tenant_policies),
            registry=registry,
        )

        self._lock = threading.RLock()
        self._pipelines = threading.local()
        self._seq = itertools.count(1)
        self._queue: "queue.Queue[Any] | None" = None
        self._lanes: list[threading.Thread] = []
        #: Lanes still taking work (a lane whose worker cannot boot retires).
        self._live_lanes = 0
        self._procpool: Any = None
        self._running = False
        self._hung_workers = 0
        #: Rolling estimate of one request's modelled cost, for the
        #: queue-full retry-after hint.
        self._cost_estimate = MATCH_OVERHEAD_SECONDS

    # ------------------------------------------------------------------
    # Pipeline management
    # ------------------------------------------------------------------
    def _pipeline(self) -> PStorM:
        """This thread's private PStorM over the shared store."""
        pipeline = getattr(self._pipelines, "pstorm", None)
        if pipeline is None:
            engine = (
                self._engine_factory()
                if self._engine_factory is not None
                else HadoopEngine(self.cluster)
            )
            pipeline = PStorM(
                engine,
                store=self.store,
                seed=self.seed,
                tuner=self.config.tuner,
                registry=self.registry,
                tracer=self.tracer,
            )
            self._pipelines.pstorm = pipeline
        return pipeline

    def _run_local(self, request: TuningRequest) -> SubmissionResult | str:
        """The in-process miss runner: this thread's own pipeline."""
        return run_submission(
            self._pipeline(), request.job, request.dataset, request.config,
            request.seed,
        )

    def next_request_id(self) -> int:
        return next(self._seq)

    # ------------------------------------------------------------------
    # The request path (every frontend calls into this)
    # ------------------------------------------------------------------
    def handle(self, request: TuningRequest, now: float | None = None) -> TuningResponse:
        """Serve one admitted request: cache probe, else the full pipeline."""
        return self._serve(request, now, self._run_local)

    def _serve(
        self, request: TuningRequest, now: float | None, run_miss: MissRunner
    ) -> TuningResponse:
        """Serve *request* at simulated time *now*, running a miss on
        *run_miss*.

        Never raises for store trouble: ``PStorM.submit`` degrades
        internally and anything else is folded into a ``"failed"``
        response — a lane is unkillable by a bad request.  The request gets one ``serving.handle`` span; a miss's span
        encloses its run on the miss runner (``pstorm.submit`` in
        process, or the round trip to the lane's worker).
        """
        if now is None:
            now = self.clock.now()
        registry = get_registry(self.registry)
        registry.counter(
            "serving_requests_total",
            "requests reaching the service pipeline",
            labels={"tenant": request.tenant},
        ).inc()
        key = cache_key_for(request.job, request.dataset, self.cluster)
        cached = self.cache.get(key, now)
        with get_tracer(self.tracer).span(
            "serving.handle",
            tenant=request.tenant,
            job=request.job.name,
            cache_hit=cached is not None,
        ):
            if cached is not None:
                response = self._hit_response(request, cached)
            else:
                response = self._miss_response(request, key, run_miss(request), now)
        self._record_response(response)
        return response

    def _hit_response(
        self, request: TuningRequest, cached: SubmissionResult
    ) -> TuningResponse:
        return TuningResponse(
            request_id=request.request_id,
            tenant=request.tenant,
            status="ok",
            cache_hit=True,
            degraded=cached.degraded,
            service_seconds=(
                CACHE_HIT_COST_SECONDS + self.config.cache_lookup_cost_seconds
            ),
            result=cached,
        )

    def _failure_response(
        self, request: TuningRequest, error: str
    ) -> TuningResponse:
        return TuningResponse(
            request_id=request.request_id,
            tenant=request.tenant,
            status="failed",
            service_seconds=(
                CACHE_HIT_COST_SECONDS + self.config.cache_lookup_cost_seconds
            ),
            error=error,
        )

    def _miss_response(
        self,
        request: TuningRequest,
        key: Any,
        outcome: SubmissionResult | str,
        now: float,
    ) -> TuningResponse:
        if isinstance(outcome, str):
            get_registry(self.registry).counter(
                "serving_pipeline_failures_total",
                "requests that raised inside the tuning pipeline",
            ).inc()
            return self._failure_response(request, outcome)
        if not outcome.degraded:
            self.cache.put(key, outcome, now)
            if outcome.profile_stored_as is not None:
                # The miss path just enriched the store for this program:
                # peers cached against the poorer store are stale.
                self.cache.invalidate_job(key.job_signature, keep=key)
        return TuningResponse(
            request_id=request.request_id,
            tenant=request.tenant,
            status="ok",
            degraded=outcome.degraded,
            service_seconds=(
                outcome.sampling_seconds
                + MATCH_OVERHEAD_SECONDS
                + self.config.cache_lookup_cost_seconds
            ),
            result=outcome,
        )

    def remember(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration | None = None,
        seed: int = 0,
    ) -> str | None:
        """Store a fully instrumented profile and invalidate stale cache.

        Returns the stored job id, or None when the store write gave up
        under its retry budget (counted, never raised — the serving loop
        must outlive its store).
        """
        registry = get_registry(self.registry)
        try:
            job_id = self._pipeline().remember(job, dataset, config, seed=seed)
        except StoreUnavailableError:
            registry.counter(
                "serving_remember_failures_total",
                "remember() writes that exhausted the store budget",
            ).inc()
            return None
        self.cache.invalidate_job(job_signature(job))
        # The result cache and the store's columnar match index go stale
        # together on a profile write, so they are refreshed together:
        # peers re-match against the richer store, and they do it on the
        # indexed path rather than paying a rebuild scan on first probe.
        refresh = getattr(self.store, "refresh_match_index", None)
        if callable(refresh):
            try:
                refresh()
            except StoreUnavailableError:
                registry.counter(
                    "serving_index_refresh_failures_total",
                    "match-index refreshes that exhausted the store budget",
                ).inc()
        registry.counter(
            "serving_remembers_total", "profiles stored via the service"
        ).inc()
        with self._lock:
            procpool = self._procpool
        if procpool is not None:
            # Worker processes only see the write once it is published.
            procpool.publish()
        return job_id

    def _record_response(self, response: TuningResponse) -> None:
        registry = get_registry(self.registry)
        registry.counter(
            "serving_responses_total",
            "responses produced, by status",
            labels={"status": response.status},
        ).inc()
        if response.degraded:
            registry.counter(
                "serving_degraded_responses_total",
                "responses served through a degraded pipeline",
            ).inc()
        registry.histogram(
            "serving_service_seconds",
            "modelled service time per request",
            buckets=SIM_SECONDS_BUCKETS,
        ).observe(response.service_seconds)
        with self._lock:
            # EMA of request cost, feeding the queue-full retry hint.
            self._cost_estimate = (
                0.8 * self._cost_estimate + 0.2 * response.service_seconds
            )

    def backlog_hint(self, queue_depth: int) -> float:
        """Estimated seconds for the current backlog to drain."""
        with self._lock:
            per_request = self._cost_estimate
        return max(0.001, queue_depth * per_request / self.config.workers)

    # ------------------------------------------------------------------
    # The real frontend: one queue, config.workers lanes
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the lanes (idempotent); under ``backend="processes"``
        each first gets its worker process (:mod:`repro.serving.procpool`)."""
        with self._lock:
            if self._running:
                return
            procpool = None
            if self.config.backend == "processes":
                from .procpool import ProcessBackend

                procpool = ProcessBackend(self)
                procpool.start()
            self._procpool = procpool
            self._queue = queue.Queue()
            self._lanes = [
                threading.Thread(
                    target=self._lane_loop,
                    args=(index, self._queue, procpool),
                    name=f"tuning-lane-{index}",
                    daemon=True,
                )
                for index in range(self.config.workers)
            ]
            self._live_lanes = len(self._lanes)
            self._running = True
            self._hung_workers = 0
            lanes = list(self._lanes)
        for lane in lanes:
            lane.start()

    def submit_request(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        tenant: str = "default",
        config: JobConfiguration | None = None,
        seed: int = 0,
    ) -> "Future[TuningResponse]":
        """Admit and enqueue one request; returns a future response.

        Raises:
            ServiceClosedError: the service is not running.
            ServiceOverloadError: shed at admission (queue watermark or
                tenant rate limit); carries the retry-after hint.
        """
        future: "Future[TuningResponse]" = Future()
        # One lock around admission and enqueue: the depth admission read
        # is the depth the request joins (the watermark never exceeds the
        # queue's capacity), and nothing lands in a queue that stop() or
        # the last retiring lane has already given up on.
        with self._lock:
            if not self._running or self._queue is None:
                raise ServiceClosedError("service is not accepting requests")
            depth = self._queue.qsize()
            now = time.monotonic()
            self.admission.admit(
                tenant, depth, now=now, backlog_seconds_hint=self.backlog_hint(depth)
            )
            request = TuningRequest(
                request_id=self.next_request_id(),
                tenant=tenant,
                job=job,
                dataset=dataset,
                config=config,
                seed=seed,
                submitted_at=now,
            )
            if not self._live_lanes:
                future.set_result(self._no_live_workers(request))
                return future
            self._queue.put_nowait((request, future, now))
        get_registry(self.registry).gauge(
            "serving_queue_depth", "requests waiting in the service queue"
        ).set(depth + 1)
        return future

    def _no_live_workers(self, request: TuningRequest) -> TuningResponse:
        response = self._failure_response(request, "RuntimeError: no live workers")
        self._record_response(response)
        return response

    def _lane_loop(
        self, index: int, work_queue: "queue.Queue[Any]", procpool: Any
    ) -> None:
        run_miss: MissRunner = (
            self._run_local
            if procpool is None
            else functools.partial(procpool.run, index)
        )
        while True:
            item = work_queue.get()
            if item is _SENTINEL:
                return
            self._serve_queued(*item, run_miss)
            if procpool is not None and not procpool.alive(index):
                self._retire_lane(work_queue)
                return

    def _serve_queued(
        self,
        request: TuningRequest,
        future: "Future[TuningResponse]",
        enqueued_at: float,
        run_miss: MissRunner,
    ) -> None:
        """Shed the request if it waited past its deadline, else serve it;
        resolve its future either way.  ``wait_seconds`` is the time it
        spent queued."""
        registry = get_registry(self.registry)
        wait = max(0.0, time.monotonic() - enqueued_at)
        registry.histogram(
            "serving_queue_wait_seconds",
            "time requests spent queued before a worker took them",
        ).observe(wait)
        deadline = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.config.deadline_seconds
        )
        if wait > deadline:
            registry.counter(
                "serving_shed_total",
                "requests refused at admission, by reason",
                labels={"reason": "deadline"},
            ).inc()
            response = TuningResponse(
                request_id=request.request_id,
                tenant=request.tenant,
                status="shed",
                shed_reason="deadline",
                wait_seconds=wait,
            )
            self._record_response(response)
            future.set_result(response)
            return
        try:
            response = self._serve(request, None, run_miss)
        except Exception as exc:  # noqa: BLE001 — a lane outlives any request
            future.set_exception(exc)
            return
        response.wait_seconds = wait
        with self._lock:
            self.clock.advance(response.service_seconds)
        future.set_result(response)

    def _retire_lane(self, work_queue: "queue.Queue[Any]") -> None:
        """Take a lane out of service for good; the last lane to go fails
        whatever is still queued, and later requests fail fast."""
        with self._lock:
            self._live_lanes -= 1
            if self._live_lanes:
                return
        while True:
            try:
                item = work_queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SENTINEL:
                request, future, __ = item
                future.set_result(self._no_live_workers(request))

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain and join the lanes; True when every worker exited.

        Queued work is completed first (sentinels queue behind it).  A
        lane that fails to join within *timeout*, or whose worker
        process had to be killed, is counted on the
        ``serving_workers_hung`` gauge — the acceptance bar for chaos
        runs is that this stays at zero.
        """
        with self._lock:
            if not self._running:
                return True
            self._running = False
            work_queue, lanes, procpool = self._queue, self._lanes, self._procpool
        assert work_queue is not None
        for __ in lanes:
            work_queue.put(_SENTINEL)
        deadline = time.monotonic() + timeout
        for lane in lanes:
            lane.join(timeout=max(0.0, deadline - time.monotonic()))
        hung = {index for index, lane in enumerate(lanes) if lane.is_alive()}
        if procpool is not None:
            hung |= procpool.stop(max(0.0, deadline - time.monotonic()))
        with self._lock:
            self._hung_workers = len(hung)
            self._queue = None
            self._lanes = []
            self._procpool = None
        get_registry(self.registry).gauge(
            "serving_workers_hung",
            "workers that failed to join at shutdown",
        ).set(len(hung))
        return not hung

    @property
    def hung_workers(self) -> int:
        return self._hung_workers

    @property
    def running(self) -> bool:
        return self._running
