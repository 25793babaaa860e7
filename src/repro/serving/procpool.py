"""The process backend: each lane's misses run in its own worker process.

The GIL caps in-process lanes at one core of matcher/CBO work no matter
how many lanes run.  Under ``backend="processes"`` every lane of
:class:`~repro.serving.service.TuningService` instead owns one worker
*process*, each running its own read-only PStorM pipeline, all probing
the same columnar :class:`~repro.core.match_index.MatchIndex` matrices
through ``multiprocessing.shared_memory`` (:mod:`repro.core.shm_index`)
— one copy of the matrices per generation, zero-copy numpy views per
worker.  The queue, admission, deadline shedding, cache and response
bookkeeping are the service's own; this module only runs misses.

Ownership is strictly single-writer:

- the **parent** owns the authoritative profile store, the result cache,
  and the :class:`~repro.core.shm_index.SharedIndexPublisher`; its lanes
  serve cache hits themselves (no IPC) and it is the only process that
  ever writes;
- each **worker** owns a :class:`SnapshotStoreProxy`: a local replica
  rebuilt from the last published generation, an outbox of profile
  writes travelling back to the parent, and the store's ``index_view()``
  contract, so the stock :class:`~repro.core.matcher.ProfileMatcher`
  probes the shared matrices unchanged.  Workers never see a torn view:
  generations are immutable segments, and a worker holding unpublished
  local writes probes its replica's own index view, which covers them —
  read-your-writes without a lock.

A lane sends each miss as one task over a task/result queue pair
private to it; the result travels back as a ``SubmissionResult.to_dict()``
wire payload plus the drained outbox, which the lane applies to the
real store before republishing.

A chaos plan's ``kill`` fault (:func:`repro.chaos.plan.worker_kill_plan`)
SIGKILLs the lane's worker at the dispatch boundary; the lane respawns
it and resends its task, as it does for a worker that dies mid-task.  A
worker that fails to boot leaves its slot dead for good.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..analysis.static_features import StaticFeatures
from ..chaos import get_injector
from ..chaos.retry import StoreUnavailableError
from ..core.match_index import IndexView
from ..core.pstorm import PStorM, SubmissionResult
from ..core.shm_index import (
    SharedIndexClient,
    SharedIndexPublisher,
)
from ..core.store import ProfileStore
from ..hadoop.cluster import ClusterSpec
from ..hadoop.engine import HadoopEngine
from ..hbase.errors import HBaseError, WorkerKilledError
from ..observability import MetricsRegistry, get_registry
from ..starfish.profile import JobProfile
from .service import TuningRequest, TuningService, run_submission

__all__ = [
    "SnapshotStoreProxy",
    "WorkerRuntime",
    "ProcessBackend",
]

_STOP = None  # worker sentinel


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

    :meth:`index_view` hands the matcher the pinned shared-memory view,
    so one ``match_side`` call runs entirely against a single generation
    even if the publisher flips mid-probe.
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
        self._replica = ProfileStore(registry=registry, tracer=tracer)

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
        replica = ProfileStore(registry=self.registry, tracer=self.tracer)
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

    def index_view(self) -> IndexView:
        """The pinned view for one probe side.

        Remaps to the newest published generation.  While this worker
        holds local writes the publisher has not absorbed yet, the
        shared view does not cover them, so the probe runs on the
        replica's own index view, which does.
        """
        view = self.sync()
        if self._local:
            return self._replica.index_view()
        return view

    def refresh_match_index(self) -> None:
        # The shared view refreshes on the next probe's index_view();
        # there is nothing to rebuild worker-side.
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
    def serve(self, task: dict[str, Any]) -> dict[str, Any]:
        """Answer one task dict (one submission) with its wire payload."""
        outcome = run_submission(
            self.pipeline,
            task["job"],
            task["dataset"],
            task.get("config"),
            task.get("seed", 0),
        )
        failed = isinstance(outcome, str)
        return {
            "request_id": task["request_id"],
            "ok": not failed,
            "result": None if failed else outcome.to_dict(),
            # Same "TypeName: message" as in-process failures.
            "error": outcome if failed else None,
            "outbox": self.proxy.drain_outbox(),
            "generation": self.proxy.view_generation,
        }

    def close(self) -> None:
        self.proxy.close()


def _worker_main(
    ctrl_name: str,
    cluster: ClusterSpec,
    seed: int,
    task_queue: Any,
    result_queue: Any,
    unregister: bool,
    tuner: str = "cbo",
) -> None:
    """Child-process entry point: build a runtime, answer the lane's tasks."""
    try:
        runtime = WorkerRuntime(
            ctrl_name, cluster, seed=seed, unregister=unregister, tuner=tuner
        )
    except Exception as exc:  # noqa: BLE001 — report, never hang the lane
        result_queue.put(("spawn-error", f"{type(exc).__name__}: {exc}"))
        return
    try:
        while True:
            task = task_queue.get()
            if task is _STOP:
                return
            result_queue.put(("result", runtime.serve(pickle.loads(task))))
    finally:
        runtime.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """One lane's worker process and its private task/result queues."""

    index: int
    process: Any
    tasks: Any
    results: Any
    #: False once the worker failed to boot: the slot stays dead.
    alive: bool = True


class ProcessBackend:
    """Where the lanes of a ``backend="processes"`` service run misses.

    Publishes the store's match index over shared memory and keeps one
    worker process per lane.  :meth:`run` is a lane's miss runner: it
    sends one miss as one task, waits for the answer, applies the
    result's outbox to the authoritative store and republishes.
    """

    def __init__(
        self,
        service: TuningService,
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
        self._publish_lock = threading.Lock()
        self._publisher: SharedIndexPublisher | None = None
        self._workers: list[_Worker] = []
        self._stopping = False

    def start(self) -> None:
        self._publisher = SharedIndexPublisher(
            self.service.store, registry=self.registry
        )
        self._publisher.publish()
        self._workers = [
            self._spawn(index) for index in range(self.service.config.workers)
        ]
        self._count_alive()

    def _spawn(self, index: int) -> _Worker:
        assert self._publisher is not None
        tasks, results = self._ctx.Queue(), self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._publisher.ctrl_name,
                self.service.cluster,
                self.service.seed,
                tasks,
                results,
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
        return _Worker(index=index, process=process, tasks=tasks, results=results)

    def _count_alive(self) -> None:
        get_registry(self.registry).gauge(
            "serving_workers_alive", "serving worker processes currently alive"
        ).set(float(sum(1 for w in self._workers if w.alive)))

    def alive(self, index: int) -> bool:
        """May lane *index* keep taking work?"""
        return self._workers[index].alive

    def publish(self) -> None:
        """Republish after a parent-side write; workers keep the last
        good view if it fails."""
        try:
            with self._publish_lock:
                if self._publisher is not None:
                    self._publisher.publish()
        except Exception:  # noqa: BLE001
            get_registry(self.registry).counter(
                "serving_publish_failures_total",
                "shared-index republishes that failed after an outbox",
            ).inc()

    # ------------------------------------------------------------------
    def run(self, index: int, request: TuningRequest) -> SubmissionResult | str:
        """Lane *index*'s miss runner: one task to its worker; the
        ``SubmissionResult`` or ``"TypeName: message"`` it answers."""
        payload = self._round_trip(
            index,
            dict(
                request_id=request.request_id, job=request.job,
                dataset=request.dataset, config=request.config, seed=request.seed,
            ),
        )
        if isinstance(payload, str):
            return payload
        self._apply_outbox(payload)
        if payload["ok"]:
            return SubmissionResult.from_dict(payload["result"])
        return payload["error"]

    def _round_trip(self, index: int, task: dict[str, Any]) -> dict[str, Any] | str:
        """Send *task* to the lane's worker and wait for its payload; a
        string is an error that fails the task's request."""
        try:
            # Pickled here: the queue's feeder thread would drop an
            # unpicklable task and leave the lane waiting forever.
            blob = pickle.dumps(task)
        except Exception as exc:  # noqa: BLE001 — whatever pickling raises
            return f"{type(exc).__name__}: {exc}"
        registry = get_registry(self.registry)
        worker = self._workers[index]
        injector = get_injector(self._injector)
        if injector is not None:
            try:
                injector.on_operation("dispatch", server_id=index)
            except WorkerKilledError:
                registry.counter(
                    "serving_worker_kills_total",
                    "worker processes SIGKILLed by chaos kill faults",
                ).inc()
                worker = self._respawn(worker, kill=True)
            except HBaseError:
                # Non-kill chaos at the dispatch boundary is transient
                # noise, never a lost request.
                registry.counter(
                    "serving_dispatch_faults_total",
                    "non-kill chaos faults absorbed at dispatch",
                ).inc()
        registry.counter(
            "serving_dispatches_total", "tasks handed to worker processes"
        ).inc()
        worker.tasks.put(blob)
        while True:
            # Read liveness before polling: whatever a worker sent before
            # it exited is already in the pipe.
            alive = worker.process.is_alive()
            try:
                kind, payload = worker.results.get(block=alive, timeout=0.2)
            except queue_module.Empty:
                if alive:
                    continue
                if self._stopping:
                    return "ServiceClosedError: service stopped before completion"
                worker = self._respawn(worker, kill=False)
                worker.tasks.put(blob)
                continue
            if kind == "result":
                return payload
            # The worker could not boot: respawning it would loop forever.
            registry.counter(
                "serving_worker_spawn_errors_total",
                "worker processes that failed during startup",
            ).inc()
            worker.alive = False
            self._count_alive()
            return payload

    def _respawn(self, worker: _Worker, kill: bool) -> _Worker:
        """Replace a lane's worker with a fresh process and queues."""
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=10.0)
        _close_queues(worker)
        replacement = self._spawn(worker.index)
        self._workers[worker.index] = replacement
        get_registry(self.registry).counter(
            "serving_worker_respawns_total",
            "worker processes respawned after a kill or unexpected death",
        ).inc()
        self._count_alive()
        return replacement

    def _apply_outbox(self, payload: dict[str, Any]) -> None:
        """Land a worker's miss-path profile writes in the parent store."""
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
            self.publish()
        publisher = self._publisher
        published = -1 if publisher is None else publisher.published_generation
        registry.gauge(
            "serving_generation_lag",
            "published generation minus the generation workers answered from",
        ).set(float(published - payload.get("generation", -1)))

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 30.0) -> set[int]:
        """Shut every worker down and unlink every segment; returns the
        lanes whose worker had to be force-killed (the "hung" ones)."""
        self._stopping = True
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            if worker.alive:
                worker.tasks.put(_STOP)
        hung: set[int] = set()
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                hung.add(worker.index)
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.alive = False
            _close_queues(worker)
        with self._publish_lock:
            if self._publisher is not None:
                self._publisher.close()
                self._publisher = None
        self._count_alive()
        return hung


def _close_queues(worker: _Worker) -> None:
    for channel in (worker.tasks, worker.results):
        try:
            channel.close()
        except Exception:  # noqa: BLE001 — a killed reader can corrupt it
            pass
