"""Deterministic load harness for the tuning service.

The generator replays seeded synthetic tenant traffic against a
:class:`~repro.serving.service.TuningService` as a **discrete-event
simulation**: arrivals, admission decisions, queue waits, and service
times all happen on the virtual clock, and every random draw comes from
one seeded ``random.Random`` — so the same seed produces a
**byte-identical** summary JSON, which is exactly what the CI smoke
compares.  (The thread frontend of ``repro serve`` exercises real
concurrency instead; it is deliberately *not* byte-deterministic.)

Two traffic shapes:

- **open** — arrivals are a Poisson process at ``arrival_rate``
  requests/second, regardless of how the service is coping (the shape
  that exposes overload: queues grow, the watermark sheds);
- **closed** — ``clients`` loop submit → wait for the answer → think;
  load self-regulates with service latency.

A slice of arrivals (every ``remember_every``-th) are ``remember()``
writes instead of tuning questions, so cache invalidation and the
store's write path stay hot under load.

The simulation models one lane pool of ``service.workers`` lanes and
charges each request its modelled service time; it does not model
either backend's cost.  ``ServiceConfig.backend`` picks the real
frontend's miss runner and has no effect here: scaling across workers
is measured on the wall clock against the real service
(``benchmarks/test_serving_scaling.py``).
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from ..hadoop.cluster import ClusterSpec, ec2_cluster
from ..hadoop.dataset import Dataset
from ..hadoop.job import MapReduceJob
from ..observability import MetricsRegistry, get_registry
from ..workloads import (
    bigram_relative_frequency_job,
    grep_job,
    inverted_index_job,
    word_count_job,
)
from ..workloads.text import random_text_source
from .admission import TenantPolicy
from .errors import ServiceOverloadError
from .service import (
    REMEMBER_COST_SECONDS,
    ServiceConfig,
    TuningRequest,
    TuningResponse,
    TuningService,
)

__all__ = [
    "TenantSpec",
    "LoadConfig",
    "LoadReport",
    "run_load",
    "default_tenants",
]

MB = 1 << 20


@dataclass(frozen=True)
class TenantSpec:
    """One synthetic tenant: traffic share plus rate-limit policy."""

    name: str
    weight: float = 1.0
    rate_per_second: float = 50.0
    burst: float = 100.0

    @property
    def policy(self) -> TenantPolicy:
        return TenantPolicy(
            rate_per_second=self.rate_per_second, burst=self.burst
        )


def default_tenants() -> list[TenantSpec]:
    """Three tenants: two well-behaved, one hot and tightly limited.

    ``burst-batch`` submits a third of the traffic through a bucket that
    only sustains one request per 20 simulated seconds — the tenant that
    makes rate-limited sheds show up in every load run.
    """
    return [
        TenantSpec("analytics", weight=4.0, rate_per_second=5.0, burst=20.0),
        TenantSpec("etl", weight=3.0, rate_per_second=5.0, burst=20.0),
        TenantSpec("burst-batch", weight=3.0, rate_per_second=0.05, burst=3.0),
    ]


#: The service loadgen simulates unless told otherwise: a small queue
#: that sheds at 12 deep, so the CI smoke sees sheds as well as hits.
LOADGEN_SERVICE = ServiceConfig(
    queue_capacity=16,
    shed_watermark=12,
    cache_capacity=64,
    deadline_seconds=600.0,
    # Off the 0.01 cache-hit grid: warm-path percentiles resolve to
    # real values instead of clamping at one clock tick.
    cache_lookup_cost_seconds=0.0003,
)


@dataclass(frozen=True)
class LoadConfig:
    """Traffic shape of one load run, plus the service it loads
    (defaults match the CI smoke)."""

    requests: int = 200
    seed: int = 7
    #: "open" (Poisson arrivals) or "closed" (think-time clients).
    mode: str = "open"
    #: Open-loop arrival rate, requests per simulated second.
    arrival_rate: float = 1.0
    #: Closed-loop population and mean think time.
    clients: int = 8
    think_seconds: float = 20.0
    #: Every Nth arrival is a remember() write (0 disables).
    remember_every: int = 25
    #: Who sends the traffic; :func:`run_load` turns each tenant's rate
    #: limit into the service's ``tenant_policies``.
    tenants: Sequence[TenantSpec] = field(default_factory=default_tenants)
    #: The simulated service's knobs; rate limits come from ``tenants``.
    service: ServiceConfig = LOADGEN_SERVICE

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        if self.requests < 1:
            raise ValueError("need at least one request")
        if self.service.tenant_policies:
            raise ValueError(
                "set rate limits through LoadConfig.tenants, "
                "not service.tenant_policies"
            )


def loadgen_zoo() -> list[tuple[MapReduceJob, Dataset]]:
    """The (job, dataset) pairs synthetic tenants draw from.

    Small datasets (3–4 splits) keep a cache-miss pipeline cheap enough
    that a 200-request run finishes in CI time; four distinct programs ×
    two datasets give eight cache keys, so runs exercise misses, hits,
    LRU pressure, and signature-scoped invalidation.
    """
    datasets = [
        Dataset(
            "loadgen-text-192mb",
            nominal_bytes=192 * MB,
            source=random_text_source(),
            seed=41,
        ),
        Dataset(
            "loadgen-text-256mb",
            nominal_bytes=256 * MB,
            source=random_text_source(),
            seed=42,
        ),
    ]
    jobs = [
        word_count_job(),
        inverted_index_job(),
        bigram_relative_frequency_job(),
        grep_job(),
    ]
    return [(job, dataset) for job in jobs for dataset in datasets]


@dataclass
class LoadReport:
    """The run's summary, shaped for byte-stable JSON."""

    summary: dict[str, Any]
    responses: list[TuningResponse] = field(default_factory=list)
    #: The service the run loaded; pass it to another run to replay warm.
    service: TuningService | None = None

    def to_json(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2)


# ----------------------------------------------------------------------
def _percentiles(values: list[float]) -> dict[str, float]:
    """Exact-index percentile summary (deterministic, no interpolation)."""
    if not values:
        return {"max": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(values)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return round(ordered[index], 6)

    return {
        "max": round(ordered[-1], 6),
        "mean": round(sum(ordered) / len(ordered), 6),
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
    }


class _LoadRun:
    """State of one simulated run (workers, queue, tallies)."""

    def __init__(
        self,
        service: TuningService,
        config: LoadConfig,
        registry: MetricsRegistry | None,
    ) -> None:
        self.service = service
        self.config = config
        self.registry = get_registry(registry)
        self.rng = random.Random(config.seed)
        self.zoo = loadgen_zoo()
        self.tenant_names = [t.name for t in config.tenants]
        self.tenant_weights = [t.weight for t in config.tenants]
        #: Min-heap of lane free times — the lane pool.
        self.worker_free = [0.0] * service.config.workers
        heapq.heapify(self.worker_free)
        #: Start times of assigned-but-not-yet-started requests; entries
        #: still in the future at an arrival are the queue.
        self.pending_starts: list[float] = []
        self.responses: list[TuningResponse] = []
        self.sheds: dict[str, int] = {}
        self.per_tenant: dict[str, dict[str, int]] = {
            name: {"cache_hits": 0, "ok": 0, "requests": 0, "shed": 0}
            for name in self.tenant_names
        }
        self.remembers = 0
        self.remember_failures = 0
        self.makespan = 0.0

    # ------------------------------------------------------------------
    def queue_depth(self, now: float) -> int:
        self.pending_starts = [s for s in self.pending_starts if s > now]
        return len(self.pending_starts)

    def pick_tenant(self) -> str:
        return self.rng.choices(self.tenant_names, weights=self.tenant_weights)[0]

    def pick_work(self) -> tuple[MapReduceJob, Dataset]:
        return self.zoo[self.rng.randrange(len(self.zoo))]

    def is_remember(self, index: int) -> bool:
        every = self.config.remember_every
        return every > 0 and index % every == every - 1

    # ------------------------------------------------------------------
    def arrive(
        self,
        index: int,
        now: float,
        tenant: str,
        job: MapReduceJob,
        dataset: Dataset,
    ) -> float:
        """Process one arrival; returns when the work left the system."""
        tally = self.per_tenant[tenant]
        tally["requests"] += 1
        depth = self.queue_depth(now)
        try:
            self.service.admission.admit(
                tenant,
                depth,
                now=now,
                backlog_seconds_hint=self.service.backlog_hint(depth),
            )
        except ServiceOverloadError as exc:
            self._shed(index, now, tenant, exc.reason, exc.retry_after_seconds)
            return now
        free_at = heapq.heappop(self.worker_free)
        start = max(now, free_at)
        wait = start - now
        deadline = self.service.config.deadline_seconds
        if wait > deadline:
            # The worker that would have served it stays free.
            heapq.heappush(self.worker_free, free_at)
            self.registry.counter(
                "serving_shed_total",
                "requests refused at admission, by reason",
                labels={"reason": "deadline"},
            ).inc()
            self._shed(index, now, tenant, "deadline", None, wait=wait)
            return now
        self.registry.histogram(
            "serving_queue_wait_seconds",
            "time requests spent queued before a worker took them",
        ).observe(wait)
        self.registry.gauge(
            "serving_queue_depth", "requests waiting in the service queue"
        ).set(depth)
        if self.is_remember(index):
            finish = self._serve_remember(index, job, dataset, start, wait, tenant)
        else:
            finish = self._serve_submit(index, job, dataset, start, wait, tenant)
        heapq.heappush(self.worker_free, finish)
        self.pending_starts.append(start)
        self.makespan = max(self.makespan, finish)
        return finish

    def _serve_submit(
        self,
        index: int,
        job: MapReduceJob,
        dataset: Dataset,
        start: float,
        wait: float,
        tenant: str,
    ) -> float:
        request = TuningRequest(
            request_id=index + 1,
            tenant=tenant,
            job=job,
            dataset=dataset,
            seed=self.config.seed,
            submitted_at=start - wait,
        )
        response = self.service.handle(request, now=start)
        response.wait_seconds = wait
        return self._account_submit(response, tenant, start)

    def _account_submit(
        self, response: TuningResponse, tenant: str, start: float
    ) -> float:
        """Tally one served submission; returns its finish time."""
        self.responses.append(response)
        tally = self.per_tenant[tenant]
        if response.ok:
            tally["ok"] += 1
        if response.cache_hit:
            tally["cache_hits"] += 1
        return start + response.service_seconds

    def _serve_remember(
        self,
        index: int,
        job: MapReduceJob,
        dataset: Dataset,
        start: float,
        wait: float,
        tenant: str,
    ) -> float:
        job_id = self.service.remember(job, dataset, seed=self.config.seed)
        self.remembers += 1
        if job_id is None:
            self.remember_failures += 1
        response = TuningResponse(
            request_id=index + 1,
            tenant=tenant,
            status="ok" if job_id is not None else "failed",
            wait_seconds=wait,
            service_seconds=REMEMBER_COST_SECONDS,
            error=None if job_id is not None else "remember: store unavailable",
        )
        self.responses.append(response)
        if job_id is not None:
            self.per_tenant[tenant]["ok"] += 1
        return start + REMEMBER_COST_SECONDS

    def _shed(
        self,
        index: int,
        now: float,
        tenant: str,
        reason: str,
        retry_after: float | None,
        wait: float = 0.0,
    ) -> None:
        self.sheds[reason] = self.sheds.get(reason, 0) + 1
        self.per_tenant[tenant]["shed"] += 1
        self.responses.append(
            TuningResponse(
                request_id=index + 1,
                tenant=tenant,
                status="shed",
                shed_reason=reason,
                # Full resolution at record time; the summary rounds.
                retry_after_seconds=retry_after,
                wait_seconds=wait,
            )
        )

    # ------------------------------------------------------------------
    def run_open(self) -> None:
        # Draw every arrival's attributes up front, in exactly the order
        # the incremental loop drew them (gap, tenant, work, gap, ...) —
        # so batched and unbatched replays of one seed share a workload.
        plan: list[tuple[int, float, str, MapReduceJob, Dataset]] = []
        now = 0.0
        for index in range(self.config.requests):
            now += self.rng.expovariate(self.config.arrival_rate)
            tenant = self.pick_tenant()
            job, dataset = self.pick_work()
            plan.append((index, now, tenant, job, dataset))
        batching = (
            self.service.config.batch_window_seconds > 0
            and self.service.config.batch_max > 1
        )
        if not batching:
            for item in plan:
                self.arrive(*item)
            return
        group: list[tuple[int, float, str, MapReduceJob, Dataset]] = []
        for item in plan:
            if group and self._joins_group(group, item):
                group.append(item)
                continue
            self._flush_group(group)
            group = [item]
        self._flush_group(group)

    def _joins_group(
        self,
        group: list[tuple[int, float, str, MapReduceJob, Dataset]],
        item: tuple[int, float, str, MapReduceJob, Dataset],
    ) -> bool:
        """May *item* join the open coalescing group without changing any
        member's start time from what sequential replay would pick?

        Joining needs: neither end is a remember() write, the arrival is
        within the window of the group's first arrival, the group has
        room, and there are enough lanes already idle at the window start
        that every member (plus this one) starts at its own arrival time
        with zero wait — the condition that makes deferred finish-pushes
        invisible to the worker heap.
        """
        index, now, __, __, __ = item
        first_index, first_now = group[0][0], group[0][1]
        if self.is_remember(index) or self.is_remember(first_index):
            return False
        if now - first_now > self.service.config.batch_window_seconds:
            return False
        if len(group) >= self.service.config.batch_max:
            return False
        idle = sum(1 for free_at in self.worker_free if free_at <= first_now)
        return idle > len(group)

    def _flush_group(
        self, group: list[tuple[int, float, str, MapReduceJob, Dataset]]
    ) -> None:
        """Serve one coalesced group through a single handle_batch call."""
        if not group:
            return
        if len(group) == 1:
            self.arrive(*group[0])
            return
        members = []
        for index, now, tenant, job, dataset in group:
            self.per_tenant[tenant]["requests"] += 1
            depth = self.queue_depth(now)
            try:
                self.service.admission.admit(
                    tenant,
                    depth,
                    now=now,
                    backlog_seconds_hint=self.service.backlog_hint(depth),
                )
            except ServiceOverloadError as exc:
                self._shed(
                    index, now, tenant, exc.reason, exc.retry_after_seconds
                )
                continue
            free_at = heapq.heappop(self.worker_free)
            start = max(now, free_at)  # == now: the group held an idle lane
            wait = start - now
            self.registry.histogram(
                "serving_queue_wait_seconds",
                "time requests spent queued before a worker took them",
            ).observe(wait)
            self.registry.gauge(
                "serving_queue_depth", "requests waiting in the service queue"
            ).set(depth)
            request = TuningRequest(
                request_id=index + 1,
                tenant=tenant,
                job=job,
                dataset=dataset,
                seed=self.config.seed,
                submitted_at=start - wait,
            )
            members.append((tenant, start, wait, request))
        if not members:
            return
        responses = self.service.handle_batch(
            [request for __, __, __, request in members],
            nows=[start for __, start, __, __ in members],
        )
        for (tenant, start, wait, __), response in zip(members, responses):
            response.wait_seconds = wait
            finish = self._account_submit(response, tenant, start)
            heapq.heappush(self.worker_free, finish)
            self.pending_starts.append(start)
            self.makespan = max(self.makespan, finish)

    def run_closed(self) -> None:
        # Heap of (next submission time, client id); each client owns a
        # tenant for its whole session.
        clients = []
        for client_id in range(self.config.clients):
            first = self.rng.expovariate(1.0 / self.config.think_seconds)
            clients.append((first, client_id, self.pick_tenant()))
        heapq.heapify(clients)
        for index in range(self.config.requests):
            now, client_id, tenant = heapq.heappop(clients)
            job, dataset = self.pick_work()
            done_at = self.arrive(index, now, tenant, job, dataset)
            think = self.rng.expovariate(1.0 / self.config.think_seconds)
            heapq.heappush(clients, (done_at + think, client_id, tenant))

    # ------------------------------------------------------------------
    def report(self) -> LoadReport:
        ok = [r for r in self.responses if r.status == "ok"]
        failed = [r for r in self.responses if r.status == "failed"]
        served = ok + failed
        hits = sum(1 for r in ok if r.cache_hit)
        degraded = sum(1 for r in ok if r.degraded)
        try:
            store_profiles = len(self.service.store)
        except Exception:  # noqa: BLE001 — an outage mid-scan is expected
            store_profiles = None
        total_handled = len(served)
        summary = {
            "config": {
                "arrival_rate": self.config.arrival_rate,
                "mode": self.config.mode,
                "remember_every": self.config.remember_every,
                "requests": self.config.requests,
                "seed": self.config.seed,
                "workers": self.service.config.workers,
            },
            "counts": {
                "cache_hits": hits,
                "degraded": degraded,
                "failed": len(failed),
                "ok": len(ok),
                "remember_failures": self.remember_failures,
                "remembers": self.remembers,
                "requests": len(self.responses),
                "shed": dict(sorted(self.sheds.items())),
                "shed_total": sum(self.sheds.values()),
            },
            "cache": self.service.cache.stats(),
            "latency": {
                "service_seconds": _percentiles(
                    [r.service_seconds for r in served]
                ),
                "total_seconds": _percentiles(
                    [r.wait_seconds + r.service_seconds for r in served]
                ),
                "wait_seconds": _percentiles([r.wait_seconds for r in served]),
            },
            "makespan_seconds": round(self.makespan, 6),
            "per_tenant": self.per_tenant,
            "store_profiles": store_profiles,
            "throughput_rps": round(total_handled / self.makespan, 6)
            if self.makespan > 0
            else 0.0,
        }
        return LoadReport(
            summary=summary, responses=self.responses, service=self.service
        )


def run_load(
    config: LoadConfig | None = None,
    cluster: ClusterSpec | None = None,
    service: TuningService | None = None,
    registry: MetricsRegistry | None = None,
) -> LoadReport:
    """Replay one seeded load run; same config + seed → identical report.

    Args:
        config: traffic shape and service knobs; CI-smoke defaults.
        cluster: simulated cluster (fresh EC2 shape if omitted).
        service: an existing service to load, under its own config
            (pass an earlier report's ``service`` to replay warm, or one
            built for chaos wiring); a fresh one from ``config.service``
            and ``config.tenants`` if omitted.
        registry: metrics sink for the run's serving metrics.
    """
    if config is None:
        config = LoadConfig()
    if service is None:
        policies = {tenant.name: tenant.policy for tenant in config.tenants}
        service = TuningService(
            cluster=cluster,
            config=replace(config.service, tenant_policies=policies),
            seed=config.seed,
            registry=registry,
        )
    run = _LoadRun(service, config, registry)
    if config.mode == "open":
        run.run_open()
    else:
        run.run_closed()
    return run.report()
