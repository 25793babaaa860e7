"""Admission control: queue-depth load shedding + per-tenant rate limits.

Two gates run, in order, before a request may join the service queue:

1. **Watermark shedding** — when the queue depth has reached the shed
   watermark, the request is refused with a ``retry-after`` hint sized
   from the current backlog, so a long outage turns into fast typed
   rejections instead of unbounded queueing (the classic overload
   failure mode).
2. **Token-bucket rate limiting** — each tenant owns a bucket refilled
   at ``rate_per_second`` up to ``burst``; an empty bucket refuses the
   request with the exact time until the next token.

Both gates run on the caller-supplied clock (virtual in the load
harness, monotonic wall time under ``repro serve``), so the loadgen's
admission decisions are bit-reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..observability import MetricsRegistry, get_registry
from .errors import ServiceOverloadError

__all__ = ["TokenBucket", "TenantPolicy", "AdmissionController"]


class TokenBucket:
    """A deterministic token bucket on an external clock."""

    def __init__(self, rate_per_second: float, burst: float) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one request")
        self.rate_per_second = float(rate_per_second)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._refilled_at: float | None = None

    def _refill(self, now: float) -> None:
        if self._refilled_at is None:
            self._refilled_at = now
            return
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate_per_second)
        self._refilled_at = now

    def try_acquire(self, now: float, amount: float = 1.0) -> bool:
        """Take *amount* tokens if available; never blocks."""
        self._refill(now)
        if self._tokens + 1e-12 >= amount:
            self._tokens -= amount
            return True
        return False

    def retry_after(self, now: float, amount: float = 1.0) -> float:
        """Seconds until *amount* tokens will be available."""
        self._refill(now)
        deficit = amount - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_per_second

    @property
    def tokens(self) -> float:
        return self._tokens


@dataclass(frozen=True)
class TenantPolicy:
    """Rate-limit knobs for one tenant."""

    rate_per_second: float = 50.0
    burst: float = 100.0


class AdmissionController:
    """The service's front gate.

    Args:
        queue_capacity: hard bound of the request queue.
        shed_watermark: depth at which requests start shedding; defaults
            to ``queue_capacity`` (shed only when full).
        tenant_policies: per-tenant rate limits, keyed by tenant name;
            other tenants get ``TenantPolicy()``.
    """

    def __init__(
        self,
        queue_capacity: int,
        shed_watermark: int | None = None,
        tenant_policies: dict[str, TenantPolicy] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.queue_capacity = queue_capacity
        self.shed_watermark = (
            queue_capacity if shed_watermark is None else shed_watermark
        )
        if not 1 <= self.shed_watermark <= queue_capacity:
            raise ValueError("watermark must be in [1, queue_capacity]")
        self.tenant_policies = dict(tenant_policies or {})
        self.registry = registry
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.tenant_policies.get(tenant, TenantPolicy())
            bucket = TokenBucket(policy.rate_per_second, policy.burst)
            self._buckets[tenant] = bucket
        return bucket

    # ------------------------------------------------------------------
    def admit(
        self,
        tenant: str,
        queue_depth: int,
        now: float,
        backlog_seconds_hint: float = 1.0,
    ) -> None:
        """Admit one request or raise :class:`ServiceOverloadError`.

        Args:
            queue_depth: requests currently waiting (not yet started).
            now: the admission clock reading.
            backlog_seconds_hint: the service's estimate of how long the
                present backlog takes to drain; becomes the queue-full
                ``retry-after`` hint.
        """
        registry = get_registry(self.registry)
        with self._lock:
            if queue_depth >= self.shed_watermark:
                registry.counter(
                    "serving_shed_total",
                    "requests refused at admission, by reason",
                    labels={"reason": "queue-full"},
                ).inc()
                raise ServiceOverloadError(
                    "queue-full",
                    retry_after_seconds=max(backlog_seconds_hint, 0.001),
                    tenant=tenant,
                )
            bucket = self._bucket(tenant)
            if not bucket.try_acquire(now):
                registry.counter(
                    "serving_shed_total",
                    "requests refused at admission, by reason",
                    labels={"reason": "rate-limited"},
                ).inc()
                raise ServiceOverloadError(
                    "rate-limited",
                    retry_after_seconds=bucket.retry_after(now),
                    tenant=tenant,
                )
        registry.counter(
            "serving_admitted_total", "requests past the admission gates"
        ).inc()
