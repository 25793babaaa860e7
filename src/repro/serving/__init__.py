"""Tuning-as-a-service: the concurrent multi-client PStorM frontend.

The ROADMAP's deployment model for PStorM is an always-on daemon serving
many analysts over one shared profile store.  This package supplies that
serving layer:

- :mod:`~repro.serving.service` — the :class:`TuningService`: one
  bounded request queue drained by lane threads, each running its
  misses on its own PStorM pipeline over the shared (resilient,
  maintained) store, or on the worker process it owns;
- :mod:`~repro.serving.cache` — the keyed result cache (LRU + TTL on
  the simulated clock, invalidated by profile writes);
- :mod:`~repro.serving.admission` — watermark load shedding and
  per-tenant token-bucket rate limiting;
- :mod:`~repro.serving.loadgen` — the deterministic open/closed-loop
  load harness behind ``repro loadgen``;
- :mod:`~repro.serving.procpool` — the process backend: one worker
  process per lane probing the shared-memory match index, a
  single-writer parent publishing generations, chaos-killable and
  respawned.
"""

from .admission import AdmissionController, TenantPolicy, TokenBucket
from .cache import CacheKey, ResultCache, cache_key_for, job_signature
from .errors import ServiceClosedError, ServiceOverloadError, ServingError
from .loadgen import (
    LoadConfig,
    LoadReport,
    TenantSpec,
    default_tenants,
    run_load,
)
from .procpool import ProcessBackend, SnapshotStoreProxy, WorkerRuntime
from .service import ServiceConfig, TuningRequest, TuningResponse, TuningService

__all__ = [
    "ProcessBackend",
    "SnapshotStoreProxy",
    "WorkerRuntime",
    "AdmissionController",
    "TenantPolicy",
    "TokenBucket",
    "CacheKey",
    "ResultCache",
    "cache_key_for",
    "job_signature",
    "ServingError",
    "ServiceOverloadError",
    "ServiceClosedError",
    "LoadConfig",
    "LoadReport",
    "TenantSpec",
    "default_tenants",
    "run_load",
    "ServiceConfig",
    "TuningRequest",
    "TuningResponse",
    "TuningService",
]
