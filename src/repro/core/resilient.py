"""A resilient client wrapper around the profile store.

:class:`ResilientProfileStore` is duck-type compatible with
:class:`~repro.core.store.ProfileStore` (the matcher cannot tell them
apart) but routes every substrate-touching operation through
:func:`repro.chaos.retry.call_with_retry`: transient errors and
server-unavailability are retried with exponential backoff under the
policy's attempt and deadline budgets, and only
:class:`~repro.chaos.retry.StoreUnavailableError` escapes — the signal
``PStorM.submit`` turns into graceful degradation.

Retried operations are safe to replay: scans materialize their result
list before returning, and a replayed ``put`` appends new cell versions
whose latest-view reads are identical (HBase-style idempotence).

When the wrapped store's substrate carries a fault injector, the client
shares its virtual clock, so injected slow responses consume the
deadline budget exactly as real slowness would.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, TypeVar

from ..analysis.cfg import ControlFlowGraph
from ..analysis.static_features import StaticFeatures
from ..chaos.retry import RetryPolicy, VirtualClock, call_with_retry
from ..hbase import Filter
from ..observability import MetricsRegistry, get_registry
from ..starfish.profile import JobProfile
from .match_index import IndexView
from .store import ProfileStore

__all__ = ["ResilientProfileStore"]

_T = TypeVar("_T")


class ResilientProfileStore:
    """Retry/backoff/deadline shim over a :class:`ProfileStore`.

    Attributes:
        store: the wrapped store.
        policy: budgets applied per logical operation.
        clock: deadline clock; defaults to the substrate injector's
            virtual clock when one is attached, else a fresh one.
    """

    def __init__(
        self,
        store: ProfileStore,
        policy: RetryPolicy | None = None,
        clock: VirtualClock | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.policy = policy if policy is not None else RetryPolicy()
        if clock is None:
            chaos = getattr(getattr(store, "hbase", None), "chaos", None)
            clock = chaos.clock if chaos is not None else VirtualClock()
        self.clock = clock
        #: Observability sink; None falls back to the wrapped store's.
        self.registry = (
            registry if registry is not None else getattr(store, "registry", None)
        )

    # ------------------------------------------------------------------
    def _call(self, op: str, fn: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
        return call_with_retry(
            lambda: fn(*args, **kwargs),
            self.policy,
            clock=self.clock,
            op=op,
            registry=get_registry(self.registry),
        )

    # -- writes --------------------------------------------------------
    def put(
        self,
        profile: JobProfile,
        static: StaticFeatures,
        job_id: str | None = None,
    ) -> str:
        return self._call("put", self.store.put, profile, static, job_id)

    def delete(self, job_id: str) -> None:
        return self._call("delete", self.store.delete, job_id)

    # -- reads ---------------------------------------------------------
    def job_ids(self) -> list[str]:
        return self._call("job_ids", self.store.job_ids)

    def __len__(self) -> int:
        return self._call("len", self.store.__len__)

    def __contains__(self, job_id: str) -> bool:
        return self._call("contains", self.store.__contains__, job_id)

    def get_profile(self, job_id: str) -> JobProfile:
        return self._call("get_profile", self.store.get_profile, job_id)

    def get_static(self, job_id: str) -> StaticFeatures:
        return self._call("get_static", self.store.get_static, job_id)

    def get_dynamic(self, job_id: str) -> dict[str, Any]:
        return self._call("get_dynamic", self.store.get_dynamic, job_id)

    def bulk_rows(self, prefix: str) -> dict[str, dict[str, Any]]:
        return self._call("scan", self.store.bulk_rows, prefix)

    def bulk_profiles(self) -> dict[str, JobProfile]:
        return self._call("scan", self.store.bulk_profiles)

    def bulk_statics(self) -> dict[str, StaticFeatures]:
        return self._call("scan", self.store.bulk_statics)

    # -- match index ---------------------------------------------------
    # Publishing a view and refreshing the index replay the rebuild's
    # snapshot scans, so they retry like any scan.  An exhausted budget
    # raises StoreUnavailableError: a probe degrades its submission to
    # RBO, and the serving layer counts a failed refresh and goes on
    # (the next probe rebuilds).
    def index_view(self) -> IndexView:
        return self._call("scan", self.store.index_view)

    def refresh_match_index(self) -> None:
        return self._call("scan", self.store.refresh_match_index)

    # -- filtered scans (the matcher's stages) -------------------------
    def scan_job_ids(
        self,
        prefix: str,
        extra_filter: Filter | None = None,
        stage: str = "scan",
    ) -> list[str]:
        return self._call(
            "scan", self.store.scan_job_ids, prefix, extra_filter, stage
        )

    def euclidean_stage(
        self,
        side: str,
        kind: str,
        probe: list[float],
        threshold: float,
        candidates: list[str] | None = None,
    ) -> list[str]:
        return self._call(
            "scan", self.store.euclidean_stage, side, kind, probe, threshold,
            candidates,
        )

    def cfg_stage(
        self, side: str, probe_cfg: ControlFlowGraph, candidates: list[str]
    ) -> list[str]:
        return self._call("scan", self.store.cfg_stage, side, probe_cfg, candidates)

    def jaccard_stage(
        self, probe: Mapping[str, str], threshold: float, candidates: list[str]
    ) -> list[str]:
        return self._call(
            "scan", self.store.jaccard_stage, probe, threshold, candidates
        )

    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Everything not wrapped (normalizer, pushdown, hbase, table,
        # tracer, ...) delegates, keeping the wrapper duck-compatible.
        return getattr(self.store, name)

    def __repr__(self) -> str:
        return f"ResilientProfileStore({self.store!r}, policy={self.policy})"
