"""The PStorM daemon: the submission workflow of Chapter 3 (Fig 1.2).

For each submitted job: run one sampled map task (plus its reducers) with
the Starfish profiler on, build the mixed feature vector, probe the store.
On a hit, hand the matched (possibly composite) profile to the Starfish
CBO and run the job with the recommended configuration, profiler off.  On
a miss, run the job with its submitted configuration, profiler *on*, and
store the collected profile for future matching.

The store probe rides on a :class:`ResilientProfileStore` (retry +
backoff + deadline budgets), and when even that gives up the daemon
*degrades* instead of dying: the Appendix-B rule-based optimizer tunes
the job from the 1-task sample profile alone, falling back to the
submitted configuration if the RBO itself fails.  The downgrade is
recorded on the :class:`SubmissionResult` and in the metrics, never
raised — a long-lived tuning service must survive its store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..chaos.retry import RetryPolicy, StoreUnavailableError
from ..hadoop.cluster import ClusterSpec
from ..hadoop.config import JobConfiguration
from ..hadoop.dataset import Dataset
from ..hadoop.engine import HadoopEngine
from ..hadoop.job import MapReduceJob
from ..hadoop.tasks import JobExecution
from ..observability import (
    SIM_SECONDS_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from ..observability.export import registry_to_dict
from ..starfish.cbo import CostBasedOptimizer
from ..starfish.profile import JobProfile
from ..starfish.profiler import StarfishProfiler
from ..starfish.rbo import RuleBasedOptimizer
from ..starfish.sampler import Sampler
from ..starfish.whatif import WhatIfEngine
from ..tuners import make_tuner
from .features import JobFeatures, extract_job_features
from .matcher import MatchOutcome, ProfileMatcher, SideMatch
from .resilient import ResilientProfileStore
from .store import ProfileStore

__all__ = ["PStorM", "SubmissionResult", "WireExecution"]


@dataclass(frozen=True)
class WireExecution:
    """Execution summary carried on the wire instead of a full
    :class:`~repro.hadoop.tasks.JobExecution`.

    Deserialized submission results cannot resurrect per-task records
    (those never leave the process), so ``SubmissionResult.from_dict``
    rebuilds this summary view.  It is duck-compatible with the fields
    the serving layer and the result's own properties read:
    ``runtime_seconds``, task counts, input size, and the sampled flag.
    """

    job_name: str
    dataset_name: str
    input_bytes: int
    runtime_seconds: float
    num_map_tasks: int
    num_reduce_tasks: int
    sampled: bool = False


@dataclass(frozen=True)
class SubmissionResult:
    """What happened to one job submission."""

    job_name: str
    dataset_name: str
    matched: bool
    outcome: MatchOutcome
    config: JobConfiguration
    execution: JobExecution
    sampling_seconds: float
    profile_stored_as: str | None
    #: Snapshot of the daemon's metrics registry taken when the
    #: submission finished (``export.registry_to_dict`` form).
    metrics: Mapping[str, Any] | None = None
    #: Whether the submission was served through the graceful-degradation
    #: path (store budget exhausted) rather than the Fig 1.2 workflow.
    degraded: bool = False
    #: Why the downgrade happened: "store-probe" (the match probe gave
    #: up) or "store-put" (the miss path's profile write gave up).
    degradation_reason: str | None = None
    #: Which rung of the degradation ladder produced the configuration:
    #: "rbo" (Appendix-B rules over the 1-task sample) or "default"
    #: (the submitted configuration, when even the RBO failed).
    fallback_path: str | None = None

    @property
    def runtime_seconds(self) -> float:
        return self.execution.runtime_seconds

    @property
    def total_seconds(self) -> float:
        """Job runtime plus the 1-task sampling cost PStorM paid."""
        return self.execution.runtime_seconds + self.sampling_seconds

    # -- wire codec ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable wire form of this result.

        The tuning service returns these over its request/response
        boundary.  The matched profile and the metrics snapshot are
        deliberately *not* serialized (profiles stay server-side; metrics
        travel through the export endpoints), and the execution collapses
        to its :class:`WireExecution` summary — everything else round
        trips exactly through :meth:`from_dict`.
        """

        def side(match: SideMatch | None) -> dict[str, Any] | None:
            if match is None:
                return None
            return {
                "side": match.side,
                "job_id": match.job_id,
                "stage": match.stage,
                "funnel": {name: int(count) for name, count in match.funnel.items()},
            }

        execution = self.execution
        return {
            "job_name": self.job_name,
            "dataset_name": self.dataset_name,
            "matched": bool(self.matched),
            "outcome": {
                "map_match": side(self.outcome.map_match),
                "reduce_match": side(self.outcome.reduce_match),
            },
            "config": self.config.to_dict(),
            "execution": {
                "job_name": execution.job_name,
                "dataset_name": execution.dataset_name,
                "input_bytes": int(execution.input_bytes),
                "runtime_seconds": float(execution.runtime_seconds),
                "num_map_tasks": int(execution.num_map_tasks),
                "num_reduce_tasks": int(execution.num_reduce_tasks),
                "sampled": bool(execution.sampled),
            },
            "sampling_seconds": float(self.sampling_seconds),
            "profile_stored_as": self.profile_stored_as,
            "degraded": bool(self.degraded),
            "degradation_reason": self.degradation_reason,
            "fallback_path": self.fallback_path,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SubmissionResult":
        """Rebuild a result from its :meth:`to_dict` wire form.

        The execution comes back as a :class:`WireExecution` summary and
        ``outcome.profile`` is ``None`` (see :meth:`to_dict`); the
        round-trip law is ``from_dict(d).to_dict() == d``.
        """

        def side(data: Mapping[str, Any] | None) -> SideMatch | None:
            if data is None:
                return None
            return SideMatch(
                side=data["side"],
                job_id=data["job_id"],
                stage=data["stage"],
                funnel={name: int(count) for name, count in data["funnel"].items()},
            )

        run = payload["execution"]
        execution = WireExecution(
            job_name=run["job_name"],
            dataset_name=run["dataset_name"],
            input_bytes=int(run["input_bytes"]),
            runtime_seconds=float(run["runtime_seconds"]),
            num_map_tasks=int(run["num_map_tasks"]),
            num_reduce_tasks=int(run["num_reduce_tasks"]),
            sampled=bool(run["sampled"]),
        )
        outcome = payload["outcome"]
        map_match = side(outcome["map_match"])
        if map_match is None:
            raise ValueError("wire payload is missing the map-side match")
        return cls(
            job_name=payload["job_name"],
            dataset_name=payload["dataset_name"],
            matched=bool(payload["matched"]),
            outcome=MatchOutcome(None, map_match, side(outcome["reduce_match"])),
            config=JobConfiguration.from_dict(payload["config"]),
            execution=execution,
            sampling_seconds=float(payload["sampling_seconds"]),
            profile_stored_as=payload["profile_stored_as"],
            degraded=bool(payload["degraded"]),
            degradation_reason=payload["degradation_reason"],
            fallback_path=payload["fallback_path"],
        )


@dataclass
class PStorM:
    """Profile Store and Matcher, wired to a cluster and Starfish.

    Attributes:
        engine: the Hadoop engine (shared with Starfish components).
        store: the profile store; freshly created if omitted.
    """

    engine: HadoopEngine
    store: ProfileStore = field(default_factory=ProfileStore)
    seed: int = 0
    #: Which member of the tuner family optimizes matched profiles on
    #: the hit path: "rbo", "cbo" (the paper's workflow and the
    #: default — bit-identical to the pre-family submit path), or
    #: "surrogate".
    tuner: str = "cbo"
    #: Observability sinks; None falls back to the module defaults.  An
    #: explicit registry/tracer is pushed into the store and matcher the
    #: daemon owns (but never into an externally shared engine).
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None
    #: Retry/backoff/deadline budgets for store operations; None uses
    #: the RetryPolicy defaults.
    retry_policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.registry is not None and self.store.registry is None:
            self.store.registry = self.registry
        if self.tracer is not None and self.store.tracer is None:
            self.store.tracer = self.tracer
        self.profiler = StarfishProfiler(self.engine)
        self.sampler = Sampler(self.profiler)
        self.whatif = WhatIfEngine(self.engine.cluster)
        self.cbo = CostBasedOptimizer(self.whatif, seed=self.seed)
        self.rbo = RuleBasedOptimizer(self.engine.cluster)
        if isinstance(self.store, ResilientProfileStore):
            self.resilient_store = self.store
        else:
            self.resilient_store = ResilientProfileStore(
                self.store, policy=self.retry_policy, registry=self.registry
            )
        self.matcher = ProfileMatcher(
            self.resilient_store, registry=self.registry, tracer=self.tracer
        )
        # The hit-path optimizer, resolved through the family registry.
        # "cbo" adapts the exact CostBasedOptimizer built above, so the
        # default daemon recommends bit-identically to the pre-family
        # submit path; the surrogate mines the daemon's own store.
        self.tuner_impl = make_tuner(
            self.tuner,
            self.whatif,
            cluster=self.engine.cluster,
            seed=self.seed,
            store=self.resilient_store,
            cbo=self.cbo,
            rbo=self.rbo,
            registry=self.registry,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    def extract_features(
        self, job: MapReduceJob, dataset: Dataset, seed: int = 0
    ) -> tuple[JobFeatures, float]:
        """Run the 1-task sample and build the job's feature vector.

        Returns the features and the sampling run's wall-clock cost.
        """
        __, features, overhead_seconds = self._sample(job, dataset, seed=seed)
        return features, overhead_seconds

    def _sample(
        self, job: MapReduceJob, dataset: Dataset, seed: int = 0
    ) -> tuple[JobProfile, JobFeatures, float]:
        """1-task sample: the sample profile, features, and its cost.

        The sample profile is kept because it is all the degraded path
        has to tune with when the store is unreachable.
        """
        sample = self.sampler.collect(job, dataset, count=1, seed=seed)
        features = extract_job_features(job, dataset, sample.profile, self.engine)
        return sample.profile, features, sample.overhead_seconds

    # ------------------------------------------------------------------
    def remember(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration | None = None,
        seed: int = 0,
    ) -> str:
        """Run *job* fully instrumented and store its profile.

        This is the miss path's bookkeeping, exposed directly so that
        experiments can pre-populate the store (the SD/DD content states).
        """
        with get_tracer(self.tracer).span(
            "pstorm.remember", job=job.name, dataset=dataset.name
        ):
            profile, __ = self.profiler.profile_job(job, dataset, config, seed=seed)
            features, __, = self.extract_features(job, dataset, seed=seed)
            # Retried under the store budgets; remember() is an explicit
            # write API, so an exhausted budget propagates as
            # StoreUnavailableError rather than degrading silently.
            job_id = self.resilient_store.put(profile, features.static)
        get_registry(self.registry).counter(
            "pstorm_remembers_total", "profiles stored via the remember path"
        ).inc()
        return job_id

    # ------------------------------------------------------------------
    def submit(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration | None = None,
        seed: int = 0,
    ) -> SubmissionResult:
        """The Chapter 3 submission workflow."""
        if config is None:
            config = JobConfiguration()
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        with tracer.span(
            "pstorm.submit", job=job.name, dataset=dataset.name
        ) as span:
            result = self._submit_inner(job, dataset, config, seed)
            span.set_attr("matched", result.matched)
            span.set_attr("degraded", result.degraded)

        registry.counter(
            "pstorm_submissions_total", "jobs submitted to the daemon"
        ).inc()
        if result.matched:
            registry.counter(
                "pstorm_submission_hits_total", "submissions served from the store"
            ).inc()
        else:
            registry.counter(
                "pstorm_submission_misses_total",
                "submissions that ran instrumented and stored a profile",
            ).inc()
        if result.degraded:
            registry.counter(
                "pstorm_degraded_submissions_total",
                "submissions served through the graceful-degradation path",
                labels={"reason": result.degradation_reason or "unknown"},
            ).inc()
        if result.fallback_path is not None:
            registry.counter(
                "pstorm_fallback_total",
                "degraded submissions by the ladder rung that configured them",
                labels={"path": result.fallback_path},
            ).inc()
        registry.histogram(
            "pstorm_sampling_seconds",
            "simulated cost of the 1-task sampling run",
            buckets=SIM_SECONDS_BUCKETS,
        ).observe(result.sampling_seconds)
        if registry.enabled:
            from dataclasses import replace

            result = replace(result, metrics=registry_to_dict(registry))
        return result

    def _submit_inner(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration,
        seed: int,
    ) -> SubmissionResult:
        sample_profile, features, sampling_seconds = self._sample(
            job, dataset, seed=seed
        )
        try:
            outcome = self.matcher.match_job(features)
        except StoreUnavailableError:
            # The probe exhausted its retry/deadline budget: degrade to
            # sample-profile tuning rather than fail the submission.
            return self._submit_degraded(
                job, dataset, config, seed,
                sample_profile=sample_profile,
                features=features,
                sampling_seconds=sampling_seconds,
                reason="store-probe",
            )

        if outcome.matched:
            # A capacity-maintained store tracks usage: hits refresh the
            # matched profiles' recency so they outlive one-off entries.
            record_hit = getattr(self.resilient_store, "record_hit", None)
            if callable(record_hit):
                for side in (outcome.map_match, outcome.reduce_match):
                    if side is not None and side.job_id is not None:
                        record_hit(side.job_id)
            decision = self.tuner_impl.optimize(
                outcome.profile, data_bytes=dataset.nominal_bytes
            )
            execution = self.engine.run_job(
                job, dataset, decision.best_config, seed=seed
            )
            return SubmissionResult(
                job_name=job.name,
                dataset_name=dataset.name,
                matched=True,
                outcome=outcome,
                config=decision.best_config,
                execution=execution,
                sampling_seconds=sampling_seconds,
                profile_stored_as=None,
            )

        # Miss: run with the submitted configuration, profiler on, and
        # store the collected profile for the future.
        profile, execution = self.profiler.profile_job(job, dataset, config, seed=seed)
        try:
            job_id = self.resilient_store.put(profile, features.static)
        except StoreUnavailableError:
            # The job already ran; losing the profile write costs future
            # matches, not this submission.  Record the downgrade.
            return SubmissionResult(
                job_name=job.name,
                dataset_name=dataset.name,
                matched=False,
                outcome=outcome,
                config=config,
                execution=execution,
                sampling_seconds=sampling_seconds,
                profile_stored_as=None,
                degraded=True,
                degradation_reason="store-put",
            )
        return SubmissionResult(
            job_name=job.name,
            dataset_name=dataset.name,
            matched=False,
            outcome=outcome,
            config=config,
            execution=execution,
            sampling_seconds=sampling_seconds,
            profile_stored_as=job_id,
        )

    def _submit_degraded(
        self,
        job: MapReduceJob,
        dataset: Dataset,
        config: JobConfiguration,
        seed: int,
        sample_profile: JobProfile,
        features: JobFeatures,
        sampling_seconds: float,
        reason: str,
    ) -> SubmissionResult:
        """The degradation ladder: RBO on the sample, else the submitted
        configuration — but always a completed submission."""
        try:
            decision = self.rbo.recommend(sample_profile)
            run_config, fallback_path = decision.config, "rbo"
        except Exception:
            run_config, fallback_path = config, "default"
        execution = self.engine.run_job(job, dataset, run_config, seed=seed)
        map_match = SideMatch("map", None, "store-unavailable", {})
        reduce_match = (
            SideMatch("reduce", None, "store-unavailable", {})
            if features.has_reduce
            else None
        )
        return SubmissionResult(
            job_name=job.name,
            dataset_name=dataset.name,
            matched=False,
            outcome=MatchOutcome(None, map_match, reduce_match),
            config=run_config,
            execution=execution,
            sampling_seconds=sampling_seconds,
            profile_stored_as=None,
            degraded=True,
            degradation_reason=reason,
            fallback_path=fallback_path,
        )
