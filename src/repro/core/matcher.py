"""The multi-stage profile matcher (§4.3, Fig 4.4).

The workflow runs once per side (map, reduce).  Starting from all stored
profiles, it applies, in order:

1. **Dynamic filter** — normalized Euclidean distance over the side's
   Table 4.1 selectivities, threshold θ_Eucl.  An empty result here is a
   hard *No Match* (nothing in the store even behaves like this job).
2. **CFG filter** — conservative synchronized-walk equality of the side's
   control flow graph.
3. **Jaccard filter** — Jaccard index over the side's categorical static
   features, threshold θ_Jacc.
4. **Tie-break** — closest stored input data size (Fig 4.6's rationale).

An empty set after stages 2-3 means the job was never run on this cluster;
the matcher then falls back to a Euclidean filter over the *cost factors*
of the stage-1 survivors (cost factors are noisy, so they are a last
resort — §4.1.1) and tie-breaks by size.  Map-side and reduce-side winners
are composed into the returned profile, which is how previously unseen
jobs get usable profiles.

The dynamic filter deliberately runs *before* the static filters: the same
program run with different user parameters (co-occurrence window sizes,
grep patterns) produces incompatible profiles that static features cannot
tell apart, and statics-first would also evict behaviour-compatible
profiles of *other* jobs that composition needs (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from ..observability import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from ..starfish.profile import JobProfile
from .features import JobFeatures
from .similarity import (
    DEFAULT_JACCARD_THRESHOLD,
    default_euclidean_threshold,
    jaccard_index,
)
from .store import DYNAMIC_PREFIX, STATIC_PREFIX, ProfileStore

if TYPE_CHECKING:
    from ..analysis.cfg import ControlFlowGraph
    from .match_index import IndexView, Rows

__all__ = [
    "ProfileMatcher",
    "StaticsFirstMatcher",
    "ParamAwareMatcher",
    "SideMatch",
    "MatchOutcome",
]


@dataclass(frozen=True)
class SideMatch:
    """Result of the Fig 4.4 workflow for one side."""

    side: str
    job_id: str | None
    #: "static" (stages 1-4), "cost-fallback", "no-match-dynamic" (empty
    #: after stage 1), or "no-match" (fallback empty too).
    stage: str
    #: Candidate-set sizes after each stage, for diagnostics.
    funnel: dict[str, int] = field(default_factory=dict)

    @property
    def matched(self) -> bool:
        return self.job_id is not None


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching a submitted job against the store."""

    profile: JobProfile | None
    map_match: SideMatch
    reduce_match: SideMatch | None

    @property
    def matched(self) -> bool:
        return self.profile is not None

    @property
    def is_composite(self) -> bool:
        """Whether map and reduce sides come from different stored jobs."""
        if not self.matched or self.reduce_match is None:
            return False
        return self.map_match.job_id != self.reduce_match.job_id


class _IndexStages:
    """The Fig 4.4 stages on one :class:`IndexView`: :class:`Rows` in,
    :class:`Rows` out.

    Each stage emits the ``pstorm.store.probe`` span and candidate-size
    histogram a store scan does (tagged ``via=index``), plus the index's
    own probe-latency histogram; only the tie-break winner's job id is
    ever built.
    """

    def __init__(self, matcher: "ProfileMatcher", view: "IndexView") -> None:
        self.view = view
        self._registry = get_registry(matcher.registry)
        self._tracer = get_tracer(matcher.tracer)

    def _stage(self, stage: str, prefix: str, call: Callable[[], "Rows"]) -> "Rows":
        began = perf_counter()
        with self._tracer.span(
            "pstorm.store.probe", stage=stage, prefix=prefix, via="index"
        ):
            result = call()
        self._registry.histogram(
            "pstorm_matcher_index_probe_seconds",
            "wall-clock latency of one indexed matcher stage",
            labels={"stage": stage},
            buckets=LATENCY_BUCKETS,
        ).observe(perf_counter() - began)
        self._registry.histogram(
            "pstorm_store_candidates",
            "candidate-set size surviving one store stage",
            labels={"stage": stage},
            buckets=COUNT_BUCKETS,
        ).observe(len(result))
        return result

    def live(self) -> "Rows":
        return self.view.live_rows()

    def euclidean(
        self,
        side: str,
        kind: str,
        probe: tuple[float, ...],
        threshold: float,
        candidates: "Rows | None" = None,
    ) -> "Rows":
        return self._stage(
            f"euclidean-{side}-{kind}",
            DYNAMIC_PREFIX,
            lambda: self.view.euclidean_rows(
                side, kind, probe, threshold, candidates
            ),
        )

    def cfg(
        self, side: str, probe_cfg: "ControlFlowGraph", candidates: "Rows"
    ) -> "Rows":
        return self._stage(
            f"cfg-{side}",
            STATIC_PREFIX,
            lambda: self.view.cfg_rows(side, probe_cfg, candidates),
        )

    def jaccard(
        self, probe: dict[str, str], threshold: float, candidates: "Rows"
    ) -> "Rows":
        return self._stage(
            "jaccard",
            STATIC_PREFIX,
            lambda: self.view.jaccard_rows(probe, threshold, candidates),
        )

    def tie_break(
        self,
        candidates: "Rows",
        input_bytes: int,
        side_statics: dict[str, str],
        side: str,
    ) -> str:
        score_hist = self._registry.histogram(
            "pstorm_matcher_tiebreak_similarity",
            "Jaccard similarity of tie-break candidates to the probe",
            labels={"side": side},
            buckets=DEFAULT_BUCKETS,
        )
        return self.view.tie_break_rows(
            candidates, input_bytes, side_statics,
            observe_many=score_hist.observe_many,
        )


class _ScanStages:
    """The Fig 4.4 stages as the store's §5.3 filtered scans: job-id
    lists in and out.  The store traces and meters each scan itself."""

    def __init__(self, matcher: "ProfileMatcher") -> None:
        store = matcher.store
        self.live = store.job_ids
        self.euclidean = store.euclidean_stage
        self.cfg = store.cfg_stage
        self.jaccard = store.jaccard_stage
        self.tie_break = matcher._tie_break


class ProfileMatcher:
    """Matches submitted jobs to stored profiles via the Fig 4.4 stages.

    The side workflow is written once (:meth:`_funnel`) over a *stage
    source* that ``use_index`` picks per matcher:

    - **index** (default) — each side takes one immutable
      :class:`~repro.core.match_index.IndexView` from the store's match
      index and runs every stage on it: one vectorized
      normalized-Euclidean/Jaccard pass over the candidate rows, with
      memoized CFG verdicts.
    - **scan** (``use_index=False``) — the store's filtered range scans
      (§5.3 pushdown); the §5.3 ablation meters them, and the tests use
      this source as the property-tested reference.

    Nothing switches sources mid-probe.  Publishing a view may replay the
    index rebuild's snapshot scans; behind ``ResilientProfileStore``
    they retry like every store scan, and an exhausted budget raises
    ``StoreUnavailableError``, which ``PStorM.submit`` degrades to RBO.
    """

    def __init__(
        self,
        store: ProfileStore,
        jaccard_threshold: float = DEFAULT_JACCARD_THRESHOLD,
        euclidean_threshold: float | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        use_index: bool = True,
    ) -> None:
        """Args:
            store: the profile store to match against.
            jaccard_threshold: θ_Jacc (§6 uses 0.5).
            euclidean_threshold: θ_Eucl; defaults to √(#features)/2 per
                side as in §6.
            registry, tracer: observability sinks; None falls back to the
                module defaults.
            use_index: run the stages on the columnar match index;
                False runs them as the store's filtered scans.
        """
        self.store = store
        self.jaccard_threshold = jaccard_threshold
        self._euclidean_override = euclidean_threshold
        self.registry = registry
        self.tracer = tracer
        self.use_index = use_index

    # ------------------------------------------------------------------
    def _record_side_match(self, match: SideMatch) -> None:
        """Funnel histograms + per-side outcome counters for one side."""
        registry = get_registry(self.registry)
        for stage, survivors in match.funnel.items():
            registry.histogram(
                "pstorm_matcher_funnel_survivors",
                "candidates surviving each matcher stage",
                labels={"side": match.side, "stage": stage},
                buckets=COUNT_BUCKETS,
            ).observe(survivors)
        registry.counter(
            "pstorm_matcher_side_outcomes_total",
            "per-side matcher outcomes by terminal stage",
            labels={"side": match.side, "stage": match.stage},
        ).inc()

    # ------------------------------------------------------------------
    def _theta_eucl(self, num_features: int) -> float:
        if self._euclidean_override is not None:
            return self._euclidean_override
        return default_euclidean_threshold(num_features)

    def _tie_break(
        self,
        candidates: list[str],
        input_bytes: int,
        side_statics: dict[str, str],
        side: str,
    ) -> str:
        """Pick one profile from the surviving candidates.

        Candidates whose static features agree *exactly* with the probe
        (Jaccard 1.0 — the same program) outrank merely similar ones;
        within a rank, the closest stored input data size wins (Fig 4.6's
        rationale — the same job on different data sizes has different
        shuffle behaviour); remaining ties break on similarity and then
        job id for determinism.
        """
        score_hist = get_registry(self.registry).histogram(
            "pstorm_matcher_tiebreak_similarity",
            "Jaccard similarity of tie-break candidates to the probe",
            labels={"side": side},
            buckets=DEFAULT_BUCKETS,
        )

        def sort_key(job_id: str) -> tuple[int, int, float, str]:
            stored = self.store.get_dynamic(job_id).get("INPUT_BYTES", 0)
            static = self.store.get_static(job_id)
            candidate = static.map_side() if side == "map" else static.reduce_side()
            shared = {name: candidate.get(name, "") for name in side_statics}
            similarity = jaccard_index(side_statics, shared)
            score_hist.observe(similarity)
            same_program = 0 if similarity >= 1.0 else 1
            return (
                same_program,
                abs(int(stored) - input_bytes),
                -similarity,
                job_id,
            )

        return min(candidates, key=sort_key)

    # ------------------------------------------------------------------
    # The Fig 4.4 side workflow, once, over either stage source
    # ------------------------------------------------------------------
    def _funnel(
        self,
        stages: "_IndexStages | _ScanStages",
        features: JobFeatures,
        side: str,
    ) -> SideMatch:
        """The Fig 4.4 workflow for one side over *stages*.

        Candidates are whatever the source hands between its stages
        (index :class:`Rows` or store job-id lists); only their size
        enters the funnel.
        """
        flow, costs, statics, cfg = features.side_vectors(side)
        funnel: dict[str, int] = {}

        survivors = stages.euclidean(side, "flow", flow, self._theta_eucl(len(flow)))
        funnel["dynamic"] = len(survivors)
        if not survivors:
            return SideMatch(side, None, "no-match-dynamic", funnel)
        stage1_survivors = survivors

        if cfg is not None:
            survivors = stages.cfg(side, cfg, survivors)
        funnel["cfg"] = len(survivors)

        if survivors:
            survivors = stages.jaccard(statics, self.jaccard_threshold, survivors)
        funnel["jaccard"] = len(survivors)

        if survivors:
            winner = stages.tie_break(survivors, features.input_bytes, statics, side)
            return SideMatch(side, winner, "static", funnel)

        # Previously unseen job: fall back to cost factors over the
        # stage-1 survivors (C' in the paper).  §6 defines θ_Eucl as
        # ½·√(number of dynamic features) — six per Table 4.1 — which we
        # use verbatim for this lenient last-resort filter.
        fallback = stages.euclidean(
            side, "cost", costs, self._theta_eucl(6), stage1_survivors
        )
        funnel["cost-fallback"] = len(fallback)
        if fallback:
            winner = stages.tie_break(fallback, features.input_bytes, statics, side)
            return SideMatch(side, winner, "cost-fallback", funnel)
        return SideMatch(side, None, "no-match", funnel)

    # ------------------------------------------------------------------
    def match_side(self, features: JobFeatures, side: str) -> SideMatch:
        """Run the Fig 4.4 workflow for one side."""
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        with tracer.span(
            "pstorm.match_side", side=side, job=features.job_name
        ) as span:
            if self.use_index:
                view = self.store.index_view()
                match = self._funnel(_IndexStages(self, view), features, side)
                registry.counter(
                    "pstorm_matcher_index_hits_total",
                    "side probes answered by the columnar index",
                ).inc()
                span.set_attr("via", "index")
                span.set_attr("partitions", view.partition_count)
            else:
                match = self._funnel(_ScanStages(self), features, side)
                span.set_attr("via", "scan")
            span.set_attr("stage", match.stage)
            span.set_attr("matched", match.matched)
        self._record_side_match(match)
        return match

    # ------------------------------------------------------------------
    def match_job(self, features: JobFeatures) -> MatchOutcome:
        """Match both sides and compose the returned profile."""
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        with tracer.span("pstorm.match_job", job=features.job_name) as span:
            outcome = self._match_job_inner(features)
            span.set_attr("matched", outcome.matched)
            span.set_attr("composite", outcome.is_composite)
        registry.counter(
            "pstorm_matcher_jobs_total", "jobs probed against the store"
        ).inc()
        if outcome.matched:
            registry.counter(
                "pstorm_matcher_matches_total", "probes that found a profile"
            ).inc()
            if outcome.is_composite:
                registry.counter(
                    "pstorm_matcher_composite_matches_total",
                    "matches composed from two donor jobs",
                ).inc()
        else:
            registry.counter(
                "pstorm_matcher_no_match_total", "probes that found nothing"
            ).inc()
        return outcome

    def _match_job_inner(self, features: JobFeatures) -> MatchOutcome:
        map_match = self.match_side(features, "map")
        reduce_match = (
            self.match_side(features, "reduce") if features.has_reduce else None
        )

        if not map_match.matched:
            return MatchOutcome(None, map_match, reduce_match)
        if features.has_reduce and (reduce_match is None or not reduce_match.matched):
            return MatchOutcome(None, map_match, reduce_match)

        map_donor = self.store.get_profile(map_match.job_id)
        if not features.has_reduce:
            return MatchOutcome(map_donor, map_match, reduce_match)

        if reduce_match.job_id == map_match.job_id:
            return MatchOutcome(map_donor, map_match, reduce_match)
        reduce_donor = self.store.get_profile(reduce_match.job_id)
        return MatchOutcome(
            map_donor.compose_with(reduce_donor), map_match, reduce_match
        )


class StaticsFirstMatcher(ProfileMatcher):
    """The filter order §4.3 argues *against*: statics before dynamics.

    Running the CFG and Jaccard filters first evicts behaviour-compatible
    profiles of other jobs before the dynamic filter can keep them, so a
    previously unseen job loses its composition donors; and the same
    program under different user parameters (incompatible profiles!)
    sails through the static filters, to be mis-served later.  This class
    exists for the ablation that *measures* that argument: it is only its
    stage order, over whichever stage source ``use_index`` picks, and it
    starts from every live candidate instead of the dynamic filter.
    """

    def _funnel(
        self,
        stages: "_IndexStages | _ScanStages",
        features: JobFeatures,
        side: str,
    ) -> SideMatch:
        flow, __, statics, cfg = features.side_vectors(side)
        funnel: dict[str, int] = {}

        survivors = stages.live()
        if cfg is not None:
            survivors = stages.cfg(side, cfg, survivors)
        funnel["cfg"] = len(survivors)

        if survivors:
            survivors = stages.jaccard(statics, self.jaccard_threshold, survivors)
        funnel["jaccard"] = len(survivors)

        if survivors:
            survivors = stages.euclidean(
                side, "flow", flow, self._theta_eucl(len(flow)), survivors
            )
        funnel["dynamic"] = len(survivors)

        if survivors:
            winner = stages.tie_break(survivors, features.input_bytes, statics, side)
            return SideMatch(side, winner, "static", funnel)
        return SideMatch(side, None, "no-match", funnel)


class ParamAwareMatcher(ProfileMatcher):
    """The §7.2.1 extension, end to end.

    Folds each job's user parameters into the static features on both
    the probe and storage sides (store profiles via
    :meth:`put_with_params` or pre-augmented statics), so two
    parameterizations of the same program — statically identical under
    Table 4.3 — become distinguishable at the Jaccard stage and at the
    tie-break, as the thesis anticipates.
    """

    @staticmethod
    def augment(features: JobFeatures, job) -> JobFeatures:
        """Probe-side augmentation: PARAM_* entries join the statics."""
        from dataclasses import replace

        from .extensions import augment_with_params

        return replace(features, static=augment_with_params(features.static, job))
