"""Design-choice ablations promised in DESIGN.md.

Three measured arguments from the thesis text that have no figure number:

- **Filter pushdown** (§5.3): rows shipped from region servers to the
  matcher with filters pushed down versus applied client-side.
- **Store data models** (§5.2): matcher-side locality (key ranges touched
  per feature vector) under the OpenTSDB model, and region-server Store
  objects under the table-per-feature-type model, versus the adopted
  feature-type-prefix model.
- **User-parameter static features** (§7.2.1): whether the static
  features alone can distinguish two parameterizations of the same job
  (co-occurrence at window 2 vs 5; grep with different search terms)
  without and with the PARAM extension.
"""

from __future__ import annotations

from ..core.extensions import augment_with_params
from ..core.features import extract_job_features
from ..core.similarity import jaccard_index
from ..core.store import MAP_FLOW_COLUMNS, ProfileStore
from ..core.store_models import OpenTsdbStore, TablePerTypeStore
from ..core.matcher import ProfileMatcher
from ..hbase import HBaseCluster
from ..observability import MetricsRegistry
from ..workloads.benchmark import standard_benchmark
from ..workloads.datasets import random_text_1gb
from ..workloads.jobs import cooccurrence_pairs_job, grep_job
from .common import ExperimentContext, SuiteRecord, build_store, collect_suite
from .result import ExperimentResult

__all__ = [
    "run_pushdown",
    "run_store_models",
    "run_param_features",
    "run_threshold_sensitivity",
    "run_cluster_transfer",
    "run_gbrt_weights",
    "run_filter_order",
    "run_store_scalability",
    "run_cfg_cost_correlation",
]


#: Region-server scan counters: rows read, rows shipped, bytes shipped.
_SCAN_COUNTERS = (
    "hbase_rows_scanned_total",
    "hbase_rows_shipped_total",
    "hbase_bytes_shipped_total",
)


def _scan_totals(registry: MetricsRegistry) -> list[int]:
    """The :data:`_SCAN_COUNTERS` values so far (0 before a first scan)."""
    totals = []
    for name in _SCAN_COUNTERS:
        counter = registry.get(name)
        totals.append(0 if counter is None else int(counter.value))
    return totals


def run_pushdown(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """§5.3: filter pushdown versus client-side filtering."""
    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    rows = []
    for pushdown in (True, False):
        registry = MetricsRegistry()
        store = ProfileStore(pushdown=pushdown, registry=registry)
        for key, record in records.items():
            store.put(record.full_profile, record.static, job_id=key)
        before = _scan_totals(registry)

        # The scan path runs the Fig 4.4 filter stages on the region
        # servers; the match index would meter its own build scans.
        matcher = ProfileMatcher(store, use_index=False)
        probe = next(iter(records.values()))
        matcher.match_job(probe.features)

        scanned, shipped, bytes_shipped = (
            after - start for after, start in zip(_scan_totals(registry), before)
        )
        rows.append(
            [
                "pushdown" if pushdown else "client-side",
                scanned,
                shipped,
                bytes_shipped,
            ]
        )
    return ExperimentResult(
        name="Ablation §5.3",
        title="Filter pushdown vs client-side filtering (one match_job call)",
        headers=["mode", "rows scanned", "rows shipped", "bytes shipped"],
        rows=rows,
        notes="Expected shape: pushdown ships a small fraction of the rows.",
    )


def run_store_models(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """§5.2: the adopted data model versus the two rejected ones."""
    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    # Adopted model.
    adopted = build_store(records)
    adopted_stores = adopted.hbase.total_store_objects()

    # Table-per-feature-type model on an identical HBase cluster shape.
    per_type = TablePerTypeStore(HBaseCluster())
    for key, record in records.items():
        dynamic = {
            name: record.full_profile.map_profile.data_flow[name]
            for name in MAP_FLOW_COLUMNS
        }
        per_type.put_features(key, record.static.categorical, dynamic)
    per_type_stores = per_type.total_store_objects()

    # OpenTSDB model: locality of assembling one feature vector.
    tsdb = OpenTsdbStore(HBaseCluster())
    feature_names = list(MAP_FLOW_COLUMNS)
    for key, record in records.items():
        tsdb.put_features(
            key,
            {
                name: record.full_profile.map_profile.data_flow[name]
                for name in feature_names
            },
        )
    tsdb_scans = tsdb.scans_to_build_vector(feature_names)

    rows = [
        ["feature-type prefix (adopted)", adopted_stores, 1],
        ["table per feature type (§5.2.2)", per_type_stores, 1],
        ["OpenTSDB keys (§5.2.1)", tsdb.hbase.total_store_objects(), tsdb_scans],
    ]
    return ExperimentResult(
        name="Ablation §5.2",
        title="Store data models: region-server load and matcher locality",
        headers=["data model", "store objects", "key ranges per vector"],
        rows=rows,
        notes=(
            "Expected shape: table-per-type needs more Store objects than "
            "the adopted model; OpenTSDB needs one key range per feature "
            "instead of one per vector."
        ),
    )


def run_param_features(
    ctx: ExperimentContext | None = None, seed: int = 0
) -> ExperimentResult:
    """§7.2.1: can static features alone tell parameterizations apart?"""
    if ctx is None:
        ctx = ExperimentContext.create(seed)
    text = random_text_1gb()

    cases = [
        ("cooccurrence window", cooccurrence_pairs_job(window=2), cooccurrence_pairs_job(window=5)),
        ("grep pattern", grep_job("w0001"), grep_job("w1499xxx")),
    ]
    rows = []
    for label, job_a, job_b in cases:
        sample_a = ctx.sampler.collect(job_a, text, count=1, seed=seed)
        sample_b = ctx.sampler.collect(job_b, text, count=1, seed=seed)
        features_a = extract_job_features(job_a, text, sample_a.profile, ctx.engine)
        features_b = extract_job_features(job_b, text, sample_b.profile, ctx.engine)

        plain = jaccard_index(
            features_a.static.map_side(), features_b.static.map_side()
        )
        augmented = jaccard_index(
            augment_with_params(features_a.static, job_a).map_side(),
            augment_with_params(features_b.static, job_b).map_side(),
        )
        rows.append([label, round(plain, 3), round(augmented, 3)])
    return ExperimentResult(
        name="Ablation §7.2.1",
        title="Static distinguishability of parameterizations of one job",
        headers=["case", "Jaccard (Table 4.3 statics)", "Jaccard (+PARAM features)"],
        rows=rows,
        notes=(
            "Expected shape: plain statics are identical (Jaccard 1.0) for "
            "both parameterizations; PARAM features push the score below "
            "the θ_Jacc=0.5 threshold, so statics alone become sufficient."
        ),
    )


def run_threshold_sensitivity(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Matcher threshold sensitivity (the §4 'adjustment of the matching
    thresholds' step): DD accuracy across θ_Jacc and θ_Eucl settings."""
    from .accuracy import evaluate_pstorm
    from ..core.similarity import default_euclidean_threshold

    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    rows = []
    base_theta = default_euclidean_threshold(4)
    for jaccard in (0.3, 0.5, 0.7, 0.9):
        for euclid_scale in (0.5, 1.0, 2.0):
            correct = 0
            total = 0
            for key, record in records.items():
                from .common import twin_of
                expected = twin_of(records, key)
                store = build_store(records, exclude_keys={key})
                matcher = ProfileMatcher(
                    store,
                    jaccard_threshold=jaccard,
                    euclidean_threshold=base_theta * euclid_scale,
                )
                match = matcher.match_side(record.features, "map")
                total += 1
                if expected is not None and match.job_id == expected:
                    correct += 1
            rows.append(
                [jaccard, euclid_scale, round(correct / total, 3)]
            )
    return ExperimentResult(
        name="Ablation thresholds",
        title="DD map-side accuracy vs matcher thresholds",
        headers=["theta_Jacc", "theta_Eucl scale", "accuracy"],
        rows=rows,
        notes=(
            "Expected shape: the paper's (0.5, 1.0) operating point sits on "
            "the accuracy plateau; very strict settings lose the twin, very "
            "lax ones admit impostors into the tie-break."
        ),
    )


def run_cluster_transfer(
    ctx: ExperimentContext | None = None, seed: int = 0
) -> ExperimentResult:
    """§7.2.6: reuse of profiles across clusters, with and without the
    calibration-ratio adjustment of the cost factors."""
    from ..core.transfer import transfer_profile
    from ..hadoop.cluster import CostRates, ec2_cluster
    from ..hadoop.config import JobConfiguration
    from ..hadoop.engine import HadoopEngine
    from ..starfish.profiler import StarfishProfiler
    from ..starfish.whatif import WhatIfEngine
    from ..workloads.datasets import wikipedia_35gb
    from ..workloads.jobs import word_count_job, cooccurrence_pairs_job

    if ctx is None:
        ctx = ExperimentContext.create(seed)

    # A slower source cluster: older disks and NICs, weaker cores.
    slow_rates = CostRates(
        read_hdfs_ns_per_byte=32.0, write_hdfs_ns_per_byte=50.0,
        read_local_ns_per_byte=18.0, write_local_ns_per_byte=24.0,
        network_ns_per_byte=44.0, cpu_ns_per_record=700.0,
        compress_ns_per_byte=60.0, decompress_ns_per_byte=20.0,
    )
    source_cluster = ec2_cluster(num_workers=15, base_rates=slow_rates, seed=21)
    source_engine = HadoopEngine(source_cluster)
    source_profiler = StarfishProfiler(source_engine)

    target_cluster = ctx.cluster
    target_whatif = WhatIfEngine(target_cluster)
    config = JobConfiguration()

    rows = []
    for job in (word_count_job(), cooccurrence_pairs_job()):
        data = wikipedia_35gb()
        source_profile, __ = source_profiler.profile_job(job, data, seed=seed)
        actual = ctx.engine.run_job(job, data, config, seed=seed).runtime_seconds

        raw_prediction = target_whatif.predict(source_profile, config).runtime_seconds
        adjusted = transfer_profile(source_profile, source_cluster, target_cluster)
        adjusted_prediction = target_whatif.predict(adjusted, config).runtime_seconds

        rows.append(
            [
                job.name,
                round(actual / 60, 1),
                round(raw_prediction / 60, 1),
                round(adjusted_prediction / 60, 1),
                round(abs(raw_prediction - actual) / actual, 3),
                round(abs(adjusted_prediction - actual) / actual, 3),
            ]
        )
    return ExperimentResult(
        name="Ablation §7.2.6",
        title="Cross-cluster profile reuse: WIF prediction on the target cluster",
        headers=[
            "job", "actual min", "raw pred min", "adjusted pred min",
            "raw rel err", "adjusted rel err",
        ],
        rows=rows,
        notes=(
            "Expected shape: predictions from the slow cluster's raw profile "
            "overshoot badly; calibration-ratio adjustment brings the "
            "relative error down by an order of magnitude."
        ),
    )


def run_gbrt_weights(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Equation 1's learned weights, recovered as GBRT split-gain
    importances over the eight partial distances."""
    from ..core.gbrt import GbrtParams
    from .accuracy import train_gbrt_matcher

    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    params = GbrtParams(
        n_trees=200, shrinkage=0.05, distribution="laplace",
        cv_folds=5, train_fraction=1.0,
    )
    matcher = train_gbrt_matcher(ctx, records, params, seed=seed)
    importances = matcher.model.feature_importances(num_features=8)
    names = (
        "Jacc_map", "Eucl_DS_map", "Eucl_CS_map", "CFG_map",
        "Jacc_red", "Eucl_DS_red", "Eucl_CS_red", "CFG_red",
    )
    rows = [[name, round(float(w), 3)] for name, w in zip(names, importances)]
    return ExperimentResult(
        name="Ablation Eq. 1 weights",
        title="Learned weights of the generalized distance metric (GBRT importances)",
        headers=["partial distance", "relative weight"],
        rows=rows,
        notes=(
            "The learned metric leans on the dynamic (Euclidean) distances "
            "— the same conclusion PStorM's hand-built filter order encodes."
        ),
    )


def run_filter_order(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """§4.3's filter-order argument, measured.

    Compares the paper's dynamics-first workflow against a statics-first
    variant on (a) DD matching accuracy and (b) the match rate for NJ
    submissions, where statics-first loses the composition donors the
    dynamic filter would have kept.
    """
    from ..core.matcher import StaticsFirstMatcher
    from .common import twin_of

    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    rows = []
    for label, matcher_cls in (
        ("dynamics-first (PStorM)", ProfileMatcher),
        ("statics-first", StaticsFirstMatcher),
    ):
        dd_correct = 0
        dd_total = 0
        nj_matched = 0
        nj_total = 0
        for key, record in records.items():
            expected = twin_of(records, key)
            dd_store = build_store(records, exclude_keys={key})
            dd_match = matcher_cls(dd_store).match_side(record.features, "map")
            dd_total += 1
            if expected is not None and dd_match.job_id == expected:
                dd_correct += 1

            nj_store = build_store(records, exclude_jobs={record.job_name})
            nj_outcome = matcher_cls(nj_store).match_job(record.features)
            nj_total += 1
            nj_matched += int(nj_outcome.matched)
        rows.append(
            [
                label,
                round(dd_correct / dd_total, 3),
                round(nj_matched / nj_total, 3),
            ]
        )
    return ExperimentResult(
        name="Ablation §4.3",
        title="Filter order: dynamics-first vs statics-first",
        headers=["order", "DD map accuracy", "NJ match rate"],
        rows=rows,
        notes=(
            "Expected shape: statics-first matches far fewer never-seen "
            "jobs — the composition donors it needs were evicted before "
            "the behaviour filter could keep them (§4.3's argument)."
        ),
    )


def run_store_scalability(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    store_sizes: tuple[int, ...] = (50, 200, 800),
    seed: int = 0,
) -> ExperimentResult:
    """Chapter 5's scalability requirement, measured.

    Grows the store well past the suite by inserting perturbed copies of
    real profiles, then counts the rows the first match_job call scans
    and ships (it builds the columnar match index) and the candidates a
    second, warm probe carries through the Fig 4.4 stages — matching
    work must grow gently and pushdown must keep the client-side
    transfer flat-ish.  Every column is a count, so the table is
    deterministic.
    """
    import numpy as np

    from ..starfish.profile import JobProfile, SideProfile

    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    base_records = list(records.values())
    probe = base_records[0].features
    rng = np.random.default_rng(seed)

    def perturbed_copy(record: SuiteRecord, index: int) -> JobProfile:
        profile = record.full_profile

        def jitter_side(side: SideProfile) -> SideProfile:
            factor = float(rng.lognormal(0.0, 0.2))
            return SideProfile(
                side=side.side,
                data_flow={k: v * factor for k, v in side.data_flow.items()},
                cost_factors={
                    k: v * float(rng.lognormal(0.0, 0.1))
                    for k, v in side.cost_factors.items()
                },
                statistics=dict(side.statistics),
                phase_times=dict(side.phase_times),
                num_tasks=side.num_tasks,
            )

        return JobProfile(
            job_name=f"{profile.job_name}-v{index}",
            dataset_name=profile.dataset_name,
            input_bytes=int(profile.input_bytes * float(rng.lognormal(0.0, 0.5))),
            split_bytes=profile.split_bytes,
            num_map_tasks=profile.num_map_tasks,
            num_reduce_tasks=profile.num_reduce_tasks,
            map_profile=jitter_side(profile.map_profile),
            reduce_profile=(
                jitter_side(profile.reduce_profile)
                if profile.reduce_profile
                else None
            ),
        )

    rows = []
    for size in store_sizes:
        registry = MetricsRegistry()
        store = ProfileStore(registry=registry)
        for index in range(size):
            record = base_records[index % len(base_records)]
            if index < len(base_records):
                store.put(record.full_profile, record.static, job_id=f"{record.key}")
            else:
                store.put(
                    perturbed_copy(record, index),
                    record.static,
                    job_id=f"{record.key}-v{index}",
                )

        matcher = ProfileMatcher(store)
        before = _scan_totals(registry)
        matcher.match_job(probe)
        scanned, shipped, __ = (
            after - start for after, start in zip(_scan_totals(registry), before)
        )
        warm = matcher.match_job(probe)
        candidates = sum(
            sum(side.funnel.values())
            for side in (warm.map_match, warm.reduce_match)
            if side is not None
        )
        rows.append([size, candidates, scanned, shipped])

    return ExperimentResult(
        name="Ablation Ch.5 scalability",
        title="Matching work and transfer vs store size (pushdown on)",
        headers=[
            "stored profiles", "warm candidates", "rows scanned", "rows shipped",
        ],
        rows=rows,
        notes=(
            "Expected shape: the first probe's index build scans rows "
            "linearly with the store and ships a fixed share of them; a "
            "warm probe is served from the index, and its candidates "
            "(Fig 4.4 stage survivors, both sides) grow with the "
            "near-duplicate copies."
        ),
    )


def run_cfg_cost_correlation(
    ctx: ExperimentContext | None = None,
    records: dict[str, SuiteRecord] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Fig 4.3's claim across the whole suite: map-function control-flow
    complexity correlates with the measured MAP_CPU_COST, which is why
    the CFG is a usable *static* stand-in for an unstable dynamic cost."""
    from scipy import stats as scipy_stats

    if ctx is None:
        ctx = ExperimentContext.create(seed)
    if records is None:
        records = collect_suite(ctx, standard_benchmark(pigmix_queries=4), seed=seed)

    complexities = []
    costs = []
    rows = []
    seen_jobs = set()
    for record in records.values():
        if record.job_name in seen_jobs:
            continue
        seen_jobs.add(record.job_name)
        cfg = record.static.map_cfg
        complexity = cfg.num_branches + cfg.num_loops
        cost = record.full_profile.map_profile.cost_factors["MAP_CPU_COST"]
        complexities.append(complexity)
        costs.append(cost)
        rows.append([record.job_name, complexity, round(cost, 0)])

    rho, pvalue = scipy_stats.spearmanr(complexities, costs)
    rows.sort(key=lambda row: row[1])
    return ExperimentResult(
        name="Ablation Fig 4.3 (suite-wide)",
        title="Map CFG complexity vs measured MAP_CPU_COST (ns/record)",
        headers=["job", "branches+loops", "MAP_CPU_COST"],
        rows=rows,
        notes=(
            f"Spearman rho={rho:.2f} (p={pvalue:.3f}). Expected shape: a "
            "clear positive rank correlation — the CFG predicts the CPU "
            "cost factor statically, the §4.1.3 premise."
        ),
    )
