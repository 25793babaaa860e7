"""Tests for the columnar match index.

The heart of this module is the Hypothesis equivalence property,
``assert_outcome_identical``: for arbitrary synthetic stores, deletes,
incremental writes and probes, ``ProfileMatcher`` must return the *same*
``MatchOutcome`` — survivor funnel, terminal stage, winning donor,
composite picks — whether it probes an index view or runs the scan-path
reference, for every index layout (flat, or sharded with region splits
and merges between probes) and every view transport (in-process, or
attached from shared memory by a worker's store proxy).  The flat
in-process cases run here; ``test_sharding.py`` and ``test_shm_index.py``
run the sharded and shared-memory ones.  The remaining classes pin the coherence
protocol (incremental put/delete, overwrite-triggered rebuild,
generation tracking, cheap republish) and what is left of the old
fallback ladder: the scan path runs only on request, and a faulted
rebuild is retried, never answered by a silent scan.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.match_index as match_index_module
from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.static_features import STATIC_FEATURE_NAMES, StaticFeatures
from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.chaos.retry import StoreUnavailableError
from repro.core.features import JobFeatures
from repro.core.match_index import Rows
from repro.core.matcher import (
    ParamAwareMatcher,
    ProfileMatcher,
    StaticsFirstMatcher,
)
from repro.core.resilient import ResilientProfileStore
from repro.core.similarity import normalize_block
from repro.core.shm_index import SharedIndexClient, SharedIndexPublisher
from repro.core.store import ProfileStore
from repro.observability import MetricsRegistry, Tracer
from repro.serving.procpool import SnapshotStoreProxy
from repro.starfish.profile import (
    MAP_COST_FEATURES,
    MAP_DATA_FLOW_FEATURES,
    REDUCE_COST_FEATURES,
    REDUCE_DATA_FLOW_FEATURES,
    JobProfile,
    SideProfile,
)

CATEGORICAL_NAMES = tuple(
    name for name in STATIC_FEATURE_NAMES if name not in ("MAP_CFG", "RED_CFG")
)


# Three distinct CFG shapes so the CFG stage actually discriminates.
def _cfg_linear(x):
    return x + 1


def _cfg_branchy(x):
    if x > 0:
        return x
    return -x


def _cfg_loopy(x):
    total = 0
    for item in range(3):
        total += item
    return total


CFGS = tuple(
    ControlFlowGraph.from_callable(fn)
    for fn in (_cfg_linear, _cfg_branchy, _cfg_loopy)
)


def make_profile(name, spec):
    map_profile = SideProfile(
        side="map",
        data_flow=dict(zip(MAP_DATA_FLOW_FEATURES, spec["map_flow"])),
        cost_factors=dict(zip(MAP_COST_FEATURES, spec["map_costs"])),
        statistics={},
        phase_times={},
        num_tasks=1,
    )
    reduce_profile = None
    if spec["has_reduce"]:
        reduce_profile = SideProfile(
            side="reduce",
            data_flow=dict(zip(REDUCE_DATA_FLOW_FEATURES, spec["red_flow"])),
            cost_factors=dict(zip(REDUCE_COST_FEATURES, spec["red_costs"])),
            statistics={},
            phase_times={},
            num_tasks=1,
        )
    return JobProfile(
        job_name=name,
        dataset_name="synth",
        input_bytes=spec["input_bytes"],
        split_bytes=128 << 20,
        num_map_tasks=2,
        num_reduce_tasks=1 if reduce_profile else 0,
        map_profile=map_profile,
        reduce_profile=reduce_profile,
    )


def make_static(spec):
    red_cfg = spec["red_cfg"]
    return StaticFeatures(
        categorical=dict(spec["statics"]),
        map_cfg=CFGS[spec["map_cfg"]],
        reduce_cfg=None if red_cfg is None else CFGS[red_cfg],
    )


def make_features(spec):
    return JobFeatures(
        job_name="probe",
        static=make_static(spec),
        map_data_flow=spec["map_flow"],
        map_costs=spec["map_costs"],
        reduce_data_flow=spec["red_flow"] if spec["has_reduce"] else None,
        reduce_costs=spec["red_costs"] if spec["has_reduce"] else None,
        input_bytes=spec["input_bytes"],
    )


def build_store(job_specs, delete_indices=(), **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    store = ProfileStore(**kwargs)
    job_ids = []
    for number, spec in enumerate(job_specs):
        job_ids.append(store.put(make_profile(f"job{number}", spec), make_static(spec)))
    for index in delete_indices:
        if index < len(job_ids):
            store.delete(job_ids[index])
    return store, job_ids


# Values drawn from a small pool so distances collide and ties happen.
_value = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, 2.0]) | st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False
)
_static_value = st.sampled_from(["alpha", "beta", "TextInputFormat", ""])

job_spec = st.fixed_dictionaries(
    {
        "map_flow": st.tuples(*[_value] * len(MAP_DATA_FLOW_FEATURES)),
        "map_costs": st.tuples(*[_value] * len(MAP_COST_FEATURES)),
        "has_reduce": st.booleans(),
        "red_flow": st.tuples(*[_value] * len(REDUCE_DATA_FLOW_FEATURES)),
        "red_costs": st.tuples(*[_value] * len(REDUCE_COST_FEATURES)),
        "input_bytes": st.integers(min_value=0, max_value=1 << 34),
        "map_cfg": st.integers(min_value=0, max_value=len(CFGS) - 1),
        "red_cfg": st.sampled_from([None, 0, 1, 2]),
        "statics": st.fixed_dictionaries(
            {name: _static_value for name in CATEGORICAL_NAMES}
        ),
    }
)

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def rows_of(view, job_ids):
    """The live rows of *job_ids* in *view*, ascending per partition."""
    wanted = set(job_ids)
    return Rows(
        np.asarray(
            [
                row
                for row, job_id in enumerate(part.ids.tolist())
                if job_id in wanted and part.active[row]
            ],
            dtype=np.intp,
        )
        for part in view._parts
    )


def ids_of(view, rows):
    """The sorted job ids of *rows* in *view*."""
    return sorted(
        job_id
        for part, part_rows in zip(view._parts, rows.per_part)
        for job_id in part.ids[part_rows].tolist()
    )


def euclidean_ids(view, side, kind, probe, threshold, candidates=None):
    """The index's Euclidean stage over job ids, like the store's."""
    rows = None if candidates is None else rows_of(view, candidates)
    return ids_of(view, view.euclidean_rows(side, kind, probe, threshold, rows))


def assert_no_silent_fallback(registry, expected_hits):
    """The equivalence proof is vacuous if the indexed path did not
    answer — pin that it really answered every side probe."""
    assert registry.counter("pstorm_matcher_index_hits_total").value == expected_hits


#: A put writes three data rows, so these thresholds force splits with
#: only a handful of jobs: a sharded store runs on a multi-region,
#: multi-partition topology.
SHARD_KW = dict(
    shard_index=True, split_threshold=4, num_region_servers=3, replication=2
)

#: Store keyword arguments per index layout; the sharded one also merges
#: regions back as deletes shrink them.
LAYOUTS = {"flat": {}, "sharded": dict(SHARD_KW, merge_threshold=2)}


@contextmanager
def probed_through(store, transport):
    """``(target, republish)``: the store a matcher probes plus the call
    that makes the parent store's writes visible to it.

    In-process the target is the store itself (its builder republishes
    on the next probe).  Over shared memory it is a worker's
    :class:`SnapshotStoreProxy` attached to a publisher of the store.
    """
    if transport == "in-process":
        yield store, lambda: None
        return
    with SharedIndexPublisher(store, registry=MetricsRegistry()) as publisher:
        publisher.publish()
        with SharedIndexClient(publisher.ctrl_name) as client:
            yield (
                SnapshotStoreProxy(client, registry=MetricsRegistry()),
                publisher.publish,
            )


def assert_outcome_identical(
    layout, transport, jobs, deletes, probe, late=(), late_delete=None,
    matcher_cls=ProfileMatcher, **thresholds,
):
    """The equivalence property: a long-lived *matcher_cls* probing a
    *layout* store's index through *transport* returns the
    ``MatchOutcome`` the same class returns on the scan source, before
    and — when *late* puts or a *late_delete* are given — after those
    writes land and are republished.

    On a sharded store the late writes split and merge regions between
    the probes; over shared memory the republish flips the worker's view
    to a newer generation.
    """
    store, job_ids = build_store(jobs, deletes, **LAYOUTS[layout])
    features = make_features(probe)
    scan = matcher_cls(
        store, registry=MetricsRegistry(), use_index=False, **thresholds
    )
    registry = MetricsRegistry()
    probes = 1
    with probed_through(store, transport) as (target, republish):
        # One long-lived indexed matcher; the scan matcher is ground
        # truth at each step.
        indexed = matcher_cls(target, registry=registry, **thresholds)
        assert indexed.match_job(features) == scan.match_job(features)
        if late or late_delete is not None:
            view_before = getattr(target, "view_generation", None)
            for number, spec in enumerate(late):
                store.put(make_profile(f"late{number}", spec), make_static(spec))
            if late_delete is not None and late_delete < len(job_ids):
                store.delete(job_ids[late_delete])
            republish()
            assert indexed.match_job(features) == scan.match_job(features)
            probes = 2
            if transport == "shm" and late:
                # The worker answered from the republished generation.
                assert target.view_generation > view_before
    # The proof is vacuous if the indexed path silently fell back to the
    # scan path.
    sides = 2 if features.has_reduce else 1
    assert_no_silent_fallback(registry, expected_hits=probes * sides)


_jobs = st.lists(job_spec, max_size=6)
_deletes = st.lists(st.integers(min_value=0, max_value=5), max_size=2)
_late = st.lists(job_spec, max_size=4)
_late_delete = st.integers(min_value=0, max_value=5)
_jaccard = st.sampled_from([0.0, 0.4, 0.8, 1.0])
_euclidean = st.sampled_from([None, 0.0, 0.3, 1.0, 3.0])


class TestEquivalence:
    """Indexed matching ≡ scan matching on a flat store, in-process.

    The sharded layout and the shared-memory transport run the same
    property (``assert_outcome_identical``) in ``test_sharding.py`` and
    ``test_shm_index.py``.
    """

    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, probe=job_spec, jaccard=_jaccard,
        euclidean=_euclidean,
    )
    def test_outcome_identical(self, jobs, deletes, probe, jaccard, euclidean):
        assert_outcome_identical(
            "flat", "in-process", jobs, deletes, probe,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )

    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, late=_late, late_delete=_late_delete,
        probe=job_spec, jaccard=_jaccard, euclidean=_euclidean,
    )
    def test_outcome_identical_across_incremental_writes(
        self, jobs, deletes, late, late_delete, probe, jaccard, euclidean
    ):
        # Puts and a delete land between probes: the incremental
        # ensure_fresh path.
        assert_outcome_identical(
            "flat", "in-process", jobs, deletes, probe, late, late_delete,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )


class TestEveryMatcherAgreesAcrossSources:
    """Each matcher class runs its stage order on either stage source:
    on flat and sharded stores, across incremental writes, the index
    source returns the scan source's winners, terminal stages and
    funnels."""

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    @pytest.mark.parametrize(
        "matcher_cls", [ProfileMatcher, StaticsFirstMatcher, ParamAwareMatcher]
    )
    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, late=_late, late_delete=_late_delete,
        probe=job_spec, jaccard=_jaccard, euclidean=_euclidean,
    )
    def test_side_matches_identical(
        self, layout, matcher_cls, jobs, deletes, late, late_delete, probe,
        jaccard, euclidean,
    ):
        assert_outcome_identical(
            layout, "in-process", jobs, deletes, probe, late, late_delete,
            matcher_cls=matcher_cls,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )


def _spec(**overrides):
    """A deterministic baseline job spec for the unit tests."""
    spec = {
        "map_flow": (0.5, 0.5, 1.0, 1.0),
        "map_costs": (1.0, 1.0, 1.0, 1.0, 1.0),
        "has_reduce": True,
        "red_flow": (0.7, 0.7),
        "red_costs": (1.0, 1.0, 1.0, 1.0),
        "input_bytes": 1 << 30,
        "map_cfg": 0,
        "red_cfg": 1,
        "statics": {name: "alpha" for name in CATEGORICAL_NAMES},
    }
    spec.update(overrides)
    return spec


class TestCoherence:
    def test_incremental_put_is_visible_without_rebuild(self):
        registry = MetricsRegistry()
        store, __ = build_store([_spec()], registry=registry)
        index = store.match_index()
        index.ensure_fresh()
        rebuilds = registry.counter("pstorm_matcher_index_rebuilds_total")
        assert rebuilds.value == 1

        late = _spec(input_bytes=2 << 30)
        new_id = store.put(make_profile("late", late), make_static(late))
        index.ensure_fresh()
        assert rebuilds.value == 1  # applied incrementally, no snapshot scan
        assert index.generation == store.generation
        survivors = euclidean_ids(
            index.view(), "map", "flow", [0.5, 0.5, 1.0, 1.0], 10.0
        )
        assert new_id in survivors

    def test_delete_marks_row_dead_without_rebuild(self):
        registry = MetricsRegistry()
        store, job_ids = build_store([_spec(), _spec(input_bytes=42)], registry=registry)
        index = store.match_index()
        index.ensure_fresh()
        rebuilds = registry.counter("pstorm_matcher_index_rebuilds_total")
        store.delete(job_ids[0])
        index.ensure_fresh()
        assert rebuilds.value == 1
        survivors = euclidean_ids(
            index.view(), "map", "flow", [0.5, 0.5, 1.0, 1.0], 10.0
        )
        assert job_ids[0] not in survivors
        assert job_ids[1] in survivors

    def test_overwrite_escalates_to_rebuild(self):
        registry = MetricsRegistry()
        store, job_ids = build_store([_spec()], registry=registry)
        index = store.match_index()
        index.ensure_fresh()
        rebuilds = registry.counter("pstorm_matcher_index_rebuilds_total")
        updated = _spec(input_bytes=7)
        store.put(make_profile("job0", updated), make_static(updated), job_id=job_ids[0])
        index.ensure_fresh()
        assert rebuilds.value == 2  # in-place history is not replayable
        assert index.generation == store.generation
        view = index.view()
        assert view.tie_break_rows(rows_of(view, job_ids), 7, {}) == job_ids[0]

    def test_generation_tracks_every_write(self):
        store, job_ids = build_store([_spec(), _spec()])
        index = store.match_index()
        index.ensure_fresh()
        before = index.generation
        store.delete(job_ids[1])
        assert store.generation == before + 1
        index.ensure_fresh()
        assert index.generation == store.generation

    def test_cold_index_builds_on_first_probe(self):
        registry = MetricsRegistry()
        store, __ = build_store([_spec()], registry=registry)
        matcher = ProfileMatcher(store, registry=registry)
        outcome = matcher.match_job(make_features(_spec()))
        assert outcome.matched
        assert registry.counter("pstorm_matcher_index_rebuilds_total").value == 1
        assert store.match_index().view().stats()["live_rows"] == 1


class TestRepublish:
    """A write republishes the view cheaply: no rebuild, a re-freeze of
    only the partition the write touched, and no CFG re-matching — the
    builder's CFG verdict memo and parsed graphs are shared by every view
    it publishes (digests are content addresses)."""

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_same_statics_put_reuses_the_cfg_memo(self, layout, monkeypatch):
        calls = []
        real_cfg_match = match_index_module.cfg_match

        def counting_cfg_match(probe_cfg, stored_cfg):
            calls.append((probe_cfg, stored_cfg))
            return real_cfg_match(probe_cfg, stored_cfg)

        monkeypatch.setattr(match_index_module, "cfg_match", counting_cfg_match)
        # Ten jobs at threshold 6 split into several partitions, and the
        # extra put below lands without another split.
        kwargs = dict(SHARD_KW, split_threshold=6) if layout == "sharded" else {}
        registry = MetricsRegistry()
        store, __ = build_store(
            [_spec(input_bytes=(n + 1) << 26) for n in range(10)],
            registry=registry,
            **kwargs,
        )
        matcher = ProfileMatcher(store, registry=MetricsRegistry())
        features = make_features(_spec())
        first = matcher.match_job(features)
        assert calls, "the warm-up probe must run the CFG stage"
        index = store.match_index()
        before = index.view()
        rebuilds = registry.counter("pstorm_matcher_index_rebuilds_total")
        rebuilds_before = rebuilds.value
        topology = store.topology_version

        # Same statics and CFGs as every stored job, new input size.
        late = _spec(input_bytes=99 << 26)
        store.put(make_profile("late", late), make_static(late))
        calls.clear()
        second = matcher.match_job(features)
        after = index.view()

        assert store.topology_version == topology
        assert (layout == "sharded") == (before.partition_count > 1)
        assert rebuilds.value == rebuilds_before
        assert calls == []
        assert second.map_match.funnel["cfg"] == first.map_match.funnel["cfg"] + 1
        assert after is not before
        assert after.generation == store.generation
        shared = sum(old is new for old, new in zip(before._parts, after._parts))
        assert shared == before.partition_count - 1


class TestConcurrentProbes:
    def test_probes_racing_writes_never_fall_back(self):
        """Probe threads share the builder's views and their caches while
        a writer puts jobs that move the normalizer bounds: no probe
        raises, and once the writes stop the answer equals the scan
        path's (a lost queued write would not)."""
        store, __ = build_store([_spec(input_bytes=(n + 1) << 26) for n in range(8)])
        features = make_features(_spec())
        registry = MetricsRegistry()
        matcher = ProfileMatcher(store, registry=registry)
        errors = []
        stop = threading.Event()

        def probe():
            try:
                while not stop.is_set():
                    matcher.match_job(features)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=probe) for __ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for number in range(20):
                late = _spec(
                    input_bytes=(100 + number) << 26,
                    map_flow=(0.5, 0.5, 1.0, 1.0 + number / 10),
                )
                store.put(make_profile(f"late{number}", late), make_static(late))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        scan = ProfileMatcher(store, registry=MetricsRegistry(), use_index=False)
        assert matcher.match_job(features) == scan.match_job(features)


class TestFallbackLadder:
    """What is left of the old ladder: the scan path runs only when the
    caller asks for it, and a faulted rebuild is retried or degrades."""

    def test_matcher_opt_out_takes_the_scan_path(self):
        store, __ = build_store([_spec()])
        registry = MetricsRegistry()
        tracer = Tracer()
        matcher = ProfileMatcher(
            store, registry=registry, tracer=tracer, use_index=False
        )
        assert matcher.match_job(make_features(_spec())).matched
        assert registry.counter("pstorm_matcher_index_hits_total").value == 0
        sides = tracer.spans("pstorm.match_side")
        assert [span.attrs["via"] for span in sides] == ["scan", "scan"]
        assert store._match_index is None  # never built

    def test_statics_first_ablation_runs_on_the_index(self):
        store, __ = build_store([_spec()])
        registry = MetricsRegistry()
        matcher = StaticsFirstMatcher(store, registry=registry)
        features = make_features(_spec())
        scan = StaticsFirstMatcher(
            store, registry=MetricsRegistry(), use_index=False
        )
        assert matcher.match_job(features) == scan.match_job(features)
        assert registry.counter("pstorm_matcher_index_hits_total").value == 2

    @staticmethod
    def _faulted_rebuild(kind, attempts):
        """A store whose first probe-time substrate operation — the
        index rebuild's snapshot scan — and the next ``attempts - 1``
        operations fault with *kind*."""
        specs = [_spec(), _spec(input_bytes=123)]
        # Replay the population against an empty plan to learn the op
        # index of the first probe-time substrate operation.
        rehearsal = FaultInjector(FaultPlan(), registry=MetricsRegistry())
        build_store(specs, chaos=rehearsal)
        fault_at = rehearsal.operations_seen
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    op="scan",
                    kind=kind,
                    start_after=fault_at,
                    stop_after=fault_at + attempts,
                ),
            )
        )
        injector = FaultInjector(plan, registry=MetricsRegistry())
        store, __ = build_store(specs, chaos=injector)
        return store, injector

    def test_faulted_rebuild_is_retried_and_the_index_answers(self):
        store, injector = self._faulted_rebuild("transient", 1)
        registry = MetricsRegistry()
        matcher = ProfileMatcher(
            ResilientProfileStore(store, registry=registry), registry=registry
        )
        features = make_features(_spec())

        # The rebuild scan faults once; the retry republishes the view
        # and the index, not a scan, answers the probe.
        match = matcher.match_side(features, "map")
        assert injector.summary() == {"scan/transient": 1}
        assert registry.counter(
            "pstorm_store_retryable_errors_total", labels={"op": "scan"}
        ).value == 1
        assert registry.counter("pstorm_matcher_index_hits_total").value == 1
        scan = ProfileMatcher(store, registry=MetricsRegistry(), use_index=False)
        assert match == scan.match_side(features, "map")

    def test_exhausted_rebuild_retries_raise_store_unavailable(self):
        store, injector = self._faulted_rebuild("unavailable", 100)
        registry = MetricsRegistry()
        resilient = ResilientProfileStore(store, registry=registry)
        matcher = ProfileMatcher(resilient, registry=registry)
        with pytest.raises(StoreUnavailableError):
            matcher.match_side(make_features(_spec()), "map")
        attempts = resilient.policy.max_attempts
        assert injector.summary() == {"scan/unavailable": attempts}
        assert registry.counter("pstorm_matcher_index_hits_total").value == 0


class TestStageParityEdges:
    """Deterministic pins for the trickiest scan-path corner cases."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "top, probe_value",
        [(5e-324, 1.0), (1e-10, 1e308)],
        ids=["tiny-span", "huge-probe"],
    )
    def test_overflowing_normalization_clips_to_one(self, top, probe_value):
        """A column whose span is tiny next to the probe's offset: the
        division overflows, and every path must read the probe as 1.0,
        without a warning."""
        store, job_ids = build_store(
            [_spec(map_flow=(0.5, 0.5, 1.0, 0.0)), _spec(map_flow=(0.5, 0.5, 1.0, top))]
        )
        index = store.match_index()
        index.ensure_fresh()
        probe = [0.5, 0.5, 1.0, probe_value]
        normalizer = store.load_normalizer("map", "flow")
        assert normalizer.normalize(probe)[-1] == 1.0
        assert normalize_block(normalizer, np.array([probe]))[0, -1] == 1.0
        # Normalized, the probe sits on the top row and 1.0 from the other.
        scan = store.euclidean_stage("map", "flow", probe, 0.5)
        assert scan == [job_ids[1]]
        assert euclidean_ids(index.view(), "map", "flow", probe, 0.5) == scan

    def test_probe_column_missing_from_store_fails_jaccard(self):
        spec = _spec()
        store, job_ids = build_store([spec])
        index = store.match_index()
        index.ensure_fresh()
        probe = dict(spec["statics"])
        probe["PARAM_window"] = "10"  # never stored -> row must fail
        view = index.view()
        assert len(view.jaccard_rows(probe, 0.0, rows_of(view, job_ids))) == 0
        assert store.jaccard_stage(probe, 0.0, job_ids) == []

    def test_empty_probe_statics_passes_everyone(self):
        store, job_ids = build_store([_spec()])
        index = store.match_index()
        index.ensure_fresh()
        view = index.view()
        survivors = view.jaccard_rows({}, 1.0, rows_of(view, job_ids))
        assert ids_of(view, survivors) == sorted(job_ids)

    def test_tie_break_empty_value_reads_missing_as_agreement(self):
        spec = _spec()
        store, job_ids = build_store([spec])
        index = store.match_index()
        index.ensure_fresh()
        # A probe key the store never saw, with value "": the scan path
        # reads the missing stored value as "" and calls that agreement.
        statics = {"PARAM_window": ""}
        matcher = ProfileMatcher(store, use_index=False, registry=MetricsRegistry())
        scan_winner = matcher._tie_break(job_ids, 0, statics, "map")
        view = index.view()
        assert view.tie_break_rows(rows_of(view, job_ids), 0, statics) == scan_winner
