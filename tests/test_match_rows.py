"""The row-index funnel against the scan path, beyond ``MatchOutcome``.

The indexed matcher hands row arrays between the Fig 4.4 stages and
orders tie-break candidates by a per-partition id rank, not by job-id
strings.  Two things the outcome equivalence tests in
``test_match_index.py`` do not see are pinned here, on flat and sharded
stores, in-process and over shared memory:

- the ``pstorm_matcher_tiebreak_similarity{side}`` histogram equals the
  scan path's: bucket counts, count, a bit-identical sum (so the
  similarities are observed in the scan path's sorted-id order), min and
  max;
- when incremental puts make row order differ from id order, the id
  still decides a tie-break that nothing else decides.
"""

import pytest
from hypothesis import given

from repro.core.matcher import ProfileMatcher
from repro.observability import MetricsRegistry
from test_match_index import (
    LAYOUTS,
    SHARD_KW,
    _deletes,
    _jobs,
    _late,
    _settings,
    _spec,
    assert_no_silent_fallback,
    build_store,
    job_spec,
    make_features,
    make_profile,
    make_static,
    probed_through,
)

#: (layout, transport) pairs: flat and sharded in-process, and both
#: layouts attached from shared memory.
CONFIGURATIONS = [
    ("flat", "in-process"),
    ("sharded", "in-process"),
    ("flat", "shm"),
    ("sharded", "shm"),
]


def tiebreak_histograms(registry):
    """Everything the tie-break similarity histograms hold, per side."""
    snapshot = {}
    for side in ("map", "reduce"):
        hist = registry.histogram(
            "pstorm_matcher_tiebreak_similarity", labels={"side": side}
        )
        snapshot[side] = (
            hist.bucket_counts(),
            hist.count,
            hist.sum.hex(),
            repr(hist.minimum),
            repr(hist.maximum),
        )
    return snapshot


def assert_histograms_identical(layout, transport, jobs, deletes, late, probe):
    """Probe, put *late* jobs under ids that sort before every stored
    id, republish, probe again: the indexed matcher's tie-break
    histograms equal the scan matcher's after each probe."""
    store, __ = build_store(jobs, deletes, **LAYOUTS[layout])
    features = make_features(probe)
    scan_registry = MetricsRegistry()
    scan = ProfileMatcher(store, registry=scan_registry, use_index=False)
    registry = MetricsRegistry()
    with probed_through(store, transport) as (target, republish):
        indexed = ProfileMatcher(target, registry=registry)
        assert indexed.match_job(features) == scan.match_job(features)
        assert tiebreak_histograms(registry) == tiebreak_histograms(scan_registry)
        for number, spec in enumerate(late):
            store.put(
                make_profile(f"early{number}", spec),
                make_static(spec),
                job_id=f"a-early{number}@synth",
            )
        republish()
        assert indexed.match_job(features) == scan.match_job(features)
        assert tiebreak_histograms(registry) == tiebreak_histograms(scan_registry)
    sides = 2 if features.has_reduce else 1
    assert_no_silent_fallback(registry, expected_hits=2 * sides)


class TestTieBreakHistogramParity:
    @pytest.mark.parametrize("layout, transport", CONFIGURATIONS)
    @_settings
    @given(jobs=_jobs, deletes=_deletes, late=_late, probe=job_spec)
    def test_histograms_identical(self, layout, transport, jobs, deletes, late, probe):
        assert_histograms_identical(layout, transport, jobs, deletes, late, probe)

    @pytest.mark.parametrize("layout, transport", CONFIGURATIONS)
    def test_many_candidates_order_the_sum(self, layout, transport):
        """Forty stored and five late candidates with assorted fractional
        similarities, so the float sum depends on the order they are
        observed in."""
        names = sorted(_spec()["statics"])

        def spec(number):
            statics = {
                name: "alpha" if (position * number) % 9 < 6 else "beta"
                for position, name in enumerate(names)
            }
            return _spec(statics=statics, input_bytes=(number % 7) << 26)

        jobs = [spec(number) for number in range(40)]
        late = [spec(number) for number in range(40, 45)]
        assert_histograms_identical(layout, transport, jobs, (3,), late, _spec())


class TestIdDecidesTies:
    """Late puts append rows after the stored ones, but their ids sort
    first: a rank taken from row order would pick a stored job."""

    @pytest.mark.parametrize("layout, transport", CONFIGURATIONS)
    def test_winner_is_the_smallest_id(self, layout, transport):
        # Sixteen jobs at threshold 10 split into three partitions, and
        # the late puts below land without another split.
        kwargs = dict(SHARD_KW, split_threshold=10) if layout == "sharded" else {}
        registry = MetricsRegistry()
        store, job_ids = build_store(
            [_spec() for __ in range(16)], registry=registry, **kwargs
        )
        features = make_features(_spec())
        scan = ProfileMatcher(store, registry=MetricsRegistry(), use_index=False)
        with probed_through(store, transport) as (target, republish):
            indexed = ProfileMatcher(target, registry=MetricsRegistry())
            assert indexed.match_job(features) == scan.match_job(features)
            rebuilds = registry.counter("pstorm_matcher_index_rebuilds_total")
            rebuilds_before = rebuilds.value
            late_ids = [
                store.put(
                    make_profile(f"early{number}", _spec()),
                    make_static(_spec()),
                    job_id=f"a-early{number}@synth",
                )
                for number in (2, 0, 1)
            ]
            republish()
            outcome = indexed.match_job(features)
            assert outcome == scan.match_job(features)
            # Same statics, similarity and input bytes everywhere: only
            # the id decides, on both sides.
            assert outcome.map_match.job_id == min(late_ids) == "a-early0@synth"
            assert outcome.reduce_match.job_id == "a-early0@synth"
            assert outcome.map_match.funnel["jaccard"] == len(job_ids) + 3
            # The late rows were appended, not re-sorted by a rebuild.
            assert rebuilds.value == rebuilds_before
        if layout == "sharded":
            assert store.match_index().view().partition_count > 1
