"""Tests for the shared-memory match-index transport.

The equivalence property (``assert_outcome_identical`` in
``test_match_index.py``) runs here over the *shared-memory* transport: a
matcher probing the worker stack (``SharedIndexClient`` →
``SnapshotStoreProxy``) returns the scan path's ``MatchOutcome``, also
after the parent store's writes are republished.  This module pins the generation
protocol (immutable segments, no torn views across a publish race,
stale-view fallback), read-your-writes for worker-local writes, and the
leak proof: every segment provably unlinked after close.
"""

import multiprocessing.shared_memory as shared_memory

import pytest
from hypothesis import given

from repro.core.matcher import ProfileMatcher
from repro.core.shm_index import (
    SharedIndexClient,
    SharedIndexPublisher,
    SharedIndexUnavailableError,
)
from repro.observability import MetricsRegistry
from repro.serving.procpool import SnapshotStoreProxy
from test_match_index import (
    _deletes,
    _euclidean,
    _jaccard,
    _jobs,
    _late,
    _late_delete,
    _settings,
    assert_outcome_identical,
    build_store,
    job_spec,
    make_features,
    make_profile,
    make_static,
)


def _segment_gone(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


class TestEquivalence:
    """shm probe ≡ scan probe, on flat and sharded stores."""

    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, probe=job_spec, jaccard=_jaccard,
        euclidean=_euclidean,
    )
    def test_three_way_outcome_identical(
        self, jobs, deletes, probe, jaccard, euclidean
    ):
        # The in-process index leg of the three-way comparison is
        # TestEquivalence::test_outcome_identical in test_match_index.py.
        assert_outcome_identical(
            "flat", "shm", jobs, deletes, probe,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )

    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, late=_late, late_delete=_late_delete,
        probe=job_spec, jaccard=_jaccard, euclidean=_euclidean,
    )
    def test_equivalence_across_republish(
        self, jobs, deletes, late, late_delete, probe, jaccard, euclidean
    ):
        """A long-lived worker stack tracks generation bumps: writes land
        in the parent store, the publisher flips, and the next probe
        answers from the new generation — still scan-identical."""
        assert_outcome_identical(
            "sharded", "shm", jobs, deletes, probe, late, late_delete,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )


class TestGenerationProtocol:
    def _store(self, count=3):
        specs = []
        for number in range(count):
            spec = {
                "map_flow": (0.5, 0.5, 1.0, float(number)),
                "map_costs": (1.0, 1.0, 1.0, 1.0, 1.0),
                "has_reduce": False,
                "red_flow": (0.0,) * 4,
                "red_costs": (0.0,) * 5,
                "input_bytes": 1 << 30,
                "map_cfg": number % 3,
                "red_cfg": None,
                "statics": {},
            }
            specs.append(spec)
        # make_static needs every categorical name present.
        from test_match_index import CATEGORICAL_NAMES

        for spec in specs:
            spec["statics"] = {name: "alpha" for name in CATEGORICAL_NAMES}
        store, __ = build_store(specs)
        return store, specs

    def test_pinned_view_survives_publish_race(self):
        """No torn view: a probe pinned to generation N keeps answering
        from N's immutable arrays even while the publisher flips to N+1
        and retires N's segments."""
        store, specs = self._store()
        with SharedIndexPublisher(
            store, registry=MetricsRegistry(), keep_generations=1
        ) as publisher:
            publisher.publish()
            with SharedIndexClient(publisher.ctrl_name) as client:
                pinned = client.view()
                rows_before = pinned.stats()
                generation = pinned.generation
                # A mid-probe write + republish (the race): old segments
                # are unlinked, the ctrl block flips.
                store.put(make_profile("raced", specs[0]), make_static(specs[0]))
                publisher.publish()
                assert publisher.published_generation > generation
                # The pinned view is untouched — same generation, same
                # rows, arrays still readable (the mapping survives the
                # unlink until the last attach closes).
                assert pinned.generation == generation
                assert pinned.stats() == rows_before
                fresh = client.view()
                assert fresh.generation > generation
                assert fresh.stats()["rows"] == rows_before["rows"] + 1

    def test_publish_is_idempotent_per_generation(self):
        store, __ = self._store()
        registry = MetricsRegistry()
        with SharedIndexPublisher(store, registry=registry) as publisher:
            publisher.publish()
            names = list(publisher.segment_names())
            publisher.publish()  # same store generation: no-op
            assert list(publisher.segment_names()) == names
            assert (
                registry.counter("shm_index_publishes_total").value == 1
            )

    def test_client_keeps_stale_view_when_segments_vanish(self):
        store, specs = self._store()
        publisher = SharedIndexPublisher(store, registry=MetricsRegistry())
        publisher.publish()
        registry = MetricsRegistry()
        client = SharedIndexClient(
            publisher.ctrl_name, registry=registry, attach_retries=2
        )
        stale = client.view()
        # Bump the generation, then destroy the new segments before the
        # client can attach: it must fall back to the stale view, counted.
        store.put(make_profile("bump", specs[0]), make_static(specs[0]))
        publisher.publish()
        for name in publisher.segment_names():
            if name != stale_segment_name(publisher, stale.generation):
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
        view = client.view()
        assert view is stale
        assert registry.counter("shm_index_stale_views_total").value >= 1
        client.close()
        publisher.close()

    def test_unpublished_ctrl_raises_unavailable(self):
        store, __ = self._store()
        publisher = SharedIndexPublisher(store, registry=MetricsRegistry())
        # ctrl exists but nothing was published yet.
        with SharedIndexClient(publisher.ctrl_name, attach_retries=1) as client:
            with pytest.raises(SharedIndexUnavailableError):
                client.view()
        publisher.close()


def stale_segment_name(publisher, generation):
    """The segment name belonging to *generation* (if still tracked)."""
    for name in publisher.segment_names():
        if f"g{generation}" in name:
            return name
    return None


class TestLeakProof:
    def test_all_segments_unlinked_on_close(self):
        store, specs = TestGenerationProtocol()._store()
        registry = MetricsRegistry()
        publisher = SharedIndexPublisher(store, registry=registry)
        names = set()
        publisher.publish()
        names.update(publisher.segment_names())
        names.add(publisher.ctrl_name)
        for round_number in range(3):
            store.put(
                make_profile(f"gen{round_number}", specs[0]),
                make_static(specs[0]),
            )
            publisher.publish()
            names.update(publisher.segment_names())
        client = SharedIndexClient(publisher.ctrl_name)
        client.view()
        client.close()
        publisher.close()
        leaked = sorted(name for name in names if not _segment_gone(name))
        assert leaked == []

    def test_retired_generations_unlink_as_publishes_advance(self):
        store, specs = TestGenerationProtocol()._store()
        publisher = SharedIndexPublisher(
            store, registry=MetricsRegistry(), keep_generations=1
        )
        publisher.publish()
        first = set(publisher.segment_names())
        store.put(make_profile("next", specs[0]), make_static(specs[0]))
        publisher.publish()
        current = set(publisher.segment_names())
        retired = first - current
        assert retired, "expected the old generation to retire"
        for name in retired:
            assert _segment_gone(name)
        publisher.close()


class TestReadYourWrites:
    def test_pending_local_writes_probe_the_replica_index(self):
        store, specs = TestGenerationProtocol()._store()
        with SharedIndexPublisher(store, registry=MetricsRegistry()) as publisher:
            publisher.publish()
            with SharedIndexClient(publisher.ctrl_name) as client:
                proxy = SnapshotStoreProxy(client)
                registry = MetricsRegistry()
                matcher = ProfileMatcher(proxy, registry=registry)
                probe = make_features(specs[0])
                matcher.match_job(probe)
                assert registry.counter(
                    "pstorm_matcher_index_hits_total"
                ).value == 1
                # A worker-local write: the shared view no longer covers
                # this worker's store, so the probe runs on the replica's
                # own index view (which sees the write), raising nothing.
                proxy.put(
                    make_profile("local", specs[1]), make_static(specs[1])
                )
                assert proxy.has_pending_local()
                assert proxy.index_view() is not client.view()
                outcome = matcher.match_job(probe)
                scan = ProfileMatcher(
                    proxy._replica, registry=MetricsRegistry(), use_index=False
                )
                assert outcome == scan.match_job(probe)
                assert registry.counter(
                    "pstorm_matcher_index_hits_total"
                ).value == 2
                # Parent absorbs the write and republishes: pending
                # clears, the indexed path resumes.
                drained = proxy.drain_outbox()
                assert [job_id for job_id, __, __ in drained] == [
                    "local@synth"
                ]
                from repro.analysis.static_features import StaticFeatures
                from repro.starfish.profile import JobProfile

                for job_id, profile_dict, static_dict in drained:
                    store.put(
                        JobProfile.from_dict(profile_dict),
                        StaticFeatures.from_dict(static_dict),
                        job_id=job_id,
                    )
                publisher.publish()
                matcher.match_job(probe)
                assert not proxy.has_pending_local()
                assert proxy.index_view() is client.view()
                assert registry.counter(
                    "pstorm_matcher_index_hits_total"
                ).value == 3
