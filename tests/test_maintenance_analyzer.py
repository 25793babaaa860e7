"""Tests for store maintenance (eviction)."""

import pytest

from repro.core.features import extract_job_features
from repro.core.maintenance import FifoEviction, LruEviction, MaintainedStore
from repro.core.store import ProfileStore


def _profile_and_static(engine, profiler, sampler, job, dataset):
    profile, __ = profiler.profile_job(job, dataset)
    sample = sampler.collect(job, dataset, count=1)
    features = extract_job_features(job, dataset, sample.profile, engine)
    return profile, features.static


@pytest.fixture()
def stored_items(engine, profiler, sampler, wordcount, maponly_job, small_text):
    wc = _profile_and_static(engine, profiler, sampler, wordcount, small_text)
    ident = _profile_and_static(engine, profiler, sampler, maponly_job, small_text)
    return {"wc": wc, "ident": ident}


class TestMaintainedStore:
    def test_capacity_enforced(self, stored_items):
        maintained = MaintainedStore(ProfileStore(), capacity=1)
        maintained.put(*stored_items["wc"], job_id="first")
        maintained.put(*stored_items["ident"], job_id="second")
        assert len(maintained) == 1
        assert maintained.evicted == ["first"]
        assert "second" in maintained.store

    def test_lru_hits_protect(self, stored_items):
        maintained = MaintainedStore(ProfileStore(), capacity=2, policy=LruEviction())
        maintained.put(*stored_items["wc"], job_id="a")
        maintained.put(*stored_items["ident"], job_id="b")
        maintained.record_hit("a")  # refresh the older entry
        maintained.put(*stored_items["wc"], job_id="c")
        assert "a" in maintained.store
        assert maintained.evicted == ["b"]

    def test_fifo_ignores_hits(self, stored_items):
        maintained = MaintainedStore(ProfileStore(), capacity=2, policy=FifoEviction())
        maintained.put(*stored_items["wc"], job_id="a")
        maintained.put(*stored_items["ident"], job_id="b")
        maintained.record_hit("a")
        maintained.put(*stored_items["wc"], job_id="c")
        assert maintained.evicted == ["a"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MaintainedStore(ProfileStore(), capacity=0)

    def test_preexisting_entries_registered(self, stored_items):
        store = ProfileStore()
        profile, static = stored_items["wc"]
        store.put(profile, static, job_id="old")
        maintained = MaintainedStore(store, capacity=1)
        maintained.put(*stored_items["ident"], job_id="new")
        assert maintained.evicted == ["old"]

    def test_newest_insert_never_self_evicts(self, stored_items):
        maintained = MaintainedStore(ProfileStore(), capacity=1)
        stored_id = maintained.put(*stored_items["wc"], job_id="only")
        assert stored_id in maintained.store


class TestMaintainedStoreComposition:
    """Regression: MaintainedStore must compose with the resilient
    client in either order (the serving layer uses resilient-outside)."""

    def test_resilient_over_maintained(self, stored_items):
        from repro.core.resilient import ResilientProfileStore

        store = ResilientProfileStore(MaintainedStore(ProfileStore(), capacity=1))
        store.put(*stored_items["wc"], job_id="first")
        store.put(*stored_items["ident"], job_id="second")
        assert len(store) == 1
        assert "second" in store
        assert "first" not in store
        # Maintenance attributes remain reachable through the wrapper.
        assert store.evicted == ["first"]
        store.record_hit("second")
        assert store.get_profile("second") is not None

    def test_maintained_over_resilient(self, stored_items):
        from repro.core.resilient import ResilientProfileStore

        store = MaintainedStore(
            ResilientProfileStore(ProfileStore()), capacity=1
        )
        store.put(*stored_items["wc"], job_id="first")
        store.put(*stored_items["ident"], job_id="second")
        assert len(store) == 1
        assert "second" in store
        assert store.evicted == ["first"]

    def test_delete_keeps_policy_in_sync(self, stored_items):
        maintained = MaintainedStore(ProfileStore(), capacity=2)
        maintained.put(*stored_items["wc"], job_id="a")
        maintained.put(*stored_items["ident"], job_id="b")
        maintained.delete("a")
        # Capacity slot freed: the next two puts must not evict "b"'s
        # replacement prematurely.
        maintained.put(*stored_items["wc"], job_id="c")
        assert sorted(maintained.job_ids()) == ["b", "c"]
        assert maintained.evicted == []

    def test_build_store_capacity_bound(self, engine, profiler, sampler,
                                        wordcount, maponly_job, small_text):
        from repro.experiments.common import build_store
        from repro.core.resilient import ResilientProfileStore
        from repro.core.features import extract_job_features

        def record_for(job):
            profile, __ = profiler.profile_job(job, small_text)
            sample = sampler.collect(job, small_text, count=1)
            features = extract_job_features(job, small_text, sample.profile, engine)

            class _Rec:
                def __init__(self):
                    self.full_profile = profile
                    self.static = features.static
                    self.job_name = job.name

            return _Rec()

        records = {"a@d": record_for(wordcount), "b@d": record_for(maponly_job)}
        store = build_store(records, capacity=1)
        assert isinstance(store, ResilientProfileStore)
        assert len(store) == 1


class TestStaticsFirstMatcher:
    def test_loses_nj_composition(self, engine, profiler, sampler, small_text):
        """The §4.3 argument in miniature: with only behaviour-compatible
        *other* jobs stored, statics-first finds nothing."""
        from repro.core.matcher import ProfileMatcher, StaticsFirstMatcher
        from repro.workloads import bigram_relative_frequency_job, cooccurrence_pairs_job

        store = ProfileStore()
        donor = bigram_relative_frequency_job()
        profile, static = _profile_and_static(engine, profiler, sampler, donor, small_text)
        store.put(profile, static)

        probe_job = cooccurrence_pairs_job()
        sample = sampler.collect(probe_job, small_text, count=1)
        features = extract_job_features(probe_job, small_text, sample.profile, engine)

        dynamics_first = ProfileMatcher(store).match_job(features)
        statics_first = StaticsFirstMatcher(store).match_job(features)
        assert dynamics_first.matched
        assert not statics_first.matched
