"""Tests for store persistence and the adoption driver."""

import pytest


class TestPersistence:
    """A durable store round-trips through snapshot and reopen."""

    @pytest.fixture()
    def populated(
        self, engine, profiler, sampler, wordcount, maponly_job, small_text, tmp_path
    ):
        from repro.core.features import extract_job_features
        from repro.core.store import ProfileStore

        store = ProfileStore(data_dir=tmp_path / "store")
        for job in (wordcount, maponly_job):
            profile, __ = profiler.profile_job(job, small_text)
            sample = sampler.collect(job, small_text, count=1)
            features = extract_job_features(job, small_text, sample.profile, engine)
            store.put(profile, features.static)
        store.snapshot()
        return store

    @staticmethod
    def _restore(store):
        from repro.core.store import ProfileStore

        return ProfileStore.restore(store.data_dir)

    def test_roundtrip_via_file(self, populated):
        restored = self._restore(populated)
        assert restored.job_ids() == populated.job_ids()
        for job_id in populated.job_ids():
            assert restored.get_profile(job_id) == populated.get_profile(job_id)

    def test_normalizers_replayed(self, populated):
        restored = self._restore(populated)
        original = populated.normalizer("map", "flow")
        replayed = restored.normalizer("map", "flow")
        assert replayed.minimums == original.minimums
        assert replayed.maximums == original.maximums

    def test_restored_store_matches_identically(self, populated, engine, sampler, wordcount, small_text):
        from repro.core.features import extract_job_features
        from repro.core.matcher import ProfileMatcher

        restored = self._restore(populated)
        sample = sampler.collect(wordcount, small_text, count=1)
        features = extract_job_features(wordcount, small_text, sample.profile, engine)
        original_match = ProfileMatcher(populated).match_job(features)
        restored_match = ProfileMatcher(restored).match_job(features)
        assert original_match.map_match.job_id == restored_match.map_match.job_id


class TestAdoption:
    def test_stream_deterministic(self):
        from repro.experiments.adoption import submission_stream

        a = [job.name for job, __ in submission_stream(10, seed=3)]
        b = [job.name for job, __ in submission_stream(10, seed=3)]
        assert a == b

    def test_adoption_shapes(self):
        from repro.experiments import adoption

        result = adoption.run(stream_length=12)
        final = result.rows[-1]
        __, default_h, starfish_h, pstorm_h, starfish_tuned, pstorm_tuned, misses = final
        assert pstorm_h < default_h
        assert pstorm_tuned >= starfish_tuned
        assert misses >= 1  # the first-ever submission must miss
