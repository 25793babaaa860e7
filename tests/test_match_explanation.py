"""Tests for the end-to-end §7.2.1 matcher."""

import pytest

from repro.core import (
    ParamAwareMatcher,
    ProfileMatcher,
    ProfileStore,
    extract_job_features,
)


@pytest.fixture()
def make_features(engine, sampler):
    def build(job, dataset, seed=0):
        sample = sampler.collect(job, dataset, count=1, seed=seed)
        return extract_job_features(job, dataset, sample.profile, engine)

    return build


class TestParamAwareMatching:
    def test_parameterizations_distinguished(
        self, engine, profiler, make_features, small_text
    ):
        """Store two window sizes of co-occurrence; the param-aware
        matcher must pick the matching parameterization, where the plain
        matcher cannot tell them apart statically."""
        from repro.core.extensions import augment_with_params
        from repro.workloads import cooccurrence_pairs_job

        store = ProfileStore()
        for window in (2, 5):
            job = cooccurrence_pairs_job(window=window)
            profile, __ = profiler.profile_job(job, small_text)
            features = make_features(job, small_text)
            augmented = augment_with_params(features.static, job)
            store.put(profile, augmented, job_id=f"cooc-w{window}@small-text")

        probe_job = cooccurrence_pairs_job(window=5)
        features = make_features(probe_job, small_text)
        probe = ParamAwareMatcher.augment(features, probe_job)

        outcome = ParamAwareMatcher(store, euclidean_threshold=2.0).match_job(probe)
        assert outcome.matched
        assert outcome.map_match.job_id == "cooc-w5@small-text"

    def test_augment_keeps_dynamic_features(self, make_features, small_text):
        from repro.workloads import grep_job

        job = grep_job("needle")
        features = make_features(job, small_text)
        augmented = ParamAwareMatcher.augment(features, job)
        assert augmented.map_data_flow == features.map_data_flow
        assert augmented.static.categorical["PARAM_pattern"] == "'needle'"
