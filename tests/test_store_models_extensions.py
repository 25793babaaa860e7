"""Tests for the §5.2 alternative store models and the §7.2.1 extension."""

import pytest

from repro.core.extensions import augment_with_params
from repro.core.similarity import jaccard_index
from repro.core.store_models import OpenTsdbStore, TablePerTypeStore
from repro.analysis.static_features import extract_static_features
from repro.workloads.jobs import cooccurrence_pairs_job, grep_job


class TestOpenTsdbStore:
    def test_put_and_assemble_vector(self):
        store = OpenTsdbStore()
        store.put_features("job1", {"MAP_SIZE_SEL": 2.0, "MAP_PAIRS_SEL": 8.0})
        store.put_features("job2", {"MAP_SIZE_SEL": 1.0, "MAP_PAIRS_SEL": 1.0})
        vector = store.feature_vector("job1", ["MAP_SIZE_SEL", "MAP_PAIRS_SEL"])
        assert vector == {"MAP_SIZE_SEL": 2.0, "MAP_PAIRS_SEL": 8.0}

    def test_one_scan_per_feature(self):
        store = OpenTsdbStore()
        names = ["A", "B", "C"]
        assert store.scans_to_build_vector(names) == 3

    def test_feature_rows_collocated_by_feature(self):
        store = OpenTsdbStore()
        store.put_features("j1", {"A": 1})
        store.put_features("j2", {"A": 2})
        keys = [k for k, __ in store.table.scan()]
        assert all(k.startswith("A,") for k in keys)


class TestTablePerTypeStore:
    def test_roundtrip(self):
        store = TablePerTypeStore()
        store.put_features("j", {"MAPPER": "M"}, {"SEL": 1.5})
        vector = store.feature_vector("j")
        assert vector == {"MAPPER": "M", "SEL": 1.5}

    def test_two_tables_double_store_objects(self):
        store = TablePerTypeStore()
        assert store.total_store_objects() == 2


class TestParamFeatures:
    def test_params_become_categorical(self):
        job = cooccurrence_pairs_job(window=4)
        static = extract_static_features(job)
        extended = augment_with_params(static, job)
        assert extended.categorical["PARAM_window"] == "4"

    def test_identical_jobs_different_params_distinguishable(self):
        job2 = cooccurrence_pairs_job(window=2)
        job5 = cooccurrence_pairs_job(window=5)
        plain2 = extract_static_features(job2)
        plain5 = extract_static_features(job5)
        assert jaccard_index(plain2.map_side(), plain5.map_side()) == 1.0

        ext2 = augment_with_params(plain2, job2)
        ext5 = augment_with_params(plain5, job5)
        assert jaccard_index(ext2.map_side(), ext5.map_side()) < 1.0

    def test_same_params_still_match(self):
        job_a = grep_job("needle")
        job_b = grep_job("needle")
        ext_a = augment_with_params(extract_static_features(job_a), job_a)
        ext_b = augment_with_params(extract_static_features(job_b), job_b)
        assert jaccard_index(ext_a.map_side(), ext_b.map_side()) == 1.0

    def test_base_features_untouched(self):
        job = grep_job("x")
        static = extract_static_features(job)
        extended = augment_with_params(static, job)
        for name, value in static.categorical.items():
            assert extended.categorical[name] == value
