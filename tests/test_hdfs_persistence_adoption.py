"""Tests for HDFS locality, store persistence, and the adoption driver."""

from dataclasses import replace

import numpy as np
import pytest

from repro.hadoop import ClusterSpec, ec2_cluster
from repro.hadoop.hdfs import expected_locality, place_blocks


class TestBlockPlacement:
    def test_replication_count(self, cluster):
        placement = place_blocks(20, cluster, replication=3, seed=1)
        assert placement.num_blocks == 20
        assert all(len(holders) == 3 for holders in placement.replicas)

    def test_replicas_on_distinct_nodes(self, cluster):
        placement = place_blocks(50, cluster, seed=2)
        for holders in placement.replicas:
            assert len(set(holders)) == len(holders)

    def test_replication_capped_by_cluster_size(self):
        tiny = ec2_cluster(num_workers=2)
        placement = place_blocks(5, tiny, replication=3)
        assert placement.replication == 2

    def test_is_local_and_blocks_on(self, cluster):
        placement = place_blocks(10, cluster, seed=3)
        node = placement.replicas[0][0]
        assert placement.is_local(0, node)
        assert 0 in placement.blocks_on(node)

    def test_deterministic_under_seed(self, cluster):
        a = place_blocks(10, cluster, seed=4)
        b = place_blocks(10, cluster, seed=4)
        assert a.replicas == b.replicas

    def test_negative_blocks_rejected(self, cluster):
        with pytest.raises(ValueError):
            place_blocks(-1, cluster)

    def test_replicas_name_node_ids(self, cluster):
        renamed = ClusterSpec(
            workers=tuple(
                replace(node, node_id=100 + 7 * node.node_id)
                for node in cluster.workers
            )
        )
        placement = place_blocks(20, renamed, seed=8)
        assert placement.replicas == tuple(
            tuple(100 + 7 * node for node in holders)
            for holders in place_blocks(20, cluster, seed=8).replicas
        )
        assert expected_locality(placement, renamed, seed=8) == expected_locality(
            place_blocks(20, cluster, seed=8), cluster, seed=8
        )


class TestLocality:
    def test_all_tasks_scheduled(self, cluster):
        placement = place_blocks(100, cluster, seed=5)
        stats = expected_locality(placement, cluster, seed=5)
        assert stats.total == 100

    def test_mostly_local_with_three_replicas(self, cluster):
        placement = place_blocks(200, cluster, replication=3, seed=6)
        stats = expected_locality(placement, cluster, seed=6)
        assert stats.local_fraction > 0.8

    def test_single_replica_less_local(self, cluster):
        three = expected_locality(place_blocks(200, cluster, 3, seed=7), cluster, seed=7)
        one = expected_locality(place_blocks(200, cluster, 1, seed=7), cluster, seed=7)
        assert one.local_fraction <= three.local_fraction

    def test_engine_locality_penalty_slows_reads(self, cluster, wordcount, small_text):
        from repro.hadoop import HadoopEngine, JobConfiguration

        plain = HadoopEngine(cluster).run_job(wordcount, small_text, JobConfiguration())
        aware = HadoopEngine(cluster, locality_aware=True).run_job(
            wordcount, small_text, JobConfiguration()
        )
        plain_read = plain.map_phase_totals()["READ"]
        aware_read = aware.map_phase_totals()["READ"]
        assert aware_read >= plain_read


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
