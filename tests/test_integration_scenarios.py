"""End-to-end organization scenarios across subsystems.

Each test plays out a realistic multi-step story — daemon restart,
capacity-bound store, cross-cluster bootstrap — exercising several
subsystems against each other rather than in isolation.
"""

import pytest

from repro.core import (
    LruEviction,
    MaintainedStore,
    PStorM,
    ProfileMatcher,
    ProfileStore,
    extract_job_features,
)
from repro.core.transfer import transfer_profile
from repro.hadoop import HadoopEngine, JobConfiguration, ec2_cluster
from repro.hadoop.cluster import CostRates


class TestDaemonRestart:
    def test_snapshot_survives_restart(self, engine, wordcount, small_text, tmp_path):
        """Day 1: profiles collected into a durable store and checkpointed;
        daemon restarts; day 2: matching works off the reopened store."""
        data_dir = tmp_path / "pstorm"
        day1_store = ProfileStore(data_dir=data_dir)
        day1 = PStorM(engine, store=day1_store)
        day1.remember(wordcount, small_text)
        day1_store.snapshot()

        day2 = PStorM(engine, store=ProfileStore.restore(data_dir))
        result = day2.submit(wordcount, small_text)
        assert result.matched


class TestCapacityBoundOperation:
    def test_store_stays_within_capacity_under_stream(
        self, engine, profiler, sampler, small_text
    ):
        """A capacity-2 store under a 4-job stream evicts but keeps
        matching the recently used profiles."""
        from repro.workloads import (
            bigram_relative_frequency_job,
            cooccurrence_pairs_job,
            inverted_index_job,
            word_count_job,
        )

        store = ProfileStore()
        maintained = MaintainedStore(store, capacity=2, policy=LruEviction())
        jobs = [
            word_count_job(),
            inverted_index_job(),
            bigram_relative_frequency_job(),
            cooccurrence_pairs_job(),
        ]
        for job in jobs:
            profile, __ = profiler.profile_job(job, small_text)
            sample = sampler.collect(job, small_text, count=1)
            features = extract_job_features(job, small_text, sample.profile, engine)
            maintained.put(profile, features.static)
        assert len(maintained) == 2
        assert len(maintained.evicted) == 2
        # The most recent job still matches.
        last = jobs[-1]
        sample = sampler.collect(last, small_text, count=1)
        features = extract_job_features(last, small_text, sample.profile, engine)
        outcome = ProfileMatcher(store).match_job(features)
        assert outcome.matched


class TestCrossClusterBootstrap:
    def test_new_cluster_bootstrapped_from_old(self, wordcount, small_text, tmp_path):
        """§7.2.6 end to end: the durable store of an old slow cluster
        seeds a new cluster's PStorM after cost-factor adjustment, and
        the first submission on the new cluster is already a hit."""
        slow_rates = CostRates(
            read_hdfs_ns_per_byte=32.0, write_hdfs_ns_per_byte=50.0,
            read_local_ns_per_byte=18.0, write_local_ns_per_byte=24.0,
            network_ns_per_byte=44.0, cpu_ns_per_record=700.0,
            compress_ns_per_byte=60.0, decompress_ns_per_byte=20.0,
        )
        old_cluster = ec2_cluster(base_rates=slow_rates, seed=33)
        old_engine = HadoopEngine(old_cluster)
        data_dir = tmp_path / "old-cluster"
        old_store = ProfileStore(data_dir=data_dir)
        old_pstorm = PStorM(old_engine, store=old_store)
        old_pstorm.remember(wordcount, small_text)
        old_store.snapshot()

        new_cluster = ec2_cluster()
        new_engine = HadoopEngine(new_cluster)
        seeded_store = ProfileStore()
        staging = ProfileStore.restore(data_dir)
        for job_id in staging.job_ids():
            adjusted = transfer_profile(
                staging.get_profile(job_id), old_cluster, new_cluster
            )
            seeded_store.put(adjusted, staging.get_static(job_id), job_id=job_id)

        new_pstorm = PStorM(new_engine, store=seeded_store)
        result = new_pstorm.submit(wordcount, small_text)
        assert result.matched
        default = new_engine.run_job(wordcount, small_text, JobConfiguration())
        assert result.runtime_seconds < default.runtime_seconds
