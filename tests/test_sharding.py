"""The sharded-store battery: topology, chaos, shm, soak.

The profile store can split its row space across region servers and
partition its match index by region, probed scatter-gather.  Nothing
about that is allowed to be observable in match results; the Hypothesis
equivalence property (``assert_outcome_identical`` in
``test_match_index.py``) runs here over sharded stores.  This module
also holds deterministic proofs for
each topology transition (split, merge, rebalance, durable reopen), the
replica-kill chaos regression (a dead region server reroutes reads to a
surviving replica instead of degrading the submission), the sharded
shared-memory publish/attach parity check, and an opt-in ``soak`` sweep
that drives a hundred thousand writes through repeated splits while
bounding probe latency and per-region row counts.

Every test here runs on a multi-region, multi-partition topology
(``SHARD_KW``) unless it says otherwise.
"""

import time

import pytest
from hypothesis import given

from repro.chaos import FaultInjector, FaultPlan, replica_kill_plan
from repro.core.match_index import IndexView
from repro.core.matcher import ProfileMatcher
from repro.core.pstorm import PStorM
from repro.core.shm_index import SharedIndexClient, SharedIndexPublisher
from repro.core.store import DYNAMIC_STOP, TABLE_NAME, ProfileStore
from repro.observability import MetricsRegistry
from repro.serving.procpool import SnapshotStoreProxy
from test_match_index import (
    SHARD_KW,
    _deletes,
    _euclidean,
    _jaccard,
    _jobs,
    _late,
    _late_delete,
    _settings,
    _spec,
    assert_no_silent_fallback,
    assert_outcome_identical,
    build_store,
    euclidean_ids,
    job_spec,
    make_features,
    make_profile,
    make_static,
    rows_of,
)


def _sharded_store(job_specs, deletes=(), **overrides):
    kwargs = dict(SHARD_KW)
    kwargs.update(overrides)
    return build_store(job_specs, deletes, **kwargs)


def _many_specs(count):
    """Deterministic distinct specs (distance order == index order)."""
    return [_spec(input_bytes=(index + 1) << 26) for index in range(count)]


def _probe_pair(store, **kwargs):
    registry = MetricsRegistry()
    indexed = ProfileMatcher(store, registry=registry, **kwargs)
    scan = ProfileMatcher(
        store, registry=MetricsRegistry(), use_index=False, **kwargs
    )
    return indexed, scan, registry


def _replica_counter(registry, name):
    return sum(
        registry.counter(name, labels={"op": op}).value
        for op in ("get", "scan")
    )


class TestShardedEquivalence:
    """Sharded scatter-gather matching ≡ scan matching, for arbitrary
    stores — the partitioned twin of ``TestEquivalence`` in
    ``test_match_index.py``."""

    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, probe=job_spec, jaccard=_jaccard,
        euclidean=_euclidean,
    )
    def test_outcome_identical(self, jobs, deletes, probe, jaccard, euclidean):
        assert_outcome_identical(
            "sharded", "in-process", jobs, deletes, probe,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )

    @_settings
    @given(
        jobs=_jobs, deletes=_deletes, late=_late, late_delete=_late_delete,
        probe=job_spec, jaccard=_jaccard, euclidean=_euclidean,
    )
    def test_outcome_identical_across_splits(
        self, jobs, deletes, late, late_delete, probe, jaccard, euclidean
    ):
        # Writes that split regions (and a delete that may merge them)
        # land between probes.
        assert_outcome_identical(
            "sharded", "in-process", jobs, deletes, probe, late, late_delete,
            jaccard_threshold=jaccard, euclidean_threshold=euclidean,
        )


class TestTopologyOperations:
    """Each topology transition, pinned deterministically."""

    def test_split_produces_partitions_with_parity(self):
        registry = MetricsRegistry()
        store, __ = _sharded_store(_many_specs(16), registry=registry)
        index = store.match_index().view()
        assert registry.counter("hbase_region_splits_total").value > 0
        assert index.partition_count > 1
        # One partition per region overlapping the Dynamic/ row range.
        dynamic_regions = [
            region
            for region, __ in store.hbase.catalog.regions_of(TABLE_NAME)
            if region.start_key < DYNAMIC_STOP
            and (region.end_key is None or region.end_key > "Dynamic/")
        ]
        assert index.partition_count == len(dynamic_regions)
        assert (
            registry.gauge("pstorm_shard_index_partitions").value
            == index.partition_count
        )
        indexed, scan, probe_registry = _probe_pair(store)
        assert indexed.match_job(make_features(_spec())) == scan.match_job(
            make_features(_spec())
        )
        assert_no_silent_fallback(probe_registry, expected_hits=2)

    def test_merge_after_deletes_repartitions_with_parity(self):
        registry = MetricsRegistry()
        store, job_ids = _sharded_store(
            _many_specs(16), registry=registry, merge_threshold=3
        )
        index = store.match_index()
        parts_before = index.view().partition_count
        repartitions = registry.counter("pstorm_shard_index_repartitions_total")
        baseline = repartitions.value
        for job_id in job_ids[2:]:
            store.delete(job_id)
        assert registry.counter("hbase_region_merges_total").value > 0
        indexed, scan, __ = _probe_pair(store)
        features = make_features(_spec())
        assert indexed.match_job(features) == scan.match_job(features)
        # The topology bump escalated the index to a repartition, and the
        # shrunken row space needs fewer partitions.
        assert repartitions.value > baseline
        assert index.view().partition_count < parts_before

    def test_rebalance_moves_regions_and_keeps_parity(self):
        registry = MetricsRegistry()
        store, __ = _sharded_store(_many_specs(16), registry=registry)
        index = store.match_index()
        index.ensure_fresh()
        topology_before = store.topology_version
        features = make_features(_spec())
        indexed, scan, __ = _probe_pair(store)
        outcome_before = indexed.match_job(features)

        # Splits host daughters in creation order, so after a cascade the
        # placement differs from the canonical key-order round-robin and
        # rebalancing must move something.
        moved = store.hbase.rebalance()
        assert moved > 0
        assert registry.counter("hbase_region_moves_total").value == moved
        assert store.topology_version > topology_before
        assert indexed.match_job(features) == outcome_before
        assert scan.match_job(features) == outcome_before
        # Idempotence: the canonical placement is a fixed point.
        assert store.hbase.rebalance() == 0

    def test_durable_reopen_recovers_topology_and_parity(self, tmp_path):
        specs = _many_specs(12)
        store = ProfileStore(
            registry=MetricsRegistry(), data_dir=tmp_path, **SHARD_KW
        )
        for number, spec in enumerate(specs):
            store.put(make_profile(f"job{number}", spec), make_static(spec))
        parts_before = store.match_index().view().partition_count
        assert parts_before > 1
        features = make_features(_spec())
        outcome_before = ProfileMatcher(
            store, registry=MetricsRegistry()
        ).match_job(features)
        ranges_before = sorted(
            (region.start_key, region.end_key)
            for region, __ in store.hbase.catalog.regions_of(TABLE_NAME)
        )

        # Reopen with only the data directory (the original store is
        # simply abandoned, as a process exit would leave it): servers,
        # thresholds and replication all come back from the cluster meta
        # document.
        reopened = ProfileStore(
            registry=MetricsRegistry(), data_dir=tmp_path, shard_index=True
        )
        assert len(reopened.hbase.servers) == SHARD_KW["num_region_servers"]
        assert reopened.hbase.replication == SHARD_KW["replication"]
        ranges_after = sorted(
            (region.start_key, region.end_key)
            for region, __ in reopened.hbase.catalog.regions_of(TABLE_NAME)
        )
        assert ranges_after == ranges_before
        assert reopened.match_index().view().partition_count == parts_before
        indexed, scan, registry = _probe_pair(reopened)
        assert indexed.match_job(features) == outcome_before
        assert scan.match_job(features) == outcome_before
        assert_no_silent_fallback(registry, expected_hits=2)


class TestReplicaKillChaos:
    """A permanently dead region server must reroute reads to surviving
    replicas — never degrade results, never fall back to scanning."""

    def _kill_target(self, store):
        """A server that is primary for at least one multi-host region."""
        for __, hosts in store.hbase.catalog.replicas_of(TABLE_NAME):
            if len(hosts) > 1:
                return hosts[0]
        raise AssertionError("no replicated region to kill")

    def test_reads_survive_replica_kill(self):
        registry = MetricsRegistry()
        injector = FaultInjector(FaultPlan(), registry=registry)
        store, job_ids = _sharded_store(
            _many_specs(12), registry=registry, chaos=injector
        )
        features = make_features(_spec())
        indexed, scan, probe_registry = _probe_pair(store)
        outcome_before = indexed.match_job(features)
        profiles_before = {
            job_id: store.get_profile(job_id) for job_id in job_ids
        }

        # Flip the live plan to a permanent kill of a primary server.
        injector.plan = replica_kill_plan(
            server_id=self._kill_target(store), at=injector.operations_seen
        )
        assert _replica_counter(registry, "hbase_replica_read_fallbacks_total") == 0

        for job_id in job_ids:
            assert store.get_profile(job_id) == profiles_before[job_id]
        assert indexed.match_job(features) == outcome_before
        assert scan.match_job(features) == outcome_before
        assert_no_silent_fallback(probe_registry, expected_hits=2 * 2)
        assert _replica_counter(registry, "hbase_replica_read_fallbacks_total") > 0
        assert _replica_counter(registry, "hbase_replica_reads_total") > 0

    def test_submission_not_degraded_by_replica_kill(self, engine, wordcount, small_text):
        registry = MetricsRegistry()
        injector = FaultInjector(FaultPlan(), registry=registry)
        store = ProfileStore(registry=registry, chaos=injector, **SHARD_KW)
        daemon = PStorM(engine, store=store, registry=registry)
        daemon.remember(wordcount, small_text)

        injector.plan = replica_kill_plan(
            server_id=self._kill_target(store), at=injector.operations_seen
        )
        result = daemon.submit(wordcount, small_text)
        # The replica fallback sits *below* the retry ladder: the read
        # reroutes inside the table layer, so the submission neither
        # fails nor degrades to sample-profile tuning.
        assert result.matched
        assert result.degraded is False
        assert _replica_counter(registry, "hbase_replica_read_fallbacks_total") > 0
        assert (
            registry.counter("pstorm_degraded_submissions_total").value == 0
        )


class TestShardedSharedMemory:
    """A sharded generation crosses the shm transport intact."""

    def test_publish_attach_parity_and_teardown(self):
        registry = MetricsRegistry()
        store, __ = _sharded_store(_many_specs(12))
        index = store.match_index().view()
        assert index.partition_count > 1
        features = make_features(_spec())
        with SharedIndexPublisher(store, registry=registry) as publisher:
            publisher.publish()
            with SharedIndexClient(
                publisher.ctrl_name, registry=MetricsRegistry()
            ) as client:
                view = client.view()
                assert isinstance(view, IndexView)
                assert view.partition_count == index.partition_count
                proxy = SnapshotStoreProxy(client, registry=MetricsRegistry())
                shm_registry = MetricsRegistry()
                shm = ProfileMatcher(proxy, registry=shm_registry)
                scan = ProfileMatcher(
                    store, registry=MetricsRegistry(), use_index=False
                )
                assert shm.match_job(features) == scan.match_job(features)
                assert_no_silent_fallback(shm_registry, expected_hits=2)
        assert registry.gauge("shm_index_segments_active").value == 0


@pytest.mark.soak
class TestSoak:
    """Opt-in (``-m soak``) large-scale sweep: a hundred thousand writes
    drive repeated splits; probes stay fast and regions stay bounded."""

    WRITES = 100_000
    SPLIT_THRESHOLD = 8_192

    def test_soak_splits_bound_regions_and_probe_latency(self):
        registry = MetricsRegistry()
        store = ProfileStore(
            registry=registry,
            shard_index=True,
            num_region_servers=4,
            replication=2,
            split_threshold=self.SPLIT_THRESHOLD,
        )
        # A small near-probe cluster inside a huge far background, so a
        # probe's euclidean stage prunes the bulk and the funnel stays
        # realistic at scale (an all-identical table would push every
        # row into the per-candidate stages and measure only Python).
        near_spec = _spec()
        far_spec = _spec(
            map_flow=(4.0, 4.0, 0.0, 0.0),
            red_flow=(0.0, 0.05),
            map_cfg=1,
            red_cfg=2,
            statics={name: "beta" for name in near_spec["statics"]},
        )
        near = (make_profile("soak-near", near_spec), make_static(near_spec))
        far = (make_profile("soak-far", far_spec), make_static(far_spec))
        for number in range(self.WRITES):
            profile, static = near if number % 1563 == 0 else far
            store.put(profile, static, job_id=f"soak-{number:06d}")

        assert len(store) == self.WRITES
        assert registry.counter("hbase_region_splits_total").value >= 4
        regions = store.hbase.catalog.regions_of(TABLE_NAME)
        assert len(regions) >= 8
        for region, __ in regions:
            assert region.num_rows <= self.SPLIT_THRESHOLD

        sharded = store.match_index().view()
        assert sharded.partition_count >= 4

        # Probe latency: p99 over repeated full-funnel probes.
        matcher = ProfileMatcher(store, registry=MetricsRegistry())
        features = make_features(near_spec)
        matcher.match_job(features)  # warm the index caches
        samples = []
        for __ in range(200):
            start = time.perf_counter()
            outcome = matcher.match_job(features)
            samples.append(time.perf_counter() - start)
        assert outcome.matched
        samples.sort()
        p99 = samples[int(len(samples) * 0.99) - 1]
        assert p99 < 0.25, f"probe p99 {p99 * 1e3:.1f}ms"

        # Sample parity: the scatter-gather stages agree with the scan
        # path over the very same store.
        probe = [float(value) for value in near_spec["map_flow"]]
        assert euclidean_ids(sharded, "map", "flow", probe, 1.0) == sorted(
            store.euclidean_stage("map", "flow", probe, 1.0)
        )
        sample_ids = [f"soak-{number:06d}" for number in range(0, self.WRITES, 9973)]
        statics = dict(near_spec["statics"])
        scan = ProfileMatcher(store, registry=MetricsRegistry(), use_index=False)
        assert sharded.tie_break_rows(
            rows_of(sharded, sample_ids), near_spec["input_bytes"], statics
        ) == scan._tie_break(sample_ids, near_spec["input_bytes"], statics, "map")
