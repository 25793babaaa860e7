"""Snapshot → restore: state fidelity and a warm match index.

The regression this file pins: after ``snapshot()`` and a reopen, the
*first* probe is served from the checkpointed columnar index —
``pstorm_matcher_index_rebuilds_total`` stays 0 — and the restored
store is row-for-row identical to the original.  WAL-tail writes made
after the snapshot warm the index incrementally; anything the tail
cannot prove (a flush after the snapshot) falls back to a rebuild that
must still be *correct*, just not free.
"""

import json

import pytest

from repro.cli import _synthetic_job, main
from repro.core.matcher import ProfileMatcher
from repro.core.store import ProfileStore
from repro.hbase import HBaseCluster
from repro.observability import MetricsRegistry
from repro.serving.service import TuningService

from test_crash_recovery import _probe_features


def _populate(store, count, offset=0):
    for number in range(offset, offset + count):
        profile, static = _synthetic_job(number)
        store.put(profile, static, job_id=f"job-{number}@snap")


def _canonical(store):
    """Generation plus every Dynamic/Static row, merged back out of the
    match index's key-range slices (the slicing follows the topology,
    which this comparison leaves to its own assertions)."""
    generation, __, slices = store.index_snapshot()
    dynamic, static = {}, {}
    for __, dynamic_rows, static_rows in slices:
        dynamic.update(dynamic_rows)
        static.update(static_rows)
    return json.loads(json.dumps([generation, dynamic, static]))


def _metric(registry, name):
    instrument = registry.get(name)
    return 0 if instrument is None else instrument.value


class TestWarmRestore:
    def test_first_probe_after_restore_needs_no_rebuild(self, tmp_path):
        store = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        _populate(store, 4)
        store.match_index().ensure_fresh()
        reference = _canonical(store)
        expected = ProfileMatcher(
            store, registry=MetricsRegistry()
        ).match_job(_probe_features())
        store.snapshot()

        registry = MetricsRegistry()
        restored = ProfileStore.restore(tmp_path, registry=registry)
        assert _canonical(restored) == reference
        outcome = ProfileMatcher(restored, registry=registry).match_job(
            _probe_features()
        )
        assert outcome == expected
        # The headline regression: checkpoint-warm, zero rebuilds.
        assert _metric(registry, "pstorm_matcher_index_rebuilds_total") == 0
        assert _metric(registry, "pstorm_match_index_checkpoint_loads_total") == 1
        assert _metric(registry, "snapshot_restores_total") == 1

    def test_first_probe_reuses_the_recovered_meta_row(self, tmp_path):
        store = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        _populate(store, 4)
        store.match_index().ensure_fresh()
        store.snapshot()

        registry = MetricsRegistry()
        restored = ProfileStore.restore(tmp_path, registry=registry)
        gets = registry.get("hbase_get_seconds", {"table": "Jobs"})
        assert gets.count == 1  # recovery's Meta row read
        outcome = ProfileMatcher(restored, registry=registry).match_job(
            _probe_features()
        )
        assert outcome.map_match.matched
        # The probe's normalizers come from that read; its one get is
        # the donor profile.
        assert _metric(registry, "pstorm_store_normalizer_loads_total") == 1
        assert gets.count == 2

    def test_wal_tail_writes_warm_without_rebuild(self, tmp_path):
        store = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        _populate(store, 3)
        store.snapshot()
        # Post-snapshot writes land in the WAL tails; no flush happens
        # after the checkpoint, so the tail-warm path stays provable.
        profile, static = _synthetic_job(7)
        store.put(profile, static, job_id="job-7@snap")
        store.delete("job-1@snap")
        reference = _canonical(store)

        registry = MetricsRegistry()
        restored = ProfileStore(data_dir=tmp_path, registry=registry)
        assert _canonical(restored) == reference
        indexed = ProfileMatcher(restored, registry=registry)
        scan = ProfileMatcher(
            restored, registry=MetricsRegistry(), use_index=False
        )
        probe = _probe_features()
        assert indexed.match_job(probe) == scan.match_job(probe)
        assert _metric(registry, "pstorm_matcher_index_rebuilds_total") == 0

    def test_flush_after_snapshot_falls_back_to_rebuild(self, tmp_path):
        store = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        _populate(store, 2)
        store.snapshot()
        _populate(store, 3, offset=2)
        store.hbase.flush_all()  # WAL tails truncated: gap unprovable
        reference = _canonical(store)

        registry = MetricsRegistry()
        restored = ProfileStore(data_dir=tmp_path, registry=registry)
        assert _canonical(restored) == reference
        indexed = ProfileMatcher(restored, registry=registry)
        scan = ProfileMatcher(
            restored, registry=MetricsRegistry(), use_index=False
        )
        probe = _probe_features()
        assert indexed.match_job(probe) == scan.match_job(probe)
        # Correctness kept, free warm-up forfeited: exactly one rebuild.
        assert _metric(registry, "pstorm_matcher_index_rebuilds_total") == 1

    def test_snapshot_requires_a_durable_store(self):
        with pytest.raises(ValueError, match="data_dir"):
            ProfileStore(registry=MetricsRegistry()).snapshot()


class TestDurableCluster:
    def test_cluster_reopen_preserves_tables_and_rows(self, tmp_path):
        cluster = HBaseCluster(data_dir=tmp_path, split_threshold=8)
        table = cluster.create_table("t", ("f",))
        for i in range(30):
            table.put(f"row{i:03d}", "f", "col", i)
        expected = [
            (key, row["f"]["col"]) for key, row in table.scan()
        ]
        assert len(cluster.catalog.regions_of("t")) > 1  # splits happened
        cluster.flush_all()

        reopened = HBaseCluster(data_dir=tmp_path)
        got = [
            (key, row["f"]["col"]) for key, row in reopened.table("t").scan()
        ]
        assert got == expected
        assert len(reopened.catalog.regions_of("t")) == len(cluster.catalog.regions_of("t"))

    def test_unflushed_tail_survives_reopen(self, tmp_path):
        cluster = HBaseCluster(data_dir=tmp_path)
        table = cluster.create_table("t", ("f",))
        table.put("tail-row", "f", "col", "unflushed")
        # No flush_all: the row lives only in the WAL.
        reopened = HBaseCluster(data_dir=tmp_path)
        row = reopened.table("t").get("tail-row")
        assert row["f"]["col"] == "unflushed"


class TestServiceRestore:
    def test_tuning_service_reopens_a_durable_store(self, tmp_path):
        seed = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        _populate(seed, 3)
        seed.snapshot()

        service = TuningService(registry=MetricsRegistry(), data_dir=tmp_path)
        assert sorted(service.store.job_ids()) == [
            f"job-{n}@snap" for n in range(3)
        ]


class TestCliSnapshot:
    def test_snapshot_round_trip_via_cli(self, tmp_path, capsys):
        data_dir = str(tmp_path / "store")
        assert main(["snapshot", "--data-dir", data_dir, "--populate", "3"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["jobs"] == 3 and first["restored_jobs"] == 0

        assert main(["snapshot", "--data-dir", data_dir]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["restored_jobs"] == 3
        assert second["index_checkpoint_loads"] == 1
        assert second["index_rebuilds"] == 0
