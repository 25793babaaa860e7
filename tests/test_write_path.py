"""The write path: one version per qualifier, one WAL record per row
mutation, copy-on-write rows — and a differential state machine over
every store configuration.

* **Copy-on-write.** A row write builds a new row map.  The object a
  read returned — which may be a flushed SSTable's value, a cached
  block's value or a logged WAL record's value — is never touched.
* **Legacy histories.** Directories written when every put appended a
  cell version still read the same; compaction trims them to one cell.
* **Write cost.** A durable ``ProfileStore.put`` is exactly four WAL
  records (Dynamic, Static, Profile, Meta), and its bytes do not grow
  with the store's history.
* **Differential.** A Hypothesis ``RuleBasedStateMachine`` drives
  {memory, durable} x {flat, sharded} stores through puts, overwrites,
  deletes, probes, flushes, compactions, (sharded) rebalances and
  (durable) crashes and snapshot/restore cycles.  After every step the
  store's reads equal a dict model and an in-memory flat reference store
  fed the same acknowledged writes; every probe's indexed outcome equals
  the store's own scan path and the reference store's.
"""

import copy
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.chaos import FaultInjector, crash_point_plan
from repro.cli import _synthetic_job
from repro.core.matcher import ProfileMatcher
from repro.core.store import (
    DYNAMIC_PREFIX,
    MAP_COST_COLUMNS,
    MAP_FLOW_COLUMNS,
    PROFILE_PREFIX,
    RED_COST_COLUMNS,
    RED_FLOW_COLUMNS,
    STATIC_PREFIX,
    TABLE_NAME,
    ProfileStore,
)
from repro.hbase import LsmStore, SimulatedCrashError
from repro.hbase import wal as wal_module
from repro.hbase.region import Cell, Region, decode_cells, encode_cells
from repro.observability import MetricsRegistry

from test_crash_recovery import _probe_features
from test_match_index import SHARD_KW, job_spec, make_features, make_profile, make_static


def _json(value):
    """Round-trip through JSON so in-memory tuples compare equal to the
    lists a durable store decodes."""
    return json.loads(json.dumps(value))


def _region_stores(store):
    seen = {}
    for region, __ in store.hbase.catalog.regions_of(TABLE_NAME):
        seen.setdefault(id(region.store), region.store)
    return list(seen.values())


def _close(store):
    for region_store in _region_stores(store):
        region_store.close()


# ======================================================================
# Copy-on-write rows
# ======================================================================


def _region(kind, tmp_path):
    if kind == "memory":
        return Region("t", ("f",))
    store = LsmStore(
        data_dir=tmp_path / "region",
        value_encoder=encode_cells,
        value_decoder=decode_cells,
    )
    return Region("t", ("f",), store=store)


@pytest.mark.parametrize("kind", ["memory", "durable"])
class TestCopyOnWrite:
    def test_later_write_leaves_flushed_sstable_and_wal_record_untouched(
        self, kind, tmp_path
    ):
        region = _region(kind, tmp_path)
        region.put("k", "f", "q", 1)
        logged = region.store.wal[0]
        region.store.flush()
        [table] = region.store.levels[0]
        flushed = table.values[0]
        flushed_before = copy.deepcopy(flushed)
        logged_before = copy.deepcopy(logged.value)

        region.put("k", "f", "q", 2)

        assert flushed == flushed_before
        assert logged.value == logged_before
        assert flushed["f"]["q"].value == 1
        assert region.get("k") == {"f": {"q": 2}}

    def test_later_write_leaves_memstore_record_and_read_untouched(
        self, kind, tmp_path
    ):
        region = _region(kind, tmp_path)
        region.put_row("k", "f", {"a": 1, "b": 2})
        first = region.store.wal[0]
        __, read, __ = region.store.get("k")
        before = copy.deepcopy(read)

        region.put("k", "f", "a", 10)
        region.put_row("k", "f", {"c": 3}, replace=True)

        assert read == before
        assert first.value == before
        assert region.get("k") == {"f": {"c": 3}}

    def test_one_cell_per_qualifier(self, kind, tmp_path):
        region = _region(kind, tmp_path)
        for value in range(5):
            region.put_row("k", "f", {"a": value, "b": -value})
        __, row, __ = region.store.get("k")
        assert set(row["f"]) == {"a", "b"}
        assert all(isinstance(cell, Cell) for cell in row["f"].values())
        assert encode_cells(row)["f"]["a"] == [[4, row["f"]["a"].timestamp]]
        assert len(region.store.wal) == 5  # one record per row mutation


# ======================================================================
# Legacy multi-version directories
# ======================================================================


def test_decode_cells_keeps_newest_and_advances_the_oracle():
    region = Region("t", ("f",))
    far = 10**12
    row = decode_cells({"f": {"q": [["old", 3], ["older?", 7], ["new", far]]}})
    assert row == {"f": {"q": Cell("new", far)}}
    region.put("k", "f", "q", 1)
    __, written, __ = region.store.get("k")
    assert written["f"]["q"].timestamp > far


def _record_history(store, history):
    """Fold the store's current raw rows into *history*: key -> family
    -> qualifier -> every ``[value, timestamp]`` it has held, oldest
    first — the cell lists the one-version-per-put code used to write."""
    live = {}
    for region_store in _region_stores(store):
        keys, rows = region_store.sorted_view()
        for key in keys:
            live[key] = encode_cells(rows[key])
    for key in list(history):
        if key not in live:
            del history[key]
    for key, row in live.items():
        kept = history.setdefault(key, {})
        for family, columns in row.items():
            cells = kept.setdefault(family, {})
            for qualifier in list(cells):
                if qualifier not in columns:
                    del cells[qualifier]
            for qualifier, [cell] in columns.items():
                versions = cells.setdefault(qualifier, [])
                if not versions or versions[-1] != cell:
                    versions.append(cell)


def test_legacy_history_directory_reads_the_same_and_compacts_to_one_cell(
    tmp_path,
):
    reference_dir = tmp_path / "reference"
    reference = ProfileStore(data_dir=reference_dir, registry=MetricsRegistry())
    history = {}
    jobs = [_synthetic_job(number) for number in range(6)]
    for number, (profile, static) in enumerate(jobs[:4]):
        reference.put(profile, static, job_id=f"job-{number}")
        _record_history(reference, history)
    reference.put(*jobs[4], job_id="job-1")  # overwrite
    _record_history(reference, history)
    reference.delete("job-2")
    _record_history(reference, history)
    reference.put(*jobs[5], job_id="job-5")
    _record_history(reference, history)
    _close(reference)
    depth = max(
        len(versions)
        for row in history.values()
        for columns in row.values()
        for versions in columns.values()
    )
    assert depth >= 5, "the Meta row must carry a deep history"

    # Hand-build the legacy directory: same cluster layout, its region
    # rewritten with every cell's history — half in an SSTable, the rest
    # (plus one re-logged row) in the WAL tail.
    legacy_dir = tmp_path / "legacy"
    shutil.copytree(reference_dir, legacy_dir)
    (legacy_dir / "index_checkpoint.json").unlink(missing_ok=True)
    [region_dir] = sorted((legacy_dir / "hbase" / "regions").iterdir())
    for path in list(region_dir.iterdir()):
        path.unlink()
    raw = LsmStore(data_dir=region_dir)
    keys = sorted(history)
    half = len(keys) // 2
    for key in keys[:half]:
        raw.put(key, history[key])
    raw.flush()
    for key in keys[half:] + keys[:1]:
        raw.put(key, history[key])
    raw.close()
    assert raw.levels[0] and raw.wal

    reference = ProfileStore(data_dir=reference_dir, registry=MetricsRegistry())
    legacy = ProfileStore(data_dir=legacy_dir, registry=MetricsRegistry())
    for key in keys:
        assert legacy.table.get(key) == reference.table.get(key), key
    assert legacy.generation == reference.generation
    assert legacy.job_ids() == reference.job_ids()
    for job_id in reference.job_ids():
        assert legacy.get_dynamic(job_id) == reference.get_dynamic(job_id)
        assert (
            legacy.get_profile(job_id).to_dict()
            == reference.get_profile(job_id).to_dict()
        )
    for side in ("map", "reduce"):
        for kind in ("flow", "cost"):
            assert (
                legacy.load_normalizer(side, kind).to_dict()
                == reference.load_normalizer(side, kind).to_dict()
            )
    features = _probe_features()
    assert ProfileMatcher(legacy, registry=MetricsRegistry()).match_job(
        features
    ) == ProfileMatcher(reference, registry=MetricsRegistry()).match_job(features)

    legacy.compact()
    _close(legacy)
    raw = LsmStore(data_dir=region_dir)
    stored = [value for table in raw.hfiles for __, value in table.items()]
    stored += [record.value for record in raw.wal if record.op == "put"]
    raw.close()
    assert len(stored) == len(reference.job_ids()) * 3 + 1
    for row in stored:
        for columns in row.values():
            for cells in columns.values():
                assert len(cells) == 1
    reopened = ProfileStore(data_dir=legacy_dir, registry=MetricsRegistry())
    for key in keys:
        assert reopened.table.get(key) == reference.table.get(key), key
    _close(reopened)
    _close(reference)


# ======================================================================
# Write cost: records per put and bytes per put, by counter
# ======================================================================


def test_durable_put_is_four_records_and_its_bytes_do_not_grow(
    tmp_path, monkeypatch
):
    registry = MetricsRegistry()
    store = ProfileStore(data_dir=tmp_path, registry=registry)
    framed = []
    encode_frame = wal_module.encode_frame

    def counting_encode_frame(payload):
        framed.append(len(payload))
        return encode_frame(payload)

    monkeypatch.setattr(wal_module, "encode_frame", counting_encode_frame)
    put_bytes = []
    for number in range(200):
        appends = registry.get("wal_appends_total")
        before = 0 if appends is None else appends.value
        start = len(framed)
        store.put(*_synthetic_job(number), job_id=f"job-{number}")
        assert registry.get("wal_appends_total").value - before == 4, number
        put_bytes.append(sum(framed[start:]))
    assert put_bytes[199] <= 1.5 * put_bytes[9], (put_bytes[9], put_bytes[199])
    _close(store)


# ======================================================================
# Differential state machine over {memory, durable} x {flat, sharded}
# ======================================================================

_DYNAMIC_MAP = set(MAP_FLOW_COLUMNS) | set(MAP_COST_COLUMNS)
_DYNAMIC_REDUCE = set(RED_FLOW_COLUMNS) | set(RED_COST_COLUMNS)


class WritePathMachine(RuleBasedStateMachine):
    """One store under test, an in-memory flat reference store fed the
    same acknowledged writes, and a dict model of what was acked."""

    durable = False
    layout: dict = {}

    def __init__(self):
        super().__init__()
        self.data_dir = (
            Path(tempfile.mkdtemp(prefix="write-path-")) if self.durable else None
        )
        self.store = self._open(dict(self.layout))
        self.reference = ProfileStore(registry=MetricsRegistry())
        #: job id -> (profile payload, static payload) of the acked put.
        self.model = {}
        self.next_id = 0

    def _open(self, kwargs, chaos=None):
        kwargs = dict(kwargs, registry=MetricsRegistry())
        if self.durable:
            kwargs["data_dir"] = self.data_dir
        if chaos is not None:
            kwargs["chaos"] = chaos
        return ProfileStore(**kwargs)

    def _reopen_kwargs(self):
        # A reopen names only the index flavour; the topology comes back
        # from the cluster meta document.
        return {"shard_index": True} if self.layout.get("shard_index") else {}

    def teardown(self):
        if self.durable:
            _close(self.store)
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def _fresh_id(self):
        self.next_id += 1
        return f"job{self.next_id:03d}"

    def _ack_put(self, job_id, spec):
        profile, static = make_profile(job_id, spec), make_static(spec)
        self.reference.put(profile, static, job_id=job_id)
        self.model[job_id] = (_json(profile.to_dict()), _json(static.to_dict()))

    # -- rules ---------------------------------------------------------
    @rule(spec=job_spec)
    def put_fresh(self, spec):
        job_id = self._fresh_id()
        self.store.put(make_profile(job_id, spec), make_static(spec), job_id=job_id)
        self._ack_put(job_id, spec)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), spec=job_spec)
    def overwrite(self, data, spec):
        job_id = data.draw(st.sampled_from(sorted(self.model)))
        self.store.put(make_profile(job_id, spec), make_static(spec), job_id=job_id)
        self._ack_put(job_id, spec)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.model)))
        self.store.delete(job_id)
        self.reference.delete(job_id)
        del self.model[job_id]

    def _assert_probe(self, spec):
        """The store's indexed outcome equals its own scan path and the
        reference store's."""
        features = make_features(spec)
        got = ProfileMatcher(self.store, registry=MetricsRegistry()).match_job(
            features
        )
        scan = ProfileMatcher(
            self.store, registry=MetricsRegistry(), use_index=False
        ).match_job(features)
        want = ProfileMatcher(
            self.reference, registry=MetricsRegistry()
        ).match_job(features)
        assert got == scan
        assert got == want

    @rule(spec=job_spec)
    def probe(self, spec):
        self._assert_probe(spec)

    @rule(compact=st.booleans())
    def flush_or_compact(self, compact):
        if compact:
            self.store.compact()
        elif self.durable:
            self.store.snapshot()
        else:
            self.store.hbase.flush_all()

    @precondition(lambda self: self.durable)
    @rule()
    def crash_and_reopen(self):
        # No close(): a crash abandons the process; every acked write
        # already passed its fsync point.
        self.store = self._open(self._reopen_kwargs())

    @precondition(lambda self: self.durable)
    @rule(spec=job_spec)
    def snapshot_then_restore(self, spec):
        # A clean restart: the reopened index warms from the checkpoint
        # (plus whatever WAL tail follows it) instead of rebuilding.
        self.store.snapshot()
        _close(self.store)
        registry = MetricsRegistry()
        self.store = ProfileStore.restore(
            self.data_dir, registry=registry, **self._reopen_kwargs()
        )
        self._assert_probe(spec)
        assert registry.counter("pstorm_match_index_checkpoint_loads_total").value == 1
        assert registry.counter("pstorm_matcher_index_rebuilds_total").value == 0

    @precondition(lambda self: self.layout.get("shard_index"))
    @rule(spec=job_spec)
    def rebalance(self, spec):
        self.store.hbase.rebalance()
        self._assert_probe(spec)

    @precondition(lambda self: self.durable)
    @rule(spec=job_spec, kill_at=st.integers(min_value=0, max_value=12))
    def crash_mid_put(self, spec, kill_at):
        job_id = self._fresh_id()
        injector = FaultInjector(crash_point_plan(kill_at), registry=MetricsRegistry())
        crashed = False
        try:
            doomed = self._open(self._reopen_kwargs(), chaos=injector)
            doomed.put(make_profile(job_id, spec), make_static(spec), job_id=job_id)
        except SimulatedCrashError:
            crashed = True
        self.store = self._open(self._reopen_kwargs())
        # The unacknowledged put committed whole or vanished whole.
        if job_id in self.store or not crashed:
            self._ack_put(job_id, spec)

    # -- invariants ----------------------------------------------------
    @invariant()
    def reads_equal_the_model(self):
        store, model = self.store, self.model
        assert store.job_ids() == sorted(model)
        profiles = store.bulk_rows(PROFILE_PREFIX)
        statics = store.bulk_rows(STATIC_PREFIX)
        dynamics = store.bulk_rows(DYNAMIC_PREFIX)
        assert set(statics) == set(dynamics) == set(model)
        for job_id, (profile, static) in model.items():
            assert _json(profiles[job_id]["payload"]) == profile
            assert _json(statics[job_id]) == static
            dynamic = dynamics[job_id]
            has_reduce = profile["reduce_profile"] is not None
            expected = _DYNAMIC_MAP | {"INPUT_BYTES", "HAS_REDUCE"}
            if has_reduce:
                expected |= _DYNAMIC_REDUCE
            assert set(dynamic) == expected
            assert dynamic["HAS_REDUCE"] is has_reduce
            assert dynamic == store.get_dynamic(job_id)

    @invariant()
    def reads_equal_the_reference_store(self):
        assert self.store.generation == self.reference.generation
        for prefix in (DYNAMIC_PREFIX, STATIC_PREFIX):
            assert _json(self.store.bulk_rows(prefix)) == _json(
                self.reference.bulk_rows(prefix)
            )
        for side in ("map", "reduce"):
            for kind in ("flow", "cost"):
                assert (
                    self.store.load_normalizer(side, kind).to_dict()
                    == self.reference.load_normalizer(side, kind).to_dict()
                )


_machine_settings = settings(
    max_examples=20,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
_SHARDED = dict(SHARD_KW, merge_threshold=2)


class MemoryFlatMachine(WritePathMachine):
    pass


class MemoryShardedMachine(WritePathMachine):
    layout = _SHARDED


class DurableFlatMachine(WritePathMachine):
    durable = True


class DurableShardedMachine(WritePathMachine):
    durable = True
    layout = _SHARDED


TestMemoryFlat = MemoryFlatMachine.TestCase
TestMemorySharded = MemoryShardedMachine.TestCase
TestDurableFlat = DurableFlatMachine.TestCase
TestDurableSharded = DurableShardedMachine.TestCase
TestMemoryFlat.settings = _machine_settings
TestMemorySharded.settings = _machine_settings
TestDurableFlat.settings = _machine_settings
TestDurableSharded.settings = _machine_settings
