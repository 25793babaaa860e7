"""Crash-point recovery: the durability proof for the profile store.

Two sweeps, one invariant — **a restored store equals the acked-write
prefix**:

* A *byte-boundary* sweep on a bare durable :class:`LsmStore`: the WAL
  is truncated at every byte offset (and bit-flipped), the store is
  reopened, and the recovered contents must be exactly the flushed
  state plus the clean frame prefix; torn tails surface as typed
  ``recovered_tail_error`` diagnoses, never a raise.

* A *chaos crash-point* sweep on a full :class:`ProfileStore`: a fault
  injector kills the process at operation index *k* for every *k* in a
  reference run — mid-put, mid-flush, mid-compaction, mid-snapshot —
  and after each kill the store is reopened and compared against the
  prefix of writes that were acknowledged before the crash (the
  in-flight write may legally have committed).  The recovered store's
  *indexed* probe must agree with its scan-path probe.

A third sweep damages a binary block-sharded ``sst_*.bin`` at sampled
byte offsets (truncations and bit flips): reads must either return the
exact pre-damage data or raise a typed ``CorruptSSTableError`` — never
garbage.

The default run samples the sweeps; ``-m slow`` runs them exhaustively.
"""

import json
import shutil

import pytest

from repro.chaos import FaultInjector, FaultPlan, crash_point_plan
from repro.cli import _synthetic_job
from repro.core.features import JobFeatures
from repro.core.matcher import ProfileMatcher
from repro.core.store import TABLE_NAME, ProfileStore
from repro.hbase import CorruptSSTableError, LsmStore, SimulatedCrashError
from repro.hbase.wal import HEADER_SIZE, decode_frames, decode_record
from repro.observability import MetricsRegistry
from repro.starfish.profile import (
    MAP_COST_FEATURES,
    MAP_DATA_FLOW_FEATURES,
    REDUCE_COST_FEATURES,
    REDUCE_DATA_FLOW_FEATURES,
)

# ======================================================================
# Part 1: WAL byte-boundary sweep on the bare LSM store
# ======================================================================

STORE_KW = dict(flush_threshold=6, compaction_threshold=3)


def _lsm_workload(store):
    for i in range(20):
        store.put(f"k{i:03d}", i * 10)
    store.delete("k003")
    store.put("k005", 999)
    store.delete("k017")


@pytest.fixture(scope="module")
def wal_fixture(tmp_path_factory):
    """A closed durable store with flushed SSTables plus a WAL tail,
    and everything the sweep needs precomputed: the tail's frame
    boundaries, its decoded records, and the expected recovered state
    for every clean-prefix length."""
    base = tmp_path_factory.mktemp("wal-sweep") / "base"
    store = LsmStore(data_dir=base, **STORE_KW)
    _lsm_workload(store)
    store.close()

    wal_bytes = (base / "wal.log").read_bytes()
    payloads, clean, error = decode_frames(wal_bytes)
    assert error is None and clean == len(wal_bytes)
    assert payloads, "workload must leave an unflushed WAL tail"
    boundaries = [0]
    for payload in payloads:
        boundaries.append(boundaries[-1] + HEADER_SIZE + len(payload))
    tail_records = [decode_record(p) for p in payloads]

    # State with the tail wiped = the flushed (SSTable-only) state.
    flushed_dir = base.parent / "flushed"
    shutil.copytree(base, flushed_dir)
    (flushed_dir / "wal.log").write_bytes(b"")
    flushed = LsmStore(data_dir=flushed_dir, **STORE_KW)
    prefix_states = [dict(flushed.scan())]
    flushed.close()
    for record in tail_records:
        state = dict(prefix_states[-1])
        if record.op == "put":
            state[record.key] = record.value
        else:
            state.pop(record.key, None)
        prefix_states.append(state)

    # Sanity: the full tail replays to the reference workload state.
    reference = {f"k{i:03d}": i * 10 for i in range(20)}
    del reference["k003"], reference["k017"]
    reference["k005"] = 999
    assert prefix_states[-1] == reference
    return base, wal_bytes, boundaries, prefix_states


def _check_truncation(base, wal_bytes, boundaries, prefix_states, cut, workdir):
    target = workdir / f"cut{cut}"
    shutil.copytree(base, target)
    (target / "wal.log").write_bytes(wal_bytes[:cut])
    recovered = LsmStore(data_dir=target, **STORE_KW)  # must never raise
    frames = sum(1 for b in boundaries[1:] if b <= cut)
    assert dict(recovered.scan()) == prefix_states[frames], f"cut={cut}"
    if cut in boundaries:
        assert recovered.recovered_tail_error is None, f"cut={cut}"
    else:
        assert recovered.recovered_tail_error is not None, f"cut={cut}"
        assert (
            "torn" in recovered.recovered_tail_error
            or "checksum" in recovered.recovered_tail_error
        )
    recovered.close()
    # Repair truncated the torn tail: a second open is always clean.
    again = LsmStore(data_dir=target, **STORE_KW)
    assert again.recovered_tail_error is None
    assert dict(again.scan()) == prefix_states[frames]
    again.close()
    shutil.rmtree(target)


def _check_bit_flip(base, wal_bytes, boundaries, prefix_states, pos, workdir):
    target = workdir / f"flip{pos}"
    shutil.copytree(base, target)
    mutated = bytearray(wal_bytes)
    mutated[pos] ^= 0x40
    (target / "wal.log").write_bytes(bytes(mutated))
    recovered = LsmStore(data_dir=target, **STORE_KW)  # must never raise
    # The damaged frame and everything after it are discarded; frames
    # before it are untouched.
    damaged = sum(1 for b in boundaries[1:] if b <= pos)
    assert dict(recovered.scan()) == prefix_states[damaged], f"pos={pos}"
    assert recovered.recovered_tail_error is not None, f"pos={pos}"
    recovered.close()
    shutil.rmtree(target)


class TestWalByteSweep:
    def test_sampled_truncations(self, wal_fixture, tmp_path):
        base, wal_bytes, boundaries, prefix_states = wal_fixture
        # Every frame boundary and its neighbours, plus an even spread.
        cuts = set(boundaries)
        for b in boundaries:
            cuts.update((max(0, b - 1), min(len(wal_bytes), b + 1)))
        cuts.update(range(0, len(wal_bytes) + 1, max(1, len(wal_bytes) // 16)))
        for cut in sorted(cuts):
            _check_truncation(
                base, wal_bytes, boundaries, prefix_states, cut, tmp_path
            )

    @pytest.mark.slow
    def test_every_truncation(self, wal_fixture, tmp_path):
        base, wal_bytes, boundaries, prefix_states = wal_fixture
        for cut in range(len(wal_bytes) + 1):
            _check_truncation(
                base, wal_bytes, boundaries, prefix_states, cut, tmp_path
            )

    def test_sampled_bit_flips(self, wal_fixture, tmp_path):
        base, wal_bytes, boundaries, prefix_states = wal_fixture
        positions = sorted(
            set(range(0, len(wal_bytes), max(1, len(wal_bytes) // 12)))
        )
        for pos in positions:
            _check_bit_flip(
                base, wal_bytes, boundaries, prefix_states, pos, tmp_path
            )

    @pytest.mark.slow
    def test_every_bit_flip(self, wal_fixture, tmp_path):
        base, wal_bytes, boundaries, prefix_states = wal_fixture
        for pos in range(len(wal_bytes)):
            _check_bit_flip(
                base, wal_bytes, boundaries, prefix_states, pos, tmp_path
            )


# ======================================================================
# Part 2: chaos crash-point sweep on the ProfileStore
# ======================================================================


class RecordingInjector(FaultInjector):
    """A fault injector that also records the op-name sequence, so the
    sampled sweep can target the first put/flush/compact/snapshot."""

    def __init__(self, plan, registry=None):
        super().__init__(plan, registry)
        self.ops = []

    def on_operation(self, op, server_id=None):
        self.ops.append(op)
        super().on_operation(op, server_id)


def _probe_features():
    profile, static = _synthetic_job(2)
    return JobFeatures(
        job_name="probe",
        static=static,
        map_data_flow=[
            profile.map_profile.data_flow[n] for n in MAP_DATA_FLOW_FEATURES
        ],
        map_costs=[
            profile.map_profile.cost_factors[n] for n in MAP_COST_FEATURES
        ],
        reduce_data_flow=[
            profile.reduce_profile.data_flow[n]
            for n in REDUCE_DATA_FLOW_FEATURES
        ],
        reduce_costs=[
            profile.reduce_profile.cost_factors[n] for n in REDUCE_COST_FEATURES
        ],
        input_bytes=profile.input_bytes,
    )


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


def _run_workload(store, on_ack):
    """The reference write sequence: five puts, a mid-run snapshot, one
    delete.  ``on_ack`` fires after each acknowledged state-changing
    write (the snapshot is a checkpoint, not a write)."""
    jobs = [_synthetic_job(i) for i in range(5)]
    for number in (0, 1, 2):
        store.put(jobs[number][0], jobs[number][1], job_id=f"job-{number}@crash")
        on_ack(store)
    store.snapshot()
    store.put(jobs[3][0], jobs[3][1], job_id="job-3@crash")
    on_ack(store)
    store.delete("job-1@crash")
    on_ack(store)
    store.put(jobs[4][0], jobs[4][1], job_id="job-4@crash")
    on_ack(store)


@pytest.fixture(scope="module")
def chaos_reference(tmp_path_factory):
    """Two clean durable runs: one under a no-fault injector yielding
    the op sequence (so sweeps know every kill index — it must consult
    exactly like a crash run, so no extra reads), and one without chaos
    recording the canonical state after each acked write (state reads
    would perturb the op indices)."""
    ops_dir = tmp_path_factory.mktemp("chaos-ops")
    injector = RecordingInjector(FaultPlan(), registry=MetricsRegistry())
    counting = ProfileStore(
        data_dir=ops_dir, registry=MetricsRegistry(), chaos=injector
    )
    _run_workload(counting, lambda s: None)
    # The workload must actually cross every durability boundary the
    # harness claims to sweep — including the per-block and footer
    # write points inside a binary SSTable flush.
    seen = set(injector.ops)
    assert {
        "lsm-put",
        "lsm-flush",
        "sst-block",
        "sst-footer",
        "snapshot",
    } <= seen, sorted(seen)

    states_dir = tmp_path_factory.mktemp("chaos-states")
    store = ProfileStore(data_dir=states_dir, registry=MetricsRegistry())
    states = [_canonical(store)]
    _run_workload(store, lambda s: states.append(_canonical(s)))
    return injector.ops, states


def _crash_and_recover(data_dir, kill_at, states):
    """Kill a fresh store at op *kill_at*, reopen, and hold the prefix
    invariant.  Returns the recovered store (caller probes it)."""
    acked = 0

    def on_ack(_store):
        nonlocal acked
        acked += 1

    crashed = False
    try:
        store = ProfileStore(
            data_dir=data_dir,
            registry=MetricsRegistry(),
            chaos=FaultInjector(
                crash_point_plan(kill_at), registry=MetricsRegistry()
            ),
        )
        _run_workload(store, on_ack)
    except SimulatedCrashError:
        crashed = True
    # Deliberately no close(): a crash abandons the process mid-flight.

    recovered = ProfileStore(data_dir=data_dir, registry=MetricsRegistry())
    state = _canonical(recovered)
    if not crashed:
        assert state == states[-1], f"kill_at={kill_at}: clean run diverged"
        return recovered
    # Every acked write survived; the in-flight one either committed
    # whole or vanished whole.
    allowed = [states[acked]]
    if acked + 1 < len(states):
        allowed.append(states[acked + 1])
    assert state in allowed, (
        f"kill_at={kill_at}: recovered state is not the acked prefix "
        f"(acked={acked})"
    )
    return recovered


def _assert_probe_parity(recovered):
    features = _probe_features()
    indexed = ProfileMatcher(recovered, registry=MetricsRegistry())
    scan = ProfileMatcher(
        recovered, registry=MetricsRegistry(), use_index=False
    )
    assert indexed.match_job(features) == scan.match_job(features)


class TestChaosCrashPoints:
    def test_sampled_crash_points(self, chaos_reference, tmp_path):
        ops, states = chaos_reference
        total = len(ops)
        # First occurrence of each op kind + an even spread + both ends
        # + one index past the end (no crash fires: clean-run sanity).
        kills = {ops.index(op) for op in set(ops)}
        kills.update((0, 1, total - 1, total))
        kills.update(range(0, total, max(1, total // 8)))
        for kill_at in sorted(kills):
            recovered = _crash_and_recover(
                tmp_path / f"k{kill_at}", kill_at, states
            )
            _assert_probe_parity(recovered)

    @pytest.mark.slow
    def test_every_crash_point(self, chaos_reference, tmp_path):
        ops, states = chaos_reference
        for kill_at in range(len(ops) + 1):
            recovered = _crash_and_recover(
                tmp_path / f"k{kill_at}", kill_at, states
            )
            # Probe parity on a spread (the full matcher run per point
            # would dominate the sweep without adding coverage).
            if kill_at % 10 == 0:
                _assert_probe_parity(recovered)


# ======================================================================
# Part 3: crash points at sharded-topology boundaries
# ======================================================================

#: Thresholds small enough that the workload below crosses every
#: topology transition: splits while writing, merges while deleting,
#: and one explicit rebalance.
_SHARD_KW = dict(
    num_region_servers=3,
    replication=2,
    split_threshold=4,
    merge_threshold=3,
    shard_index=True,
)


def _run_sharded_workload(store, on_ack):
    """Writes that split regions, deletes that merge them back, a
    rebalance, and a final post-rebalance write — so the crash sweep
    kills the process on either side of every topology operation."""
    jobs = [_synthetic_job(i) for i in range(8)]
    for number in range(8):
        store.put(jobs[number][0], jobs[number][1], job_id=f"job-{number}@shard")
        on_ack(store)
    for number in (0, 2, 4, 6, 7):
        store.delete(f"job-{number}@shard")
        on_ack(store)
    store.hbase.rebalance()  # topology only: no acked data change
    store.put(jobs[0][0], jobs[0][1], job_id="job-0b@shard")
    on_ack(store)


def _assert_sharded_topology(store):
    """The recovered regions tile the key space: no gaps, no overlaps,
    and every region's host set is deduplicated and within bounds."""
    regions = sorted(
        (region for region, __ in store.hbase.catalog.regions_of(TABLE_NAME)),
        key=lambda region: region.start_key,
    )
    assert regions[0].start_key == ""
    assert regions[-1].end_key is None
    for left, right in zip(regions, regions[1:]):
        assert left.end_key == right.start_key
    servers = len(store.hbase.servers)
    for __, hosts in store.hbase.catalog.replicas_of(TABLE_NAME):
        assert len(set(hosts)) == len(hosts)
        assert all(0 <= server_id < servers for server_id in hosts)


@pytest.fixture(scope="module")
def sharded_chaos_reference(tmp_path_factory):
    """The sharded twin of ``chaos_reference``: one counting run that
    proves the workload actually crosses split/merge/rebalance
    boundaries, one chaos-free run recording the acked states."""
    ops_dir = tmp_path_factory.mktemp("shard-ops")
    injector = RecordingInjector(FaultPlan(), registry=MetricsRegistry())
    counting = ProfileStore(
        data_dir=ops_dir, registry=MetricsRegistry(), chaos=injector, **_SHARD_KW
    )
    _run_sharded_workload(counting, lambda s: None)
    seen = set(injector.ops)
    assert {"split", "merge", "rebalance"} <= seen, sorted(seen)

    states_dir = tmp_path_factory.mktemp("shard-states")
    store = ProfileStore(
        data_dir=states_dir, registry=MetricsRegistry(), **_SHARD_KW
    )
    states = [_canonical(store)]
    _run_sharded_workload(store, lambda s: states.append(_canonical(s)))
    return injector.ops, states


def _crash_and_recover_sharded(data_dir, kill_at, states):
    """Sharded twin of ``_crash_and_recover``; additionally holds the
    recovered-topology invariant.  The reopen passes only the data
    directory (plus the index flavour): server count, thresholds and
    replication must come back from the cluster meta document."""
    acked = 0

    def on_ack(_store):
        nonlocal acked
        acked += 1

    crashed = False
    try:
        store = ProfileStore(
            data_dir=data_dir,
            registry=MetricsRegistry(),
            chaos=FaultInjector(
                crash_point_plan(kill_at), registry=MetricsRegistry()
            ),
            **_SHARD_KW,
        )
        _run_sharded_workload(store, on_ack)
    except SimulatedCrashError:
        crashed = True
    # Deliberately no close(): a crash abandons the process mid-flight.

    recovered = ProfileStore(
        data_dir=data_dir, registry=MetricsRegistry(), shard_index=True
    )
    state = _canonical(recovered)
    if not crashed:
        assert state == states[-1], f"kill_at={kill_at}: clean run diverged"
    else:
        allowed = [states[acked]]
        if acked + 1 < len(states):
            allowed.append(states[acked + 1])
        assert state in allowed, (
            f"kill_at={kill_at}: recovered state is not the acked prefix "
            f"(acked={acked})"
        )
    _assert_sharded_topology(recovered)
    return recovered


class TestShardedTopologyCrashPoints:
    def test_sampled_topology_crash_points(self, sharded_chaos_reference, tmp_path):
        ops, states = sharded_chaos_reference
        total = len(ops)
        # Both sides of the first and the last of each topology op,
        # plus an even spread and the clean run past the end.
        kills = set()
        for kind in ("split", "merge", "rebalance"):
            first = ops.index(kind)
            kills.update((max(0, first - 1), first, min(total, first + 1)))
            kills.add(total - 1 - ops[::-1].index(kind))
        kills.update((0, total))
        kills.update(range(0, total, max(1, total // 10)))
        for kill_at in sorted(kills):
            recovered = _crash_and_recover_sharded(
                tmp_path / f"k{kill_at}", kill_at, states
            )
            _assert_probe_parity(recovered)

    @pytest.mark.slow
    def test_every_topology_crash_point(self, sharded_chaos_reference, tmp_path):
        ops, states = sharded_chaos_reference
        for kill_at in range(len(ops) + 1):
            recovered = _crash_and_recover_sharded(
                tmp_path / f"k{kill_at}", kill_at, states
            )
            # Probe parity on a spread (the full matcher run per point
            # would dominate the sweep without adding coverage).
            if kill_at % 10 == 0:
                _assert_probe_parity(recovered)


# ======================================================================
# Part 4: byte-damage sweep on a binary block-sharded SSTable
# ======================================================================

_SST_KW = dict(flush_threshold=64, compaction_threshold=100, block_size=48)


@pytest.fixture(scope="module")
def sst_fixture(tmp_path_factory):
    """A closed durable store whose whole state lives in one multi-block
    ``sst_*.bin`` (the WAL is empty after the flush), so every read must
    go through the block file — damage cannot hide behind a replay."""
    base = tmp_path_factory.mktemp("sst-sweep") / "base"
    store = LsmStore(data_dir=base, **_SST_KW)
    expected = {f"k{i:03d}": i * 10 for i in range(24)}
    for key, value in expected.items():
        store.put(key, value)
    store.flush()
    assert dict(store.scan()) == expected
    [table] = store.hfiles
    assert table.num_blocks > 2, "block_size must shard this run"
    store.close()
    [sst_path] = base.glob("sst_*.bin")
    return base, sst_path.name, sst_path.read_bytes(), expected


def _check_sst_damage(base, sst_name, mutated, expected, workdir, label):
    """Reads over a damaged block file either return exactly the
    pre-damage data or raise ``CorruptSSTableError`` — never garbage."""
    target = workdir / label
    shutil.copytree(base, target)
    (target / sst_name).write_bytes(mutated)
    store = LsmStore(data_dir=target, **_SST_KW)  # attach is lazy
    try:
        state = dict(store.scan())
    except CorruptSSTableError:
        state = None
    else:
        assert state == expected, f"{label}: scan returned garbage"
    for key in list(expected)[:2] + ["k011", "zz-absent"]:
        try:
            found, value, __ = store.get(key)
        except CorruptSSTableError:
            continue
        assert (found, value) == (key in expected, expected.get(key)), (
            f"{label}: get({key!r}) returned garbage"
        )
    store.close()
    shutil.rmtree(target)
    return state


class TestSSTableByteSweep:
    def test_sampled_truncations_fail_typed(self, sst_fixture, tmp_path):
        base, sst_name, data, expected = sst_fixture
        # Every proper prefix loses the trailer, so each truncated open
        # must surface as a typed corruption — never a partial answer.
        for cut in range(0, len(data), max(1, len(data) // 24)):
            state = _check_sst_damage(
                base, sst_name, data[:cut], expected, tmp_path, f"cut{cut}"
            )
            assert state is None, f"cut={cut}: torn file served a scan"

    def test_sampled_bit_flips_fail_typed_or_read_clean(
        self, sst_fixture, tmp_path
    ):
        base, sst_name, data, expected = sst_fixture
        for pos in range(0, len(data), max(1, len(data) // 32)):
            mutated = bytearray(data)
            mutated[pos] ^= 0x20
            _check_sst_damage(
                base, sst_name, bytes(mutated), expected, tmp_path, f"flip{pos}"
            )

    @pytest.mark.slow
    def test_every_bit_flip_fails_typed_or_reads_clean(
        self, sst_fixture, tmp_path
    ):
        base, sst_name, data, expected = sst_fixture
        for pos in range(len(data)):
            mutated = bytearray(data)
            mutated[pos] ^= 0x20
            _check_sst_damage(
                base, sst_name, bytes(mutated), expected, tmp_path, f"flip{pos}"
            )


class TestCrashDuringSnapshot:
    def test_kill_inside_snapshot_keeps_last_good_checkpoint(
        self, chaos_reference, tmp_path
    ):
        ops, states = chaos_reference
        kill_at = ops.index("snapshot")
        recovered = _crash_and_recover(tmp_path / "snap", kill_at, states)
        # The snapshot died after flush_all but before the checkpoint
        # file: recovery still serves the full acked prefix, and the
        # index (cold or warm) agrees with the scan path.
        _assert_probe_parity(recovered)
        assert sorted(recovered.job_ids()) == sorted(
            f"job-{n}@crash" for n in (0, 1, 2)
        )
