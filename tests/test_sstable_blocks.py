"""Binary block-sharded SSTables: codec, cache, counters, equivalence.

Four proofs for the ``sst_*.bin`` format:

* the block codec round-trips arbitrary runs (tombstones included) and
  turns every truncation or bit flip into a typed
  :class:`CorruptSSTableError`, never silently-wrong data;
* the shared LRU :class:`BlockCache` serves hits without touching the
  file, bounds its bytes, and invalidates per file;
* the Bloom counters are *block*-granular — a cold probe of an 8-block
  table consults one per-block filter, not eight, and a key falling in
  the gap between blocks consults none (the regression pin for the
  counter-semantics fix);
* Hypothesis: a durable store and a plain dict agree on every get and
  scan — hot, after a cold reopen, and after a forced compaction — for
  arbitrary put/delete histories.

Plus legacy input: a manifest entry of the retired one-JSON-blob
format fails the open with a typed :class:`CorruptSSTableError`, and
``ProfileStore.compact`` leaves only ``sst_*.bin`` files behind.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _synthetic_job
from repro.core.store import ProfileStore
from repro.hbase import (
    BlockCache,
    BlockFile,
    BloomFilter,
    CorruptSSTableError,
    LsmStore,
    TOMBSTONE,
)
from repro.hbase.sstable import (
    MAGIC,
    TRAILER_SIZE,
    read_footer,
    write_block_file,
)
from repro.hbase.storage import MANIFEST_NAME, MANIFEST_VERSION
from repro.observability import MetricsRegistry

# ======================================================================
# Block codec
# ======================================================================

KEYS = tuple(f"k{i:03d}" for i in range(20))
VALUES = tuple(
    TOMBSTONE if i % 7 == 3 else {"n": i, "pad": "x" * (i % 5)}
    for i in range(20)
)


def _write(path, keys=KEYS, values=VALUES, **kwargs):
    with open(path, "wb") as handle:
        return write_block_file(handle, keys, values, **kwargs)


class TestBlockCodec:
    def test_multi_block_round_trip(self, tmp_path):
        path = tmp_path / "run.bin"
        metas, blooms = _write(path, block_size=64)
        assert len(metas) > 1, "block_size=64 must shard this run"
        assert len(blooms) == len(metas)
        # The footer reloads the same index the writer returned.
        footer_metas, footer_blooms, num_keys = read_footer(path)
        assert footer_metas == metas
        assert num_keys == len(KEYS)
        # Blocks tile the run: counts sum, key ranges are in order.
        assert sum(m.count for m in metas) == len(KEYS)
        for left, right in zip(metas, metas[1:]):
            assert left.last_key < right.first_key
            assert left.offset + left.length == right.offset
        # Every key is in its block's Bloom filter (no false negatives).
        block_file = BlockFile(path)
        assert block_file.read_all() == (KEYS, VALUES)
        cursor = 0
        for index, meta in enumerate(metas):
            keys, values = block_file.read_block(index)
            assert keys == KEYS[cursor : cursor + meta.count]
            assert values == VALUES[cursor : cursor + meta.count]
            assert all(footer_blooms[index].might_contain(k) for k in keys)
            cursor += meta.count

    def test_oversized_cell_gets_its_own_block(self, tmp_path):
        path = tmp_path / "big.bin"
        values = ("small", "y" * 4000, "small2")
        metas, __ = _write(path, keys=("a", "b", "c"), values=values,
                           block_size=64)
        # The 4000-byte cell never splits: it lands whole in the block
        # that was open when it arrived and closes it immediately, so
        # the next cell starts a fresh block.
        assert [m.count for m in metas] == [2, 1]
        assert BlockFile(path).read_all() == (("a", "b", "c"), values)

    def test_every_truncation_fails_typed(self, tmp_path):
        path = tmp_path / "run.bin"
        _write(path, block_size=64)
        data = path.read_bytes()
        target = tmp_path / "cut.bin"
        # The trailer is last, so every proper prefix loses it: the
        # footer load must raise typed at every cut point.
        for cut in range(0, len(data), max(1, len(data) // 40)):
            target.write_bytes(data[:cut])
            with pytest.raises(CorruptSSTableError):
                read_footer(target)

    def test_bit_flips_fail_typed_never_garbage(self, tmp_path):
        path = tmp_path / "run.bin"
        _write(path, block_size=64)
        data = path.read_bytes()
        target = tmp_path / "flip.bin"
        for pos in range(0, len(data), max(1, len(data) // 48)):
            mutated = bytearray(data)
            mutated[pos] ^= 0x10
            target.write_bytes(bytes(mutated))
            # Either the footer load or the full read detects the
            # damage; a clean result must be byte-identical data.
            try:
                result = BlockFile(target).read_all()
            except CorruptSSTableError:
                continue
            assert result == (KEYS, VALUES), f"pos={pos} returned garbage"

    def test_trailer_magic_is_checked(self, tmp_path):
        path = tmp_path / "run.bin"
        _write(path)
        data = bytearray(path.read_bytes())
        assert data[-len(MAGIC):] == MAGIC
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSSTableError, match="magic"):
            read_footer(path)

    def test_short_file_fails_typed(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"\x00" * (TRAILER_SIZE - 1))
        with pytest.raises(CorruptSSTableError, match="too short"):
            read_footer(path)


# ======================================================================
# Block cache
# ======================================================================


class TestLazyCellDecode:
    def test_point_read_decodes_only_its_cell(self, tmp_path):
        path = tmp_path / "run.bin"
        _write(path)  # default block size: one block holds every cell
        decoded = []

        def decoder(payload):
            decoded.append(payload["n"])
            return payload

        block_file = BlockFile(path, value_decoder=decoder, cache=BlockCache())
        assert block_file.num_blocks == 1
        found, value = block_file.block(0).find("k004")
        assert (found, value) == (True, VALUES[4])
        assert decoded == [4]
        # The cached block keeps the decoded cell: a re-read returns the
        # same object and decodes nothing.
        assert block_file.block(0).find("k004")[1] is value
        assert block_file.block(0).find("k004a") == (False, None)
        assert block_file.block(0).find("k003") == (True, TOMBSTONE)
        assert decoded == [4]
        # A whole-block read decodes the rest, each cell once.
        assert block_file.read_block(0) == (KEYS, VALUES)
        live = [n for n, v in enumerate(VALUES) if v is not TOMBSTONE]
        assert sorted(decoded) == live

    def test_cold_store_get_decodes_one_cell(self, tmp_path):
        decoded = []

        def decoder(payload):
            decoded.append(payload)
            return payload

        store = LsmStore(data_dir=tmp_path, flush_threshold=1000)
        for number in range(30):
            store.put(f"k{number:03d}", {"n": number})
        store.flush()
        store.close()
        reopened = LsmStore(data_dir=tmp_path, value_decoder=decoder)
        assert reopened.get("k017")[:2] == (True, {"n": 17})
        assert decoded == [{"n": 17}]
        reopened.close()


class TestBlockCache:
    def test_hit_miss_metrics(self, tmp_path):
        registry = MetricsRegistry()
        cache = BlockCache(registry=registry)
        path = tmp_path / "run.bin"
        _write(path, block_size=64)
        block_file = BlockFile(path, cache=cache)
        first = block_file.read_block(0)
        assert block_file.read_block(0) == first
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert registry.get("sstable_block_cache_hits_total").value == 1
        assert registry.get("sstable_block_cache_misses_total").value == 1
        assert registry.get("sstable_block_cache_bytes").value == float(
            cache.current_bytes
        )

    def test_hot_block_survives_file_deletion(self, tmp_path):
        # The strongest no-reread proof: once cached, the block serves
        # even after the backing file is gone.
        cache = BlockCache()
        path = tmp_path / "run.bin"
        _write(path, block_size=64)
        block_file = BlockFile(path, cache=cache)
        hot = block_file.read_block(1)
        path.unlink()
        assert block_file.read_block(1) == hot

    def test_lru_eviction_respects_capacity(self, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "run.bin"
        metas, __ = _write(path, block_size=64)
        cache = BlockCache(
            capacity_bytes=metas[0].length + metas[1].length,
            registry=registry,
        )
        block_file = BlockFile(path, cache=cache)
        for index in range(len(metas)):
            block_file.read_block(index)
        assert cache.current_bytes <= cache.capacity_bytes
        assert cache.evictions >= len(metas) - 2
        assert (
            registry.get("sstable_block_cache_evictions_total").value
            == cache.evictions
        )
        # LRU order: the oldest block was evicted, the newest survives.
        assert cache.get(block_file.token, metas[0].offset) is None
        assert cache.get(block_file.token, metas[-1].offset) is not None

    def test_drop_file_invalidates_only_that_file(self, tmp_path):
        cache = BlockCache()
        a_path, b_path = tmp_path / "a.bin", tmp_path / "b.bin"
        _write(a_path, block_size=64)
        _write(b_path, block_size=64)
        file_a = BlockFile(a_path, cache=cache)
        file_b = BlockFile(b_path, cache=cache)
        file_a.read_block(0)
        file_b.read_block(0)
        assert len(cache) == 2
        assert cache.drop_file(file_a.token) == 1
        assert cache.get(file_a.token, file_a.metas[0].offset) is None
        assert cache.get(file_b.token, file_b.metas[0].offset) is not None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(capacity_bytes=0)


# ======================================================================
# Block-granular Bloom counters (the counter-semantics regression pin)
# ======================================================================

_COUNTER_KW = dict(flush_threshold=8, compaction_threshold=100)


def _counter_value(registry, name):
    metric = registry.get(name)
    return 0 if metric is None else metric.value


class TestBloomBlockCounters:
    @staticmethod
    def _one_cell_per_block(tmp_path):
        store = LsmStore(data_dir=tmp_path, block_size=1, **_COUNTER_KW)
        for i in range(8):
            store.put(f"k{i}", i * 10)
        store.close()

    def test_present_key_consults_one_block_bloom_not_eight(self, tmp_path):
        self._one_cell_per_block(tmp_path)
        registry = MetricsRegistry()
        cold = LsmStore(data_dir=tmp_path, block_size=1, registry=registry,
                        **_COUNTER_KW)
        [table] = cold.hfiles
        assert table.num_blocks == 8, "block_size=1 must shard per cell"
        assert cold.get("k3") == (True, 30, 1)
        # Block semantics: the index narrowed to one candidate block, so
        # exactly one of the table's eight Bloom filters was consulted
        # and exactly one block was searched.  (The old table-granular
        # counters would report one consult but could never distinguish
        # it from searching the whole table.)
        assert _counter_value(registry, "bloom_probes_total") == 1
        assert _counter_value(registry, "bloom_probed_blocks_total") == 1
        assert _counter_value(registry, "bloom_skipped_blocks_total") == 0
        cold.close()

    def test_gap_key_is_pruned_by_the_index_without_any_bloom(self, tmp_path):
        self._one_cell_per_block(tmp_path)
        registry = MetricsRegistry()
        cold = LsmStore(data_dir=tmp_path, block_size=1, registry=registry,
                        **_COUNTER_KW)
        # "k3x" sits inside the table's [k0, k7] range but between the
        # single-cell blocks "k3" and "k4": the first-key index proves
        # absence, so no Bloom filter and no block read happen at all.
        assert cold.get("k3x") == (False, None, 0)
        assert _counter_value(registry, "bloom_probes_total") == 0
        assert _counter_value(registry, "bloom_probed_blocks_total") == 0
        cold.close()

    def test_absent_key_counts_match_the_footer_bloom(self, tmp_path):
        # Two 4-cell blocks: "a c e g" and "i k m o" (11-byte cells,
        # the fourth crosses block_size=40).
        store = LsmStore(data_dir=tmp_path, block_size=40, **_COUNTER_KW)
        for i, key in enumerate("acegikmo"):
            store.put(key, i)
        store.close()
        registry = MetricsRegistry()
        cold = LsmStore(data_dir=tmp_path, block_size=40, registry=registry,
                        **_COUNTER_KW)
        [table] = cold.hfiles
        assert table.num_blocks == 2
        # "b" lands in block 0's [a, g] span; whether that one filter
        # passes is the filter's business — the counters must agree
        # with it exactly, and block 1's filter must stay untouched.
        passes = table.block_file.bloom(0).might_contain("b")
        found, __, probed = cold.get("b")
        assert not found
        assert _counter_value(registry, "bloom_probes_total") == 1
        assert probed == (1 if passes else 0)
        assert _counter_value(registry, "bloom_probed_blocks_total") == probed
        assert _counter_value(registry, "bloom_skipped_blocks_total") == (
            0 if passes else 1
        )
        assert _counter_value(registry, "bloom_false_positives_total") == (
            1 if passes else 0
        )
        cold.close()


# ======================================================================
# Hypothesis: durable store == dict, hot / cold / compacted
# ======================================================================

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.text(alphabet="abcd", min_size=1, max_size=3),
            st.one_of(
                st.integers(-1000, 1000),
                st.text(max_size=8),
                st.none(),
                st.booleans(),
                st.lists(st.integers(0, 9), max_size=3),
            ),
        ),
        st.tuples(
            st.just("delete"),
            st.text(alphabet="abcd", min_size=1, max_size=3),
        ),
    ),
    max_size=40,
)

_EQUIV_KW = dict(
    flush_threshold=4, compaction_threshold=3, group_commit=8, block_size=64
)


def _apply(store, ops):
    for op in ops:
        if op[0] == "put":
            store.put(op[1], op[2])
        else:
            store.delete(op[1])


def _reference(ops):
    state = {}
    for op in ops:
        if op[0] == "put":
            state[op[1]] = op[2]
        else:
            state.pop(op[1], None)
    return state


def _assert_equivalent(store, reference, probes):
    assert dict(store.scan()) == reference
    for key in probes:
        expected = (key in reference, reference.get(key))
        assert store.get(key)[:2] == expected, key


class TestBinaryDictEquivalence:
    @given(ops=_OPS)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_dict_hot_cold_and_compacted(
        self, ops, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp("equiv")
        reference = _reference(ops)
        probes = sorted({op[1] for op in ops} | {"", "a", "dd", "zz"})
        try:
            store = LsmStore(data_dir=base, **_EQUIV_KW)
            _apply(store, ops)
            _assert_equivalent(store, reference, probes)
            store.close()

            # Cold reopen: gets go down the lazy block-probe path.
            store = LsmStore(data_dir=base, **_EQUIV_KW)
            for key in probes:
                expected = (key in reference, reference.get(key))
                assert store.get(key)[:2] == expected, key
            _assert_equivalent(store, reference, probes)

            store.compact(force=True)
            _assert_equivalent(store, reference, probes)
            store.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)


# ======================================================================
# Legacy input and the compact summary
# ======================================================================


def _v1_entry(file_id):
    """A hand-written manifest v1 entry: no ``format``, a table-level
    Bloom, the shape one-JSON-blob tables were recorded with."""
    bloom = BloomFilter(capacity=2)
    for key in ("a", "b"):
        bloom.add(key)
    return {
        "file_id": file_id,
        "num_keys": 2,
        "min_key": "a",
        "max_key": "b",
        "bloom": bloom.to_dict(),
    }


class TestLegacyInput:
    @pytest.mark.parametrize("legacy_format", [None, "json"])
    def test_legacy_manifest_entry_is_rejected_naming_the_file(
        self, tmp_path, legacy_format
    ):
        store = LsmStore(data_dir=tmp_path, flush_threshold=4,
                         compaction_threshold=100)
        for i in range(6):
            store.put(f"k{i}", i)
        store.close()
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == MANIFEST_VERSION
        written = [e for level in manifest["levels"] for e in level]
        assert written and all(e["format"] == "binary" for e in written)
        assert all("bloom" not in e for e in written)

        entry = _v1_entry(manifest["next_file_id"])
        manifest["next_file_id"] += 1
        if legacy_format is None:
            manifest["version"] = 1
        else:
            entry["format"] = legacy_format
        manifest["levels"][0].append(entry)
        manifest_path.write_text(json.dumps(manifest))

        name = f"sst_{entry['file_id']:06d}"
        with pytest.raises(CorruptSSTableError, match=name):
            LsmStore(data_dir=tmp_path, flush_threshold=4,
                     compaction_threshold=100)

    def test_profile_store_compacts_to_binary_blocks(self, tmp_path):
        jobs = {f"job-{n}@mig": _synthetic_job(n) for n in range(3)}
        store = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        for job_id, (profile, static) in jobs.items():
            store.put(profile, static, job_id=job_id)
        store.snapshot()

        # A cluster meta written before the format switch was removed
        # still carries its keys; a reopen accepts and ignores them.
        meta_path = tmp_path / "hbase" / "cluster.json"
        meta = json.loads(meta_path.read_text())
        meta.update(sstable_format="binary", block_size=4096)
        meta_path.write_text(json.dumps(meta))

        reopened = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        summary = reopened.compact(force=True)
        assert summary["tables"] >= 1
        assert summary["blocks"] >= summary["tables"]
        assert sum(row["tables"] for row in summary["levels"]) == (
            summary["tables"]
        )
        assert sum(row["blocks"] for row in summary["levels"]) == (
            summary["blocks"]
        )
        files = list(tmp_path.rglob("sst_*"))
        assert files and all(path.suffix == ".bin" for path in files)

        restored = ProfileStore(data_dir=tmp_path, registry=MetricsRegistry())
        assert sorted(restored.job_ids()) == sorted(jobs)
        for job_id, (profile, __) in jobs.items():
            assert restored.get_profile(job_id).to_dict() == profile.to_dict()
