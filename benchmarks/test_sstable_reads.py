"""Cold point reads: binary block-sharded SSTables vs one-JSON-blob tables.

A one-JSON-blob ``sst_*.json`` table pays its whole serialized self on
first touch — a cold point read parses every row ever flushed.  The
binary format reads the footer (index-sized) plus exactly one block, so
the cold-read cost is flat in table size.  This benchmark populates a
store at several row counts and fully compacts it to a single deep run,
writes the same rows as one JSON blob, then times a cold
restart-to-first-point-read per format and a warm pass that exercises
the shared LRU block cache.  Results land in ``BENCH_storage.json``.

Each size and format is read cold ``REPETITIONS`` times, interleaved,
and reported as the median: one sub-millisecond sample can carry a GC
pause or a scheduler hiccup larger than the read itself.

``LsmStore`` writes and reads only the binary format, so the JSON
baseline lives here: :func:`_populate_json` writes the blob and its
manifest the way the retired JSON writer did, and
:func:`_json_cold_point_read` repeats the work an ``LsmStore`` open plus
first ``get`` did on such a table — manifest parse, table Bloom
``from_dict``, WAL replay and open, whole-blob ``json.loads``, bisect.

``STORAGE_BENCH_QUICK=1`` shrinks the sizes for CI smoke runs; the
binary format must beat JSON at every size in both modes and clear the
speedup floor at the largest.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import time
from pathlib import Path

from repro.hbase import (
    TOMBSTONE,
    BlockCache,
    BloomFilter,
    LsmStore,
    WriteAheadLog,
)
from repro.hbase.sstable import BLOOM_FPR, BLOOM_SEED
from repro.hbase.storage import MANIFEST_NAME, WAL_NAME
from repro.observability import MetricsRegistry, get_registry

QUICK = os.environ.get("STORAGE_BENCH_QUICK", "") not in ("", "0")
SIZES = [500, 2000] if QUICK else [1000, 8000, 64000]
#: Acceptance floor: cold binary vs cold JSON point read at the largest
#: size.  The full-mode floor is the headline claim; quick mode keeps a
#: margin suited to its smaller tables.
SPEEDUP_FLOOR = 1.3 if QUICK else 3.0
#: Cold reads per size and format; the reported figure is their median.
REPETITIONS = 9
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_storage.json"

#: Few flushes (cheap population), no automatic compaction (the forced
#: one below leaves exactly one deep run per store), amortized fsyncs.
_STORE_KW = dict(
    flush_threshold=4096,
    compaction_threshold=10**9,
    group_commit=512,
)


def _value(i: int) -> dict:
    return {"n": i, "pad": "x" * 64}


def _sst_bytes(data_dir: Path) -> int:
    return sum(path.stat().st_size for path in data_dir.glob("sst_*"))


def _populate(data_dir: Path, rows: int) -> int:
    store = LsmStore(data_dir=data_dir, **_STORE_KW)
    for i in range(rows):
        store.put(f"k{i:06d}", _value(i))
    store.flush()
    store.compact(force=True)
    assert len(store.hfiles) == 1
    store.close()
    return _sst_bytes(data_dir)


def _populate_json(data_dir: Path, rows: int) -> int:
    """One deep run as a single JSON blob plus a manifest carrying the
    table-level Bloom — the retired JSON writer's layout."""
    data_dir.mkdir(parents=True)
    keys = [f"k{i:06d}" for i in range(rows)]
    bloom = BloomFilter(
        capacity=max(1, rows), target_fpr=BLOOM_FPR, seed=BLOOM_SEED
    )
    for key in keys:
        bloom.add(key)
    # ``_populate``'s history: one flush per full memstore, then the
    # forced compaction's table.
    flushes = -(-rows // _STORE_KW["flush_threshold"])
    file_id = flushes + 1
    blob = {
        "file_id": file_id,
        "level": 1,
        "keys": keys,
        "values": [[1, _value(i)] for i in range(rows)],
    }
    (data_dir / f"sst_{file_id:06d}.json").write_text(json.dumps(blob))
    manifest = {
        "version": 2,
        "next_file_id": file_id + 1,
        "next_seq": rows + 1,
        "flushes": flushes,
        "compactions": 1,
        "levels": [
            [],
            [
                {
                    "file_id": file_id,
                    "num_keys": rows,
                    "min_key": keys[0],
                    "max_key": keys[-1],
                    "format": "json",
                    "bloom": bloom.to_dict(),
                }
            ],
        ],
    }
    (data_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
    (data_dir / WAL_NAME).touch()
    return _sst_bytes(data_dir)


def _decode_value(raw: object) -> object:
    """``LsmStore``'s value decoder when none is configured."""
    return raw


def _json_get(
    data_dir: Path, key: str, registry: MetricsRegistry
) -> tuple[bool, object]:
    """A cold open plus first point read of a JSON-blob store, step for
    step as ``LsmStore`` did it: attach (manifest, Blooms, block cache,
    WAL replay and append handle), then newest-first range and Bloom
    checks, loading a passing table whole and bisecting its keys."""
    data_dir.mkdir(parents=True, exist_ok=True)
    BlockCache(registry=registry)
    manifest = json.loads((data_dir / MANIFEST_NAME).read_text())
    tables = [
        (entry, BloomFilter.from_dict(entry["bloom"]))
        for run in manifest["levels"]
        for entry in run
    ]
    WriteAheadLog.load(data_dir / WAL_NAME, repair=True, registry=registry)
    wal = WriteAheadLog(path=data_dir / WAL_NAME, registry=registry)
    try:
        counters = get_registry(registry)
        for entry, bloom in reversed(tables):
            if not entry["min_key"] <= key <= entry["max_key"]:
                continue
            counters.counter("bloom_probes_total").inc()
            if not bloom.might_contain(key):
                counters.counter("bloom_skipped_blocks_total").inc()
                continue
            payload = json.loads(
                (data_dir / f"sst_{entry['file_id']:06d}.json").read_text()
            )
            keys = tuple(payload["keys"])
            values = tuple(
                TOMBSTONE if tag == 0 else _decode_value(raw)
                for tag, raw in payload["values"]
            )
            counters.counter("bloom_probed_blocks_total").inc()
            index = bisect.bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                return True, values[index]
        return False, None
    finally:
        wal.close()


def _cold_point_read(data_dir: Path, fmt: str, key: str, expect: dict) -> float:
    """Restart-to-first-point-read on one fresh open."""
    start = time.perf_counter()
    registry = MetricsRegistry()
    if fmt == "binary":
        store = LsmStore(data_dir=data_dir, registry=registry, **_STORE_KW)
        found, value, __probed = store.get(key)
    else:
        found, value = _json_get(data_dir, key, registry)
    elapsed = time.perf_counter() - start
    assert found and value == expect
    if fmt == "binary":
        store.close()
    return elapsed


def _warm_cache_pass(data_dir: Path, rows: int) -> tuple[float, int]:
    """Two sweeps over a key sample through one binary store: the first
    faults blocks into the cache, the second should serve hot."""
    store = LsmStore(data_dir=data_dir, registry=MetricsRegistry(), **_STORE_KW)
    sample = [f"k{i:06d}" for i in range(0, rows, max(1, rows // 100))]
    for __ in range(2):
        for key in sample:
            found, value, __probed = store.get(key)
            assert found and value == _value(int(key[1:]))
    stats = store.block_cache.stats()
    [table] = store.hfiles
    blocks = table.num_blocks
    store.close()
    return stats["hit_rate"], blocks


def test_binary_cold_point_reads_beat_json(tmp_path):
    # Warm both paths once so first-touch costs (imports, lazy module
    # state) are not billed to the smallest size.
    _populate(tmp_path / "warm-bin", 64)
    _populate_json(tmp_path / "warm-json", 64)
    _cold_point_read(tmp_path / "warm-bin", "binary", "k000032", _value(32))
    _cold_point_read(tmp_path / "warm-json", "json", "k000032", _value(32))

    rows = []
    for size in SIZES:
        bin_dir = tmp_path / f"bin{size}"
        json_dir = tmp_path / f"json{size}"
        bin_bytes = _populate(bin_dir, size)
        json_bytes = _populate_json(json_dir, size)
        key = f"k{size // 2:06d}"
        expect = _value(size // 2)
        bin_reads, json_reads = [], []
        for __ in range(REPETITIONS):
            bin_reads.append(_cold_point_read(bin_dir, "binary", key, expect))
            json_reads.append(_cold_point_read(json_dir, "json", key, expect))
        bin_s = statistics.median(bin_reads)
        json_s = statistics.median(json_reads)
        hit_rate, blocks = _warm_cache_pass(bin_dir, size)
        rows.append(
            {
                "rows": size,
                "binary_cold_read_s": round(bin_s, 6),
                "json_cold_read_s": round(json_s, 6),
                "speedup": round(json_s / bin_s, 2),
                "binary_blocks": blocks,
                "binary_sst_bytes": bin_bytes,
                "json_sst_bytes": json_bytes,
                "warm_cache_hit_rate": round(hit_rate, 3),
            }
        )

    payload = {}
    if _RESULT_PATH.exists():
        payload = json.loads(_RESULT_PATH.read_text())
    payload["cold_point_reads"] = {
        "sizes": SIZES,
        "rows": rows,
        "speedup_floor": SPEEDUP_FLOOR,
        "repetitions": REPETITIONS,
    }
    payload["quick_mode"] = QUICK
    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))

    for row in rows:
        assert row["speedup"] > 1.0, row
        # The second sweep served from the cache: at least the repeated
        # half of the lookups must have been hits.
        assert row["warm_cache_hit_rate"] >= 0.4, row
    assert rows[-1]["speedup"] >= SPEEDUP_FLOOR, rows[-1]
    # The whole point of block sharding: cold-read cost stays near-flat
    # while the JSON blob parse grows linearly with table size.
    growth_bin = rows[-1]["binary_cold_read_s"] / rows[0]["binary_cold_read_s"]
    growth_json = rows[-1]["json_cold_read_s"] / rows[0]["json_cold_read_s"]
    assert growth_bin < growth_json, (growth_bin, growth_json)
