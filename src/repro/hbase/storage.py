"""The LSM write path: WAL, memstore, SSTables, leveled compaction.

Chapter 5 picks HBase for scalable profile storage; this module models
the machinery behind that promise at observation fidelity: every write
appends to a write-ahead log and lands in an in-memory **memstore**;
when the memstore exceeds its flush threshold it becomes an immutable
sorted **SSTable** in level 0; when L0 accumulates
``compaction_threshold`` tables a **leveled compaction** merges them
into the (single, non-overlapping) sorted run of the next level,
cascading by a per-level capacity fanout.  Each SSTable carries a
:class:`~repro.hbase.bloom.BloomFilter`, so point reads probe only the
tables that *might* hold the key — ``bloom_skipped_blocks_total``
counts the ones skipped, and ``read_amplification()`` stays the honest
worst case (the table count).

Durability is opt-in: with ``data_dir`` set the WAL lives in a real
file (length-prefixed, CRC-checked frames — see :mod:`repro.hbase.wal`),
flushes and compactions write SSTable files and atomically commit a
``manifest.json`` (tmp + ``os.replace``), and constructing a store on
an existing directory *recovers*: the manifest is loaded (SSTables
lazily — a cold store reads only key ranges and the footer-sized block
index), the WAL tail is replayed with torn/corrupt tails detected,
truncated, and surfaced as a typed diagnosis.  Deletes write
tombstones, which leveled compaction drops once they reach the deepest
level.

The durable file format is binary and block-sharded (see
:mod:`repro.hbase.sstable`): an ``sst_*.bin`` file holds
length+CRC32-framed cell blocks of ~``block_size`` encoded bytes each,
plus a footer with a first-key block index and one Bloom filter per
block.  A cold point read binary-searches the index to the single
candidate block, consults only that block's Bloom, and ``seek``+reads
exactly one frame through a cluster-shared LRU :class:`BlockCache` —
instead of parsing the whole table.  It is the only format a store
writes or reads: a manifest entry in any other format (a v1 entry with
no ``format`` field, from the retired one-JSON-blob ``sst_*.json``
tables) fails the open with
:class:`~repro.hbase.errors.CorruptSSTableError` naming the table file.

Without ``data_dir`` the store behaves exactly like the pre-durability
substrate (no files, no chaos consults), so every in-memory test and
seeded chaos schedule is unchanged.
"""

from __future__ import annotations

import bisect
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from ..observability import MetricsRegistry, get_registry
from .bloom import BloomFilter
from .errors import CorruptSSTableError
from .sstable import (
    BLOOM_FPR,
    BLOOM_SEED,
    DEFAULT_BLOCK_SIZE,
    TOMBSTONE,
    BlockCache,
    BlockFile,
    write_block_file,
)
from .wal import WalRecord, WriteAheadLog

if TYPE_CHECKING:
    from ..chaos import FaultInjector

__all__ = [
    "SSTable",
    "LsmStore",
    "TOMBSTONE",
    "ProbeResult",
    "BlockCache",
]

MANIFEST_NAME = "manifest.json"
WAL_NAME = "wal.log"
#: v1 manifests predate block sharding: their entries carry no
#: ``format`` field, and an open rejects them.
MANIFEST_VERSION = 2
#: The one table format a manifest entry may name.
SSTABLE_FORMAT = "binary"
#: Per-level capacity multiplier: level *n* holds up to
#: ``flush_threshold * LEVEL_FANOUT**n`` entries before cascading.
LEVEL_FANOUT = 4


class ProbeResult(NamedTuple):
    """Outcome of one table's point read, with block-level accounting.

    ``consulted`` counts Bloom filters asked, ``probed`` the blocks
    actually searched, ``skipped`` the blocks a Bloom ruled out — all
    *blocks*, not tables, so a multi-block binary table reports the
    same way a single-block one does.
    """

    found: bool
    value: Any
    consulted: int
    probed: int
    skipped: int
    false_positive: bool


#: A probe pruned by the block index alone (no Bloom consulted).
_ABSENT = ProbeResult(False, None, 0, 0, 0, False)


class SSTable:
    """An immutable, sorted key->value run flushed from the memstore.

    Key ranges always live in memory (they come from the manifest); the
    key/value arrays may be loaded lazily from disk on first touch, so
    a freshly restored store pays only for the blocks its reads
    actually visit.  A durable table carries a
    :class:`~repro.hbase.sstable.BlockFile`, whose footer index and
    per-block Bloom filters let :meth:`probe` read exactly one block;
    an in-memory table keeps a table-level ``bloom`` instead.
    """

    __slots__ = (
        "file_id",
        "level",
        "min_key",
        "max_key",
        "bloom",
        "_num_keys",
        "_keys",
        "_values",
        "_block_file",
    )

    def __init__(
        self,
        file_id: int,
        keys: tuple[str, ...] | None,
        values: tuple[Any, ...] | None,
        bloom: BloomFilter | None = None,
        level: int = 0,
        min_key: str | None = None,
        max_key: str | None = None,
        num_keys: int | None = None,
        block_file: BlockFile | None = None,
    ) -> None:
        self.file_id = file_id
        self.level = level
        self.bloom = bloom
        self._keys = keys
        self._values = values
        self._block_file = block_file
        if keys is not None:
            self.min_key = keys[0] if keys else ""
            self.max_key = keys[-1] if keys else ""
            self._num_keys = len(keys)
        else:
            self.min_key = min_key if min_key is not None else ""
            self.max_key = max_key if max_key is not None else ""
            self._num_keys = int(num_keys or 0)

    @classmethod
    def from_mapping(
        cls, file_id: int, entries: dict[str, Any], level: int = 0
    ) -> "SSTable":
        keys = tuple(sorted(entries))
        values = tuple(entries[k] for k in keys)
        bloom = BloomFilter(
            capacity=max(1, len(keys)), target_fpr=BLOOM_FPR, seed=BLOOM_SEED
        )
        for key in keys:
            bloom.add(key)
        return cls(file_id, keys, values, bloom, level=level)

    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._keys is None:
            if self._block_file is None:
                raise RuntimeError(
                    f"SSTable {self.file_id} has neither data nor a block file"
                )
            self._keys, self._values = self._block_file.read_all()

    def attach_block_file(self, block_file: BlockFile) -> None:
        """Adopt the durable block layout a flush/compaction just wrote.

        The table keeps its loaded arrays (hot reads stay in-memory);
        the block file is what a *restored* table will read lazily, and
        it makes ``num_blocks`` and cache invalidation exact now.
        """
        self._block_file = block_file

    @property
    def loaded(self) -> bool:
        return self._keys is not None

    @property
    def keys(self) -> tuple[str, ...]:
        self._ensure_loaded()
        return self._keys  # type: ignore[return-value]

    @property
    def values(self) -> tuple[Any, ...]:
        self._ensure_loaded()
        return self._values  # type: ignore[return-value]

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @property
    def num_blocks(self) -> int:
        """Durable cell blocks in this table (1 for in-memory)."""
        if self._block_file is not None:
            return self._block_file.num_blocks
        return 1 if self._num_keys else 0

    @property
    def block_file(self) -> BlockFile | None:
        return self._block_file

    def key_in_range(self, key: str) -> bool:
        return self.min_key <= key <= self.max_key

    def get(self, key: str) -> tuple[bool, Any]:
        """(found, value) via binary search; loads the table if needed."""
        keys = self.keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return True, self.values[index]
        return False, None

    def probe(self, key: str) -> ProbeResult:
        """Point-read with block-level accounting; never loads more
        than one block.

        A loaded table (memstore-fresh, or already scanned) answers
        from memory with single-block semantics — one Bloom consult
        when it has a table filter, one block searched.  A cold binary
        table binary-searches the footer's first-key index down to at
        most one candidate block, consults only *that block's* Bloom,
        and reads exactly that block (through the shared cache).
        """
        if self._keys is None and self._block_file is not None:
            return self._probe_blocks(key)
        if self.bloom is not None and not self.bloom.might_contain(key):
            return ProbeResult(False, None, 1, 0, 1, False)
        consulted = 1 if self.bloom is not None else 0
        found, value = self.get(key)
        return ProbeResult(
            found, value, consulted, 1, 0, (not found) and consulted > 0
        )

    def _probe_blocks(self, key: str) -> ProbeResult:
        block_file = self._block_file
        assert block_file is not None
        first_keys = block_file.first_keys()
        if not first_keys:
            return _ABSENT
        index = bisect.bisect_right(first_keys, key) - 1
        if index < 0:
            return _ABSENT
        if key > block_file.metas[index].last_key:
            return _ABSENT  # falls in the gap between two blocks
        if not block_file.bloom(index).might_contain(key):
            return ProbeResult(False, None, 1, 0, 1, False)
        found, value = block_file.block(index).find(key)
        if found:
            return ProbeResult(True, value, 1, 1, 0, False)
        return ProbeResult(False, None, 1, 1, 0, True)

    def items(self) -> Iterator[tuple[str, Any]]:
        self._ensure_loaded()
        return zip(self._keys, self._values)  # type: ignore[arg-type]


class LsmStore:
    """One column-family store with the HBase write path.

    Args:
        flush_threshold: memstore entries that trigger a flush.
        compaction_threshold: L0 table count that triggers a leveled
            compaction into L1.
        data_dir: directory for WAL + SSTable files + manifest; ``None``
            (default) keeps the store purely in memory.  Opening a store
            on a directory that already holds a manifest *recovers* it.
        group_commit: WAL records buffered per fsync (durable mode).
        block_size: target bytes of encoded cells per SSTable block.
        block_cache: a :class:`~repro.hbase.sstable.BlockCache` to read
            binary blocks through — pass one shared instance across
            region stores (the cluster does); ``None`` in durable mode
            creates a private cache.
        value_encoder / value_decoder: hooks mapping stored values to
            JSON-able payloads and back (regions store cell maps).
        chaos: fault injector consulted at durability boundaries
            (WAL append, flush, per-block/footer SSTable writes,
            compaction) — only in durable mode, so in-memory chaos
            schedules are byte-identical to before.
    """

    def __init__(
        self,
        flush_threshold: int = 64,
        compaction_threshold: int = 4,
        data_dir: Path | str | None = None,
        group_commit: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        block_cache: BlockCache | None = None,
        value_encoder: Callable[[Any], Any] | None = None,
        value_decoder: Callable[[Any], Any] | None = None,
        chaos: "FaultInjector | None" = None,
        registry: MetricsRegistry | None = None,
        clock: Any = None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.flush_threshold = flush_threshold
        self.compaction_threshold = compaction_threshold
        self.registry = registry
        self.chaos = chaos
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.block_size = block_size
        if block_cache is None and self.data_dir is not None:
            block_cache = BlockCache(registry=registry)
        self.block_cache = block_cache
        self._value_encoder = value_encoder
        self._value_decoder = value_decoder

        self.memstore: dict[str, Any] = {}
        #: ``levels[0]`` is the flush list (overlapping, newest last);
        #: deeper levels hold at most one non-overlapping sorted run.
        self.levels: list[list[SSTable]] = [[]]
        #: In-memory mirror of the un-flushed WAL tail (compat surface).
        self.wal: list[WalRecord] = []
        self.flushes = 0
        self.compactions = 0
        self._next_file_id = 1
        self._next_seq = 1
        self._version = 0
        self._merged_cache: tuple[int, list[str], dict[str, Any]] | None = None
        #: Live (non-tombstoned) keys; None = unknown after a restore,
        #: rebuilt lazily on first ``num_keys``/scan demand.
        self._live: set[str] | None = set()
        self._deferred = 0
        self._flush_pending = False
        #: Diagnosis of a torn/corrupt WAL tail found during recovery.
        self.recovered_tail_error: str | None = None

        replay: list[WalRecord] = []
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            replay = self._attach()
        if clock is None:
            from ..chaos.retry import VirtualClock

            clock = chaos.clock if chaos is not None else VirtualClock()
        self.clock = clock
        self.wal_log = WriteAheadLog(
            path=(self.data_dir / WAL_NAME) if self.data_dir is not None else None,
            group_commit=group_commit,
            clock=self.clock,
            registry=registry,
            value_encoder=self._encode_value,
            value_decoder=self._decode_value,
        )
        for record in replay:
            self.wal_log.records.append(record)
            self._apply(record)

    # ------------------------------------------------------------------
    # Value codec (identity unless the owner stores non-JSON values)
    # ------------------------------------------------------------------
    def _encode_value(self, value: Any) -> Any:
        return value if self._value_encoder is None else self._value_encoder(value)

    def _decode_value(self, payload: Any) -> Any:
        return payload if self._value_decoder is None else self._value_decoder(payload)

    # ------------------------------------------------------------------
    # Durable attach / manifest
    # ------------------------------------------------------------------
    def _sst_path(self, file_id: int) -> Path:
        assert self.data_dir is not None
        return self.data_dir / f"sst_{file_id:06d}.bin"

    def _attach(self) -> list[WalRecord]:
        """Recover levels + counters from the manifest (when one exists)
        and replay the WAL tail, tolerating torn/corrupt trailing bytes.
        A directory with a WAL but no manifest (crash before the first
        flush) recovers from the log alone."""
        assert self.data_dir is not None
        manifest_path = self.data_dir / MANIFEST_NAME
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            self._next_file_id = int(manifest["next_file_id"])
            self._next_seq = int(manifest["next_seq"])
            self.flushes = int(manifest["flushes"])
            self.compactions = int(manifest["compactions"])
            self.levels = []
            for level, tables in enumerate(manifest["levels"]):
                run = [
                    self._attach_table(level, entry) for entry in tables
                ]
                self.levels.append(run)
            if not self.levels:
                self.levels = [[]]
            self._live = None  # rebuilt lazily from a full merge when needed
        records, tail_error = WriteAheadLog.load(
            self.data_dir / WAL_NAME,
            repair=True,
            registry=self.registry,
            value_decoder=self._decode_value,
        )
        self.recovered_tail_error = tail_error
        if records:
            self._next_seq = max(self._next_seq, records[-1].sequence + 1)
        return records

    def _attach_table(self, level: int, entry: dict[str, Any]) -> SSTable:
        """One manifest entry → a lazy SSTable over its block file.

        The entry carries no Bloom: the per-block filters live in the
        file footer, loaded on first probe.  An entry in any other
        format (v1 entries have no ``format`` field) is rejected.
        """
        file_id = int(entry["file_id"])
        fmt = entry.get("format")
        if fmt != SSTABLE_FORMAT:
            raise CorruptSSTableError(
                f"sst_{file_id:06d} in {self.data_dir}: manifest entry has "
                f"format {fmt!r}, expected {SSTABLE_FORMAT!r} (one-JSON-blob "
                "tables are no longer read)"
            )
        return SSTable(
            file_id,
            None,
            None,
            level=level,
            min_key=entry["min_key"],
            max_key=entry["max_key"],
            num_keys=int(entry["num_keys"]),
            block_file=BlockFile(
                self._sst_path(file_id),
                value_decoder=self._decode_value,
                cache=self.block_cache,
            ),
        )

    def _commit_manifest(self) -> None:
        assert self.data_dir is not None
        levels = []
        for run in self.levels:
            levels.append(
                [
                    {
                        "file_id": table.file_id,
                        "num_keys": table.num_keys,
                        "min_key": table.min_key,
                        "max_key": table.max_key,
                        "format": SSTABLE_FORMAT,
                    }
                    for table in run
                ]
            )
        payload = {
            "version": MANIFEST_VERSION,
            "next_file_id": self._next_file_id,
            "next_seq": self._next_seq,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "levels": levels,
        }
        tmp = self.data_dir / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.data_dir / MANIFEST_NAME)

    def _write_binary_sstable(self, table: SSTable) -> None:
        """Stream the table into an ``sst_*.bin`` block file.

        Chaos fires at every block boundary (``sst-block``) and after
        the footer (``sst-footer``) — both land *before* the atomic
        ``os.replace``, so a crash at either leaves only an ignored tmp
        file and recovery replays the WAL exactly as a pre-flush crash
        would.
        """
        assert self.data_dir is not None
        path = self._sst_path(table.file_id)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            metas, blooms = write_block_file(
                handle,
                table.keys,
                table.values,
                value_encoder=self._encode_value,
                block_size=self.block_size,
                on_block=lambda: self._chaos_point("sst-block"),
                on_footer=lambda: self._chaos_point("sst-footer"),
            )
        if self.block_cache is not None:
            # A reused file_id (or a re-written path) must never serve
            # blocks cached from the file it replaces.
            self.block_cache.drop_file(str(path))
        os.replace(tmp, path)
        table.attach_block_file(
            BlockFile(
                path,
                value_decoder=self._decode_value,
                cache=self.block_cache,
                metas=metas,
                blooms=blooms,
            )
        )

    def _remove_sstable_file(self, table: SSTable) -> None:
        """Delete a replaced table's file and evict its cached blocks."""
        path = self._sst_path(table.file_id)
        if self.block_cache is not None:
            self.block_cache.drop_file(str(path))
        path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Chaos / batching
    # ------------------------------------------------------------------
    def _chaos_point(self, op: str) -> None:
        """Consult the injector at a durability boundary (durable only,
        so in-memory operation schedules stay byte-identical)."""
        if self.chaos is not None and self.data_dir is not None:
            self.chaos.on_operation(op)

    @property
    def in_deferred_scope(self) -> bool:
        """Whether a :meth:`deferred` batch scope is currently open.

        Region maintenance (splits/merges) checks this: rewriting the
        region mid-batch would tear one logical write across a topology
        swap, so the cluster queues the operation until the batch's
        fsync point instead.
        """
        return self._deferred > 0

    @contextmanager
    def deferred(self):
        """Batch scope: WAL syncs and flushes are deferred to scope exit,
        so a multi-row logical write hits its fsync point *once* — either
        every record of the batch is durable or none is."""
        self._deferred += 1
        self.wal_log.auto_sync = False
        completed = False
        try:
            yield self
            completed = True
        finally:
            self._deferred -= 1
            if self._deferred == 0:
                self.wal_log.auto_sync = True
                if completed:
                    self.wal_log.sync()
                    if self._flush_pending:
                        self._flush_pending = False
                        self.flush()
                else:
                    # The batch died before its fsync point: a real kill
                    # loses the whole unsynced buffer, so the simulated
                    # one must too — never half a logical write.
                    self._flush_pending = False
                    self.wal_log.discard_pending()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """WAL append, memstore insert, flush when full."""
        self._write("put", key, value)

    def delete(self, key: str) -> None:
        """Tombstone a key (dropped at the deepest level by compaction)."""
        self._write("delete", key, None)

    def _write(self, op: str, key: str, value: Any) -> None:
        self._chaos_point("lsm-put")
        record = WalRecord(self._next_seq, op, key, value)
        self._next_seq += 1
        self.wal_log.append(record)
        self._apply(record)
        if len(self.memstore) >= self.flush_threshold:
            if self._deferred:
                self._flush_pending = True
            else:
                self.flush()

    def _apply(self, record: WalRecord) -> None:
        """Mutate the memstore with one (already logged) record."""
        self.wal.append(record)
        if record.op == "put":
            self.memstore[record.key] = record.value
            if self._live is not None:
                self._live.add(record.key)
        else:
            self.memstore[record.key] = TOMBSTONE
            if self._live is not None:
                self._live.discard(record.key)
        self._version += 1

    def flush(self) -> None:
        """Freeze the memstore into a new L0 SSTable; truncate the WAL."""
        if not self.memstore:
            return
        self.wal_log.sync()  # an SSTable must never outrun its log
        table = SSTable.from_mapping(self._next_file_id, self.memstore, level=0)
        self._next_file_id += 1
        if self.data_dir is not None:
            self._write_binary_sstable(table)
            self._chaos_point("lsm-flush")
        self.levels[0].append(table)
        self.memstore = {}
        self.wal = []
        self.flushes += 1
        get_registry(self.registry).counter(
            "lsm_flushes_total", "memstore flushes into L0 SSTables"
        ).inc()
        if self.data_dir is not None:
            self._commit_manifest()
            self.wal_log.reset()
        if len(self.levels[0]) >= self.compaction_threshold:
            self._compact_level(0)
            self._cascade()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _level_capacity(self, level: int) -> int:
        return self.flush_threshold * (LEVEL_FANOUT ** level)

    def _level_entries(self, level: int) -> int:
        if level >= len(self.levels):
            return 0
        return sum(table.num_keys for table in self.levels[level])

    def _merge_runs(
        self, older: list[SSTable], newer: list[SSTable], drop_tombstones: bool
    ) -> dict[str, Any]:
        merged: dict[str, Any] = {}
        for table in older + newer:  # oldest first; later tables overwrite
            for key, value in table.items():
                merged[key] = value
        if drop_tombstones:
            merged = {k: v for k, v in merged.items() if v is not TOMBSTONE}
        return merged

    def _deepest_populated(self) -> int:
        for level in range(len(self.levels) - 1, -1, -1):
            if self.levels[level]:
                return level
        return 0

    def _compact_level(self, level: int) -> None:
        """Merge level *level* into the sorted run of level ``level+1``."""
        target = level + 1
        while len(self.levels) <= target:
            self.levels.append([])
        source = self.levels[level]
        sink = self.levels[target]
        if not source:
            return
        # Tombstones can be dropped once nothing older can resurrect
        # the key — i.e. the target is the deepest populated level.
        drop = self._deepest_populated() <= target
        merged = self._merge_runs(sink, source, drop_tombstones=drop)
        replaced = source + sink
        if merged:
            table = SSTable.from_mapping(self._next_file_id, merged, level=target)
            self._next_file_id += 1
            new_run = [table]
        else:
            new_run = []
        if self.data_dir is not None:
            for table in new_run:
                self._write_binary_sstable(table)
            self._chaos_point("lsm-compact")
        self.levels[level] = []
        self.levels[target] = new_run
        self.compactions += 1
        get_registry(self.registry).counter(
            "lsm_compactions_total", "leveled SSTable compactions"
        ).inc()
        if self.data_dir is not None:
            self._commit_manifest()
            for old in replaced:
                self._remove_sstable_file(old)

    def _cascade(self) -> None:
        """Push over-capacity runs deeper; the bottom level is unbounded."""
        level = 1
        while level < self._deepest_populated():
            if (
                self.levels[level]
                and self._level_entries(level) > self._level_capacity(level)
            ):
                self._compact_level(level)
            level += 1

    def compact(self, force: bool = False) -> None:
        """Force a full compaction: merge every table into one deep run.

        With ``force=True`` even a single remaining table is rewritten,
        so the store ends as exactly one deep run.
        """
        tables = [table for run in self.levels for table in run]
        if not tables:
            return
        if len(tables) <= 1 and not force:
            return
        merged = self._merge_runs([], self._tables_oldest_first(), True)
        replaced = tables
        deepest = max(1, len(self.levels) - 1)
        new_run: list[SSTable] = []
        if merged:
            table = SSTable.from_mapping(self._next_file_id, merged, level=deepest)
            self._next_file_id += 1
            new_run = [table]
        if self.data_dir is not None:
            for table in new_run:
                self._write_binary_sstable(table)
            self._chaos_point("lsm-compact")
        self.levels = [[] for __ in range(deepest)] + [new_run]
        self.compactions += 1
        get_registry(self.registry).counter(
            "lsm_compactions_total", "leveled SSTable compactions"
        ).inc()
        if self.data_dir is not None:
            self._commit_manifest()
            for old in replaced:
                self._remove_sstable_file(old)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @property
    def hfiles(self) -> list[SSTable]:
        """Every SSTable, oldest-precedence first (deepest level first,
        L0 in flush order last) — the order a merge iterates."""
        ordered: list[SSTable] = []
        for level in range(len(self.levels) - 1, 0, -1):
            ordered.extend(self.levels[level])
        ordered.extend(self.levels[0])
        return ordered

    def _tables_oldest_first(self) -> list[SSTable]:
        return self.hfiles

    def get(self, key: str) -> tuple[bool, Any, int]:
        """(found, value, blocks probed) — memstore first, then SSTables
        newest-to-oldest.  Tables whose key range, block index, or Bloom
        filter rules the key out are skipped without loading a block;
        ``probed`` counts only the blocks actually searched.  All
        counters are block-granular: a cold multi-block table consults
        one per-block Bloom and reads at most one block."""
        if key in self.memstore:
            value = self.memstore[key]
            if value is TOMBSTONE:
                return False, None, 0
            return True, value, 0
        probed = 0
        registry = get_registry(self.registry)
        for table in reversed(self.hfiles):
            if not table.key_in_range(key):
                continue
            result = table.probe(key)
            if result.consulted:
                registry.counter(
                    "bloom_probes_total", "SSTable block Bloom filters consulted"
                ).inc(result.consulted)
            if result.skipped:
                registry.counter(
                    "bloom_skipped_blocks_total",
                    "SSTable blocks skipped by a Bloom filter",
                ).inc(result.skipped)
            if result.probed:
                registry.counter(
                    "bloom_probed_blocks_total",
                    "SSTable blocks actually searched by point reads",
                ).inc(result.probed)
                probed += result.probed
            if result.found:
                if result.value is TOMBSTONE:
                    return False, None, probed
                return True, result.value, probed
            if result.false_positive:
                registry.counter(
                    "bloom_false_positives_total",
                    "Bloom filter passes that found no key in the block",
                ).inc()
        return False, None, probed

    def _merged(self) -> tuple[list[str], dict[str, Any]]:
        """(sorted live keys, live key->value map), cached per version."""
        cache = self._merged_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        merged: dict[str, Any] = {}
        for table in self._tables_oldest_first():
            for key, value in table.items():
                merged[key] = value
        merged.update(self.memstore)
        live = {k: v for k, v in merged.items() if v is not TOMBSTONE}
        keys = sorted(live)
        self._merged_cache = (self._version, keys, live)
        if self._live is None:
            self._live = set(keys)
        return keys, live

    def sorted_view(self) -> tuple[list[str], dict[str, Any]]:
        """Sorted live keys plus the merged map (for range scans)."""
        return self._merged()

    def scan(self) -> Iterator[tuple[str, Any]]:
        """Merged view of memstore + SSTables, in key order."""
        keys, live = self._merged()
        for key in keys:
            yield key, live[key]

    # ------------------------------------------------------------------
    # Recovery (in-memory semantics, kept for compatibility)
    # ------------------------------------------------------------------
    def recover(self) -> "LsmStore":
        """Crash recovery of an in-memory store: a fresh store from
        SSTables + WAL replay (the memstore is volatile).  Durable
        stores recover for real — construct ``LsmStore(data_dir=...)``
        on the surviving directory instead."""
        restored = LsmStore(
            flush_threshold=self.flush_threshold,
            compaction_threshold=self.compaction_threshold,
            value_encoder=self._value_encoder,
            value_decoder=self._value_decoder,
            registry=self.registry,
        )
        restored.levels = [list(run) for run in self.levels]
        restored._next_file_id = self._next_file_id
        restored.flushes = self.flushes
        restored.compactions = self.compactions
        restored._live = None
        for record in self.wal:
            restored._next_seq = record.sequence + 1
            restored.wal_log.records.append(record)
            restored._apply(record)
        return restored

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        if self._live is None:
            self._merged()  # rebuilds the live set as a side effect
        return len(self._live)  # type: ignore[arg-type]

    def read_amplification(self) -> int:
        """Worst-case blocks probed by a point read (the table count)."""
        return sum(len(run) for run in self.levels)

    def close(self) -> None:
        """Graceful shutdown: a buffered group-commit tail is synced
        (unlike a crash, which loses it)."""
        self.wal_log.sync()
        self.wal_log.close()

    def __repr__(self) -> str:
        shape = "/".join(str(len(run)) for run in self.levels)
        where = str(self.data_dir) if self.data_dir is not None else "memory"
        return f"LsmStore(levels={shape}, memstore={len(self.memstore)}, at={where})"
