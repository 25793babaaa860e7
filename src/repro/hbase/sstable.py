"""Binary block-sharded SSTable files: framed blocks, footer index, cache.

This is the one durable SSTable format.  A one-JSON-blob table would
make a cold point read parse the *entire* table on first touch; this
module is the real-LSM answer (the Bigtable/HBase file shape): an
``sst_*.bin`` file is a sequence of length+CRC32-framed **cell
blocks** (target ``block_size`` bytes of encoded cells each, same frame
layout as the WAL — see :mod:`repro.hbase.wal`), followed by a framed
JSON **footer** carrying a first-key block index and one serialized
Bloom filter *per block*, and a fixed 16-byte trailer locating the
footer::

    +---------+---------+     +---------+----------+-----------------+
    | block 0 | block 1 | ... | block N | footer   | trailer         |
    | frame   | frame   |     | frame   | frame    | u64 off | magic |
    +---------+---------+     +---------+----------+-----------------+

Each cell inside a block payload is ``u32 key_len | key utf-8 | u8 tag
| u32 value_len | value`` with tag 0 marking a tombstone (empty value)
and tag 1 a JSON-encoded value.  A point read loads the footer once,
binary-searches the first-key index to the single candidate block,
consults only that block's Bloom filter, ``seek``+reads exactly one
frame and decodes only the cell it returns — through a
capacity-bounded LRU :class:`BlockCache` shared across every table of
a cluster.

Corruption anywhere — torn block, torn footer, flipped bit — fails the
frame CRC or the trailer checks and surfaces as a typed
:class:`~repro.hbase.errors.CorruptSSTableError`, never as garbage
bytes returned as data.
"""

from __future__ import annotations

import bisect
import json
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable

from ..observability import MetricsRegistry, get_registry
from .bloom import BloomFilter
from .errors import CorruptSSTableError
from .wal import HEADER_SIZE, decode_frame, encode_frame

__all__ = [
    "MAGIC",
    "TRAILER_SIZE",
    "DEFAULT_BLOCK_SIZE",
    "BLOOM_FPR",
    "BLOOM_SEED",
    "BlockMeta",
    "BlockFile",
    "BlockCache",
    "write_block_file",
    "read_footer",
]

#: File magic in the trailer; bump the suffix on incompatible changes.
MAGIC = b"PSTSSTB1"

#: ``(footer_offset: u64, magic: 8 bytes)`` — fixed-size, always last.
_TRAILER = struct.Struct(">Q8s")
TRAILER_SIZE = _TRAILER.size

_KEY_LEN = struct.Struct(">I")
_TAG_VALUE_LEN = struct.Struct(">BI")

#: Target bytes of encoded cells per block (a block never splits a
#: cell, so one oversized cell makes one oversized block).
DEFAULT_BLOCK_SIZE = 4096

#: Bloom filter target false-positive rate and hash seed (per block on
#: disk; :class:`~repro.hbase.storage.SSTable` uses them per in-memory
#: table too).
BLOOM_FPR = 0.01
BLOOM_SEED = 0

#: Default capacity of a shared :class:`BlockCache`.
DEFAULT_CACHE_BYTES = 8 * 1024 * 1024

FOOTER_VERSION = 1

_TAG_TOMBSTONE = 0
_TAG_VALUE = 1

#: Module-level tombstone sentinel (``repro.hbase.storage`` re-exports
#: it as ``TOMBSTONE``; defined here so the codec has no import cycle).


class _Tombstone:
    """Sentinel marking a deleted key until compaction drops it."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOMBSTONE"


TOMBSTONE = _Tombstone()


@dataclass(frozen=True)
class BlockMeta:
    """Footer index entry for one cell block."""

    first_key: str
    last_key: str
    offset: int
    length: int
    count: int


# ----------------------------------------------------------------------
# Cell codec
# ----------------------------------------------------------------------
def _encode_cell(key: str, value: Any, value_encoder) -> bytes:
    key_bytes = key.encode("utf-8")
    if value is TOMBSTONE:
        tag, payload = _TAG_TOMBSTONE, b""
    else:
        if value_encoder is not None:
            value = value_encoder(value)
        tag = _TAG_VALUE
        payload = json.dumps(value, separators=(",", ":")).encode("utf-8")
    return b"".join(
        (
            _KEY_LEN.pack(len(key_bytes)),
            key_bytes,
            _TAG_VALUE_LEN.pack(tag, len(payload)),
            payload,
        )
    )


class _Encoded(bytes):
    """A block cell's JSON bytes, not decoded yet (private, so no
    decoded value is ever one)."""

    __slots__ = ()


def _parse_cells(
    data: bytes, context: str
) -> tuple[tuple[str, ...], list[Any]]:
    """Split one block payload into keys and cells (``TOMBSTONE`` or the
    value's :class:`_Encoded` bytes); every framing malformation is typed."""
    keys: list[str] = []
    cells: list[Any] = []
    view = memoryview(data)
    offset = 0
    total = len(data)
    try:
        while offset < total:
            (key_len,) = _KEY_LEN.unpack_from(data, offset)
            offset += _KEY_LEN.size
            if offset + key_len > total:
                raise ValueError("short key bytes")
            key = data[offset : offset + key_len].decode("utf-8")
            offset += key_len
            tag, value_len = _TAG_VALUE_LEN.unpack_from(data, offset)
            offset += _TAG_VALUE_LEN.size
            if offset + value_len > total:
                raise ValueError("short value bytes")
            if tag == _TAG_TOMBSTONE:
                cells.append(TOMBSTONE)
            elif tag == _TAG_VALUE:
                cells.append(_Encoded(view[offset : offset + value_len]))
            else:
                raise ValueError(f"unknown cell tag {tag}")
            offset += value_len
            keys.append(key)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise CorruptSSTableError(f"malformed cell in {context}: {exc}") from exc
    return tuple(keys), cells


class _Block:
    """One block's cells: keys parsed on load, each value decoded from
    its JSON bytes on first read and kept in their place — a point read
    decodes the one cell it returns, not every cell of the block.
    Cached blocks are shared across threads; a racing first read may
    decode a cell twice, and either copy is the same value.
    """

    __slots__ = ("keys", "_cells", "_value_decoder", "_context")

    def __init__(
        self, data: bytes, value_decoder: Callable[[Any], Any] | None, context: str
    ) -> None:
        self.keys, self._cells = _parse_cells(data, context)
        self._value_decoder = value_decoder
        self._context = context

    def value(self, position: int) -> Any:
        value = self._cells[position]
        if isinstance(value, _Encoded):
            try:
                value = json.loads(value.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise CorruptSSTableError(
                    f"malformed cell in {self._context}: {exc}"
                ) from exc
            if self._value_decoder is not None:
                value = self._value_decoder(value)
            self._cells[position] = value
        return value

    def values(self) -> tuple[Any, ...]:
        return tuple(self.value(position) for position in range(len(self.keys)))

    def find(self, key: str) -> tuple[bool, Any]:
        """(found, value) by binary search, decoding only *key*'s cell."""
        position = bisect.bisect_left(self.keys, key)
        if position < len(self.keys) and self.keys[position] == key:
            return True, self.value(position)
        return False, None


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_block_file(
    handle: BinaryIO,
    keys: tuple[str, ...],
    values: tuple[Any, ...],
    value_encoder: Callable[[Any], Any] | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    on_block: Callable[[], None] | None = None,
    on_footer: Callable[[], None] | None = None,
) -> tuple[list[BlockMeta], list[BloomFilter]]:
    """Stream one sorted run into *handle* as framed blocks + footer.

    *on_block* / *on_footer* fire after each block frame and after the
    footer frame respectively — the chaos crash points.  The caller owns
    atomicity (write to a tmp file, then ``os.replace``), so a crash at
    either boundary leaves only an ignored partial tmp file behind.

    Returns the block index and the per-block Bloom filters, so a
    freshly flushed table can serve point reads without re-reading its
    own footer.
    """
    metas: list[BlockMeta] = []
    blooms: list[BloomFilter] = []
    offset = 0

    def flush_block(block_keys: list[str], cells: list[bytes]) -> None:
        nonlocal offset
        frame = encode_frame(b"".join(cells))
        handle.write(frame)
        bloom = BloomFilter(
            capacity=max(1, len(block_keys)),
            target_fpr=BLOOM_FPR,
            seed=BLOOM_SEED,
        )
        for key in block_keys:
            bloom.add(key)
        metas.append(
            BlockMeta(
                first_key=block_keys[0],
                last_key=block_keys[-1],
                offset=offset,
                length=len(frame),
                count=len(block_keys),
            )
        )
        blooms.append(bloom)
        offset += len(frame)
        if on_block is not None:
            on_block()

    block_keys: list[str] = []
    cells: list[bytes] = []
    block_bytes = 0
    for key, value in zip(keys, values):
        cell = _encode_cell(key, value, value_encoder)
        block_keys.append(key)
        cells.append(cell)
        block_bytes += len(cell)
        if block_bytes >= block_size:
            flush_block(block_keys, cells)
            block_keys, cells, block_bytes = [], [], 0
    if block_keys:
        flush_block(block_keys, cells)

    footer = {
        "version": FOOTER_VERSION,
        "num_keys": len(keys),
        "blocks": [
            {
                "first": meta.first_key,
                "last": meta.last_key,
                "offset": meta.offset,
                "length": meta.length,
                "count": meta.count,
                "bloom": bloom.to_dict(),
            }
            for meta, bloom in zip(metas, blooms)
        ],
    }
    footer_frame = encode_frame(
        json.dumps(footer, separators=(",", ":")).encode("utf-8")
    )
    handle.write(footer_frame)
    if on_footer is not None:
        on_footer()
    handle.write(_TRAILER.pack(offset, MAGIC))
    return metas, blooms


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def read_footer(
    path: Path,
) -> tuple[list[BlockMeta], list[BloomFilter], int]:
    """Load a block file's index: trailer → footer frame → metas/blooms.

    Raises:
        CorruptSSTableError: the trailer, footer frame, or footer shape
            is torn or corrupt.  Total over arbitrary bytes.
    """
    name = path.name
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < TRAILER_SIZE + HEADER_SIZE:
                raise CorruptSSTableError(f"{name}: file too short for a trailer")
            handle.seek(size - TRAILER_SIZE)
            footer_offset, magic = _TRAILER.unpack(handle.read(TRAILER_SIZE))
            if magic != MAGIC:
                raise CorruptSSTableError(f"{name}: bad magic {magic!r}")
            if footer_offset > size - TRAILER_SIZE - HEADER_SIZE:
                raise CorruptSSTableError(
                    f"{name}: footer offset {footer_offset} out of bounds"
                )
            handle.seek(footer_offset)
            footer_bytes = handle.read(size - TRAILER_SIZE - footer_offset)
    except OSError as exc:
        raise CorruptSSTableError(f"{name}: unreadable ({exc})") from exc
    payload, diagnosis = decode_frame(footer_bytes)
    if payload is None:
        raise CorruptSSTableError(f"{name}: footer {diagnosis}")
    try:
        footer = json.loads(payload.decode("utf-8"))
        metas = [
            BlockMeta(
                first_key=entry["first"],
                last_key=entry["last"],
                offset=int(entry["offset"]),
                length=int(entry["length"]),
                count=int(entry["count"]),
            )
            for entry in footer["blocks"]
        ]
        blooms = [
            BloomFilter.from_dict(entry["bloom"]) for entry in footer["blocks"]
        ]
        num_keys = int(footer["num_keys"])
    except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise CorruptSSTableError(f"{name}: malformed footer: {exc}") from exc
    for meta in metas:
        if meta.offset + meta.length > footer_offset:
            raise CorruptSSTableError(
                f"{name}: block at {meta.offset} overruns the footer"
            )
    return metas, blooms, num_keys


class BlockCache:
    """A thread-safe, byte-capacity-bounded LRU cache of parsed blocks.

    One instance is shared across every SSTable of a cluster (all
    region stores), keyed ``(file token, block offset)``.  An entry
    holds each cell's JSON bytes until a read decodes it in place.
    Capacity is charged at each block's on-disk frame length — a
    stable, cheap proxy for its footprint.  ``drop_file`` invalidates
    every block of one file; compaction calls it before deleting or atomically
    replacing an SSTable so a reused path can never alias stale blocks.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.registry = registry
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int], tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _counter(self, name: str, description: str):
        return get_registry(self.registry).counter(name, description)

    def get(self, token: str, offset: int) -> Any | None:
        with self._lock:
            entry = self._entries.get((token, offset))
            if entry is not None:
                self._entries.move_to_end((token, offset))
                self.hits += 1
            else:
                self.misses += 1
        if entry is None:
            self._counter(
                "sstable_block_cache_misses_total", "block-cache lookups that missed"
            ).inc()
            return None
        self._counter(
            "sstable_block_cache_hits_total", "block-cache lookups served hot"
        ).inc()
        return entry[0]

    def put(self, token: str, offset: int, value: Any, nbytes: int) -> None:
        evicted = 0
        with self._lock:
            key = (token, offset)
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                __, (___, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                evicted += 1
            gauge_bytes = self._bytes
            self.evictions += evicted
        if evicted:
            self._counter(
                "sstable_block_cache_evictions_total",
                "blocks evicted by the LRU capacity bound",
            ).inc(evicted)
        get_registry(self.registry).gauge(
            "sstable_block_cache_bytes", "bytes currently held by the block cache"
        ).set(float(gauge_bytes))

    def drop_file(self, token: str) -> int:
        """Invalidate every cached block of one file; returns blocks dropped."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == token]
            for key in doomed:
                __, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
            gauge_bytes = self._bytes
        if doomed:
            get_registry(self.registry).gauge(
                "sstable_block_cache_bytes",
                "bytes currently held by the block cache",
            ).set(float(gauge_bytes))
        return len(doomed)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int | float]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }


class BlockFile:
    """Lazy reader over one binary SSTable file.

    The footer (index + per-block Blooms) loads on first demand and is
    the only whole-file-ish read a point read ever pays — and it is
    index-sized, not data-sized.  Individual blocks load through the
    shared :class:`BlockCache` (when one is attached) with CRC
    verification on every miss.
    """

    __slots__ = (
        "path",
        "_value_decoder",
        "_cache",
        "_metas",
        "_blooms",
        "_first_keys",
        "_num_keys",
    )

    def __init__(
        self,
        path: Path,
        value_decoder: Callable[[Any], Any] | None = None,
        cache: BlockCache | None = None,
        metas: list[BlockMeta] | None = None,
        blooms: list[BloomFilter] | None = None,
    ) -> None:
        self.path = Path(path)
        self._value_decoder = value_decoder
        self._cache = cache
        self._metas = metas
        self._blooms = blooms
        self._first_keys: list[str] | None = None
        self._num_keys: int | None = None

    # ------------------------------------------------------------------
    @property
    def token(self) -> str:
        """Cache key namespace for this file."""
        return str(self.path)

    def _ensure_index(self) -> None:
        if self._metas is None or self._blooms is None:
            self._metas, self._blooms, self._num_keys = read_footer(self.path)

    @property
    def metas(self) -> list[BlockMeta]:
        self._ensure_index()
        return self._metas  # type: ignore[return-value]

    @property
    def num_blocks(self) -> int:
        return len(self.metas)

    def bloom(self, index: int) -> BloomFilter:
        self._ensure_index()
        return self._blooms[index]  # type: ignore[index]

    def first_keys(self) -> list[str]:
        if self._first_keys is None:
            self._first_keys = [meta.first_key for meta in self.metas]
        return self._first_keys

    # ------------------------------------------------------------------
    def _read_frame(self, handle: BinaryIO, meta: BlockMeta, index: int) -> _Block:
        handle.seek(meta.offset)
        data = handle.read(meta.length)
        payload, diagnosis = decode_frame(data)
        if payload is None:
            raise CorruptSSTableError(
                f"{self.path.name}: block {index} {diagnosis}"
            )
        return _Block(
            payload, self._value_decoder, f"{self.path.name} block {index}"
        )

    def block(self, index: int) -> _Block:
        """One block — cache first, then disk + CRC.  Values decode on
        first read of each cell (:meth:`_Block.find` / :meth:`_Block.value`)."""
        meta = self.metas[index]
        if self._cache is not None:
            cached = self._cache.get(self.token, meta.offset)
            if cached is not None:
                return cached
        try:
            with open(self.path, "rb") as handle:
                entry = self._read_frame(handle, meta, index)
        except OSError as exc:
            raise CorruptSSTableError(
                f"{self.path.name}: unreadable block {index} ({exc})"
            ) from exc
        if self._cache is not None:
            self._cache.put(self.token, meta.offset, entry, meta.length)
        return entry

    def read_block(self, index: int) -> tuple[tuple[str, ...], tuple[Any, ...]]:
        """One block's ``(keys, values)``, every value decoded."""
        block = self.block(index)
        return block.keys, block.values()

    def read_all(self) -> tuple[tuple[str, ...], tuple[Any, ...]]:
        """Every cell in key order (scans, compaction) — one file pass,
        CRC-verified per block, deliberately *not* routed through the
        cache so a full scan cannot evict the point-read working set."""
        keys: list[str] = []
        values: list[Any] = []
        try:
            with open(self.path, "rb") as handle:
                for index, meta in enumerate(self.metas):
                    block = self._read_frame(handle, meta, index)
                    keys.extend(block.keys)
                    values.extend(block.values())
        except OSError as exc:
            raise CorruptSSTableError(
                f"{self.path.name}: unreadable ({exc})"
            ) from exc
        return tuple(keys), tuple(values)
