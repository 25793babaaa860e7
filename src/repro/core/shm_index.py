"""Shared-memory publication of match-index views.

The multi-process serving backend (:mod:`repro.serving.procpool`) needs
every worker process to probe the same columnar matrices without copying
them per worker or per request.  This module is the transport: a
*publisher* owned by the writer process packs each
:class:`~repro.core.match_index.IndexView` the store's builder publishes
— every partition's matrices, masks and factorized codes, the CFG
payloads, the view's normalizer bounds, plus the full profile/static
payloads a worker needs to rebuild its local replica — into one
immutable ``multiprocessing.shared_memory`` segment per store
generation, and *clients* attach the segment as zero-copy, read-only
numpy views behind a stock :class:`~repro.core.match_index.IndexView`.
Flat and sharded views share the one layout: a flat view is simply the
one-partition case.

Generation protocol
-------------------
A small fixed-size *control segment* carries ``(sequence, generation,
data-segment name)`` behind a seqlock: the writer bumps the sequence to
odd, rewrites the payload, and bumps it back to even; readers re-read
until they observe a stable even sequence.  Data segments are immutable
once published — a new generation gets a *new* segment, never an
in-place rewrite — so the only race left is the attach itself:

- A reader that attached generation *g* keeps a valid mapping even
  after the writer unlinks *g* (POSIX unlink removes the name, not the
  live mappings), so an in-flight probe can never observe a torn view.
- A reader attaching *g* while the writer retires it sees
  ``FileNotFoundError``, re-reads the control segment, and attaches the
  newer generation; if every retry fails it keeps serving its previous
  (stale-but-consistent) view, mirroring the match index's
  stale-not-torn guarantee, and only raises
  :class:`SharedIndexUnavailableError` when it has no view at all, which
  fails the probe with that typed error.

Segment layout
--------------
``[u64 manifest length][pickled manifest][pad to 64][array bytes...]``
where the manifest lists ``(name, dtype, shape, relative offset)`` for
every column (named ``<partition>:<column>``), each 64-byte aligned, and
the non-array metadata (partition start keys, ids, vocabularies, CFG
payloads, normalizer bounds, store payloads) rides as one pickled
``__meta__`` pseudo-array.

Lifecycle accounting
--------------------
The publisher tracks every segment it created and unlinks all of them
on :meth:`SharedIndexPublisher.close`; ``shm_index_segments_active``
must read 0 afterwards and re-attaching any retired name must raise
``FileNotFoundError`` — ``tests/test_shm_index.py`` holds the leak
proof.  Clients in *other* processes unregister their attachments from
their local ``resource_tracker`` (the owner unlinks, not them), which
keeps worker shutdown free of spurious leaked-segment warnings.
"""

from __future__ import annotations

import os
import pickle
import struct
import uuid
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from ..observability import MetricsRegistry, get_registry
from .match_index import IndexView

if TYPE_CHECKING:
    from .store import ProfileStore

__all__ = [
    "SharedIndexError",
    "SharedIndexUnavailableError",
    "SharedIndexPublisher",
    "SharedIndexClient",
]

_ALIGN = 64
_CTRL_SIZE = 1024
_CTRL_HEADER = struct.Struct("<QQQ")  # sequence, generation, name length


class SharedIndexError(RuntimeError):
    """Base class for shared-memory index transport failures."""


class SharedIndexUnavailableError(SharedIndexError):
    """No generation is attachable and no prior view exists."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_segment(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize named arrays into the segment layout described above."""
    manifest: list[tuple[str, str, tuple[int, ...], int]] = []
    offset = 0
    blobs: list[bytes] = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        offset = _align(offset)
        manifest.append((name, arr.dtype.str, tuple(arr.shape), offset))
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    manifest_blob = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
    data_start = _align(8 + len(manifest_blob))
    total = data_start + offset
    buffer = bytearray(total)
    struct.pack_into("<Q", buffer, 0, len(manifest_blob))
    buffer[8:8 + len(manifest_blob)] = manifest_blob
    position = 0
    for (name, dtype, shape, rel_offset), blob in zip(manifest, blobs):
        start = data_start + rel_offset
        buffer[start:start + len(blob)] = blob
        position = rel_offset + len(blob)
    return bytes(buffer)


def _unpack_segment(shm: shared_memory.SharedMemory) -> dict[str, np.ndarray]:
    """Zero-copy, read-only numpy views over one attached segment."""
    (manifest_len,) = struct.unpack_from("<Q", shm.buf, 0)
    manifest = pickle.loads(bytes(shm.buf[8:8 + manifest_len]))
    data_start = _align(8 + manifest_len)
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape, rel_offset in manifest:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(
            shm.buf, dtype=np.dtype(dtype), count=count,
            offset=data_start + rel_offset,
        ).reshape(shape)
        arr.flags.writeable = False
        arrays[name] = arr
    return arrays


def _silent_close(shm: shared_memory.SharedMemory) -> None:
    """Unmap an attached segment without ever raising or warning.

    If live numpy views still pin the buffer, ``mmap.close()`` raises
    ``BufferError`` — and would raise again, noisily, from the stdlib
    ``__del__`` at interpreter shutdown.  Disarm the handle instead: the
    pinned mapping stays referenced by the views themselves and is
    unmapped by refcounting when the last one dies, so nothing leaks
    and shutdown stays quiet.
    """
    try:
        shm.close()
    except BufferError:
        try:
            shm._buf = None
            shm._mmap = None
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
        except (AttributeError, OSError):  # pragma: no cover - stdlib drift
            pass


class _Attached:
    """One attached generation: the view plus the mapping keeping it alive."""

    def __init__(
        self, shm: shared_memory.SharedMemory, generation: int,
        view: IndexView, meta: dict[str, Any],
    ) -> None:
        self.shm = shm
        self.generation = generation
        self.view: IndexView | None = view
        self.meta = meta

    def close(self) -> None:
        self.view = None
        self.meta = {}
        _silent_close(self.shm)


def _attach_segment(
    name: str, unregister: bool
) -> tuple[shared_memory.SharedMemory, dict[str, Any], IndexView]:
    """Attach one published generation by its segment name.

    A ``FileNotFoundError`` (the writer retired the generation between
    the control read and the attach) propagates, so the caller's retry
    loop sees one clean name race.
    """
    shm = shared_memory.SharedMemory(name=name)
    if unregister:
        # This process is a reader, not the owner: the writer's unlink is
        # authoritative, so drop the attach-time registration our local
        # resource tracker made (otherwise worker shutdown logs phantom
        # "leaked shared_memory" warnings for segments the writer owns).
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except (KeyError, AttributeError):  # pragma: no cover - tracker quirk
            pass
    try:
        arrays = _unpack_segment(shm)
        meta = pickle.loads(arrays.pop("__meta__").tobytes())
        view = IndexView.from_parts(meta["view"], arrays)
    except Exception:
        _silent_close(shm)
        raise
    return shm, meta, view


class SharedIndexPublisher:
    """Writer-side owner of the control segment and every data segment.

    One publisher per serving writer.  ``publish()`` snapshots the
    store's match index at its current generation, packs it (plus the
    profile/static payloads for worker replicas) into a fresh immutable
    segment, flips the control record, and unlinks segments older than
    ``keep_generations`` — attached readers keep their mappings; only
    new attaches move forward.
    """

    def __init__(
        self,
        store: "ProfileStore",
        registry: MetricsRegistry | None = None,
        prefix: str | None = None,
        keep_generations: int = 2,
    ) -> None:
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self._store = store
        self.registry = registry
        self._prefix = prefix or f"psm{os.getpid():x}{uuid.uuid4().hex[:6]}"
        self._keep = keep_generations
        #: generation -> its data segment, oldest first.
        self._live: dict[int, shared_memory.SharedMemory] = {}
        self._published = -1
        self._closed = False
        self._ctrl = shared_memory.SharedMemory(
            name=f"{self._prefix}c", create=True, size=_CTRL_SIZE
        )
        _CTRL_HEADER.pack_into(self._ctrl.buf, 0, 0, 0, 0)

    # ------------------------------------------------------------------
    @property
    def ctrl_name(self) -> str:
        """The control-segment name workers attach first."""
        return self._ctrl.name

    @property
    def published_generation(self) -> int:
        """Latest generation flipped into the control record (-1 = none)."""
        return self._published

    def segment_names(self) -> list[str]:
        """Every data-segment name currently owned (for leak accounting)."""
        return [self._live[gen].name for gen in sorted(self._live)]

    def _segments_active(self) -> None:
        get_registry(self.registry).gauge(
            "shm_index_segments_active",
            "data segments currently owned (not yet unlinked)",
        ).set(float(len(self._live)))

    # ------------------------------------------------------------------
    def publish(self) -> int:
        """Publish the store's current generation; returns it.

        No-ops when the store has not advanced past the published
        generation.  Raises whatever publishing the view raises (behind
        ``ResilientProfileStore``, once its retries are spent) — a publish
        during a store outage fails loudly and the control record keeps
        naming the previous good generation.
        """
        if self._closed:
            raise SharedIndexError("publisher is closed")
        view = self._store.index_view()
        generation = view.generation
        if generation == self._published:
            return generation
        meta = {
            "view": view.export_meta(),
            "profiles": {
                job_id: profile.to_dict()
                for job_id, profile in self._store.bulk_profiles().items()
            },
            "statics": {
                job_id: static.to_dict()
                for job_id, static in self._store.bulk_statics().items()
            },
        }
        arrays = view.export_arrays()
        arrays["__meta__"] = np.frombuffer(
            pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
        )
        payload = _pack_segment(arrays)
        segment = shared_memory.SharedMemory(
            name=f"{self._prefix}g{generation}",
            create=True,
            size=max(len(payload), 1),
        )
        segment.buf[: len(payload)] = payload
        self._live[generation] = segment
        self._published = generation
        self._flip_ctrl(generation, segment.name)
        self._retire(keep_floor=generation)
        registry = get_registry(self.registry)
        registry.counter(
            "shm_index_publishes_total",
            "match-index generations published to shared memory",
        ).inc()
        registry.gauge(
            "shm_index_published_generation",
            "latest store generation visible in the control segment",
        ).set(float(generation))
        registry.gauge(
            "shm_index_segment_bytes",
            "size of the most recently published data segment",
        ).set(float(len(payload)))
        self._segments_active()
        return generation

    def _flip_ctrl(self, generation: int, name: str) -> None:
        encoded = name.encode("utf-8")
        if _CTRL_HEADER.size + len(encoded) > _CTRL_SIZE:
            raise SharedIndexError(f"segment name too long: {name!r}")
        (sequence, __, __) = _CTRL_HEADER.unpack_from(self._ctrl.buf, 0)
        # Seqlock: odd = mid-write.  Readers spin until even and stable.
        struct.pack_into("<Q", self._ctrl.buf, 0, sequence + 1)
        struct.pack_into("<QQ", self._ctrl.buf, 8, generation, len(encoded))
        self._ctrl.buf[_CTRL_HEADER.size:_CTRL_HEADER.size + len(encoded)] = encoded
        struct.pack_into("<Q", self._ctrl.buf, 0, sequence + 2)

    def _unlink(self, generation: int) -> None:
        segment = self._live.pop(generation)
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            # Already gone (e.g. an external cleanup raced us); the
            # caller must still release everything else.
            pass
        get_registry(self.registry).counter(
            "shm_index_segments_unlinked_total",
            "retired data segments unlinked by the publisher",
        ).inc()

    def _retire(self, keep_floor: int) -> None:
        generations = sorted(self._live)
        for gen in generations[:-self._keep]:
            if gen < keep_floor:
                self._unlink(gen)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink the control segment and every owned data segment."""
        if self._closed:
            return
        self._closed = True
        for gen in sorted(self._live):
            self._unlink(gen)
        self._segments_active()
        self._ctrl.close()
        try:
            self._ctrl.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedIndexPublisher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SharedIndexClient:
    """Reader-side attachment manager for one publisher's generations.

    ``view()`` returns the freshest attachable
    :class:`~repro.core.match_index.IndexView`: it re-reads the control
    segment, remaps when the generation moved, retries attach races (the
    writer may retire a name between the control read and the attach),
    and falls back to the previously attached view when nothing newer is
    attachable — stale-but-consistent, never torn.
    """

    def __init__(
        self,
        ctrl_name: str,
        registry: MetricsRegistry | None = None,
        attach_retries: int = 3,
        unregister: bool = False,
    ) -> None:
        self.registry = registry
        self._retries = max(1, attach_retries)
        #: Spawned readers run their own resource tracker, which must not
        #: adopt the writer's segments (the writer unlinks, not them).
        #: Forked readers share the parent's tracker and must leave its
        #: registrations alone.  procpool passes the right flag per
        #: start method; in-process clients keep the default.
        self._unregister = unregister
        self._attached: _Attached | None = None
        try:
            self._ctrl = shared_memory.SharedMemory(name=ctrl_name)
        except FileNotFoundError as error:
            raise SharedIndexUnavailableError(
                f"no control segment {ctrl_name!r}"
            ) from error
        if self._unregister:
            try:
                resource_tracker.unregister(self._ctrl._name, "shared_memory")
            except (KeyError, AttributeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    def _read_ctrl(self) -> tuple[int, str]:
        for __ in range(1024):
            sequence, generation, name_len = _CTRL_HEADER.unpack_from(
                self._ctrl.buf, 0
            )
            if sequence % 2:
                continue
            name = bytes(
                self._ctrl.buf[_CTRL_HEADER.size:_CTRL_HEADER.size + name_len]
            ).decode("utf-8")
            (stable,) = struct.unpack_from("<Q", self._ctrl.buf, 0)
            if stable == sequence:
                if sequence == 0:
                    raise SharedIndexUnavailableError(
                        "publisher has not published any generation yet"
                    )
                return int(generation), name
        raise SharedIndexUnavailableError("control segment never stabilized")

    @property
    def attached_generation(self) -> int:
        """Generation of the currently attached view (-1 = none)."""
        return -1 if self._attached is None else self._attached.generation

    def view(self) -> IndexView:
        """The freshest attachable view (see class docstring)."""
        registry = get_registry(self.registry)
        generation, name = self._read_ctrl()
        if self._attached is not None and self._attached.generation == generation:
            return self._attached.view
        last_error: Exception | None = None
        for attempt in range(self._retries):
            try:
                shm, meta, attached = _attach_segment(name, self._unregister)
            except FileNotFoundError as error:
                last_error = error
                registry.counter(
                    "shm_index_attach_retries_total",
                    "segment attaches retried after losing a name race",
                ).inc()
                generation, name = self._read_ctrl()
                continue
            previous = self._attached
            self._attached = _Attached(shm, generation, attached, meta)
            if previous is not None:
                previous.close()
            registry.counter(
                "shm_index_attaches_total",
                "data-segment attaches completed by readers",
            ).inc()
            registry.gauge(
                "shm_index_generation_lag",
                "control-record generation minus the attached generation",
            ).set(0.0)
            return attached
        if self._attached is not None:
            registry.counter(
                "shm_index_stale_views_total",
                "probes served from a stale view after attach failures",
            ).inc()
            registry.gauge(
                "shm_index_generation_lag",
                "control-record generation minus the attached generation",
            ).set(float(generation - self._attached.generation))
            return self._attached.view
        raise SharedIndexUnavailableError(
            f"could not attach any generation of {name!r}"
        ) from last_error

    def meta(self) -> dict[str, Any]:
        """The attached generation's metadata blob (profiles, statics)."""
        if self._attached is None:
            self.view()
        assert self._attached is not None
        return self._attached.meta

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap everything this client attached (never unlinks)."""
        if self._attached is not None:
            self._attached.close()
            self._attached = None
        _silent_close(self._ctrl)

    def __enter__(self) -> "SharedIndexClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
