"""The PStorM profile store (Chapter 5).

Implements the Table 5.1 data model on the HBase substrate: one table, one
column family, and row keys prefixed by *feature type* —

====================  =======================================================
``Dynamic/<job id>``  the six Table 4.1 selectivities plus per-side cost
                      factors and the tie-break input size
``Static/<job id>``   the Table 4.3 categorical features and both CFGs
``Profile/<job id>``  the serialized Starfish profile handed to the CBO
====================  =======================================================

The prefix scheme keeps each feature type contiguous in the row space, so
the matcher's per-stage scans touch one key range each (the §5.1 locality
argument), and new feature types are new prefixes, not new column families
(the extensibility argument).  The matcher's three filters are implemented
as custom HBase filters, registered with the substrate so they execute on
the region servers (§5.3 pushdown).
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping

if TYPE_CHECKING:
    from ..chaos import FaultInjector
    from .match_index import IndexView, MatchIndex

from ..analysis.cfg import ControlFlowGraph
from ..analysis.cfg_match import cfg_match
from ..analysis.static_features import StaticFeatures
from ..hbase import (
    Filter,
    FilterList,
    HBaseCluster,
    PrefixFilter,
    TableExistsError,
    register_filter,
)
from ..observability import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from ..starfish.profile import (
    MAP_COST_FEATURES,
    MAP_DATA_FLOW_FEATURES,
    REDUCE_COST_FEATURES,
    REDUCE_DATA_FLOW_FEATURES,
    JobProfile,
)
from .similarity import MinMaxNormalizer, jaccard_index

__all__ = [
    "ProfileStore",
    "DYNAMIC_PREFIX",
    "STATIC_PREFIX",
    "PROFILE_PREFIX",
    "NormalizedEuclideanFilter",
    "CfgEqualityFilter",
    "JaccardThresholdFilter",
    "RowKeySetFilter",
]

DYNAMIC_PREFIX = "Dynamic/"
#: Exclusive upper bound of the Dynamic key range ("Dynamic0": '0' is
#: the character after '/'); region ranges clip against it to find
#: which regions hold Dynamic rows.
DYNAMIC_STOP = DYNAMIC_PREFIX[:-1] + chr(ord(DYNAMIC_PREFIX[-1]) + 1)
STATIC_PREFIX = "Static/"
PROFILE_PREFIX = "Profile/"
_META_ROW = "Meta/__normalizers__"

TABLE_NAME = "Jobs"
#: Rows per chunk of a multi-row scan (``HTable.scan(..., batch=N)``).
SCAN_BATCH = 64
FAMILY = "f"

#: Column names of the per-side flow and cost vectors in Dynamic rows.
MAP_FLOW_COLUMNS = tuple(MAP_DATA_FLOW_FEATURES)
RED_FLOW_COLUMNS = tuple(REDUCE_DATA_FLOW_FEATURES)
MAP_COST_COLUMNS = tuple(f"MCOST_{name}" for name in MAP_COST_FEATURES)
RED_COST_COLUMNS = tuple(f"RCOST_{name}" for name in REDUCE_COST_FEATURES)


def _columns_for(side: str, kind: str) -> tuple[str, ...]:
    table = {
        ("map", "flow"): MAP_FLOW_COLUMNS,
        ("map", "cost"): MAP_COST_COLUMNS,
        ("reduce", "flow"): RED_FLOW_COLUMNS,
        ("reduce", "cost"): RED_COST_COLUMNS,
    }
    return table[(side, kind)]


# ----------------------------------------------------------------------
# Custom pushdown filters (the matcher's stages, server-side)
# ----------------------------------------------------------------------
@register_filter
class NormalizedEuclideanFilter(Filter):
    """Pass rows whose selected columns lie within a normalized Euclidean
    ball around a probe vector.

    The min/max bounds ship *inside* the filter, so the region server can
    normalize candidate values without a round trip — the same deployment
    shape as a real HBase custom filter.
    """

    filter_type: ClassVar[str] = "pstorm-euclidean"

    def __init__(
        self,
        columns: list[str],
        probe: list[float],
        minimums: list[float],
        maximums: list[float],
        threshold: float,
    ) -> None:
        if not (len(columns) == len(probe) == len(minimums) == len(maximums)):
            raise ValueError("columns/probe/bounds must align")
        self.columns = list(columns)
        self.probe = [float(v) for v in probe]
        self.minimums = [float(v) for v in minimums]
        self.maximums = [float(v) for v in maximums]
        self.threshold = float(threshold)

    def _normalize(self, index: int, value: float) -> float:
        span = self.maximums[index] - self.minimums[index]
        if span <= 0:
            return 0.0
        return min(1.0, max(0.0, (value - self.minimums[index]) / span))

    def matches(self, row_key: str, row) -> bool:
        columns = row.get(FAMILY, {})
        total = 0.0
        for index, name in enumerate(self.columns):
            if name not in columns:
                return False
            candidate = self._normalize(index, float(columns[name]))
            probe = self._normalize(index, self.probe[index])
            total += (candidate - probe) ** 2
        return math.sqrt(total) <= self.threshold

    def to_dict(self) -> dict[str, Any]:
        return {
            "columns": self.columns,
            "probe": self.probe,
            "minimums": self.minimums,
            "maximums": self.maximums,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NormalizedEuclideanFilter":
        return cls(
            columns=payload["columns"],
            probe=payload["probe"],
            minimums=payload["minimums"],
            maximums=payload["maximums"],
            threshold=payload["threshold"],
        )


@register_filter
class CfgEqualityFilter(Filter):
    """Pass Static rows whose stored CFG matches the probe CFG (0/1)."""

    filter_type: ClassVar[str] = "pstorm-cfg"

    def __init__(self, column: str, probe_cfg: Mapping[str, Any]) -> None:
        self.column = column
        self.probe_cfg = dict(probe_cfg)
        self._probe = ControlFlowGraph.from_dict(probe_cfg)

    def matches(self, row_key: str, row) -> bool:
        payload = row.get(FAMILY, {}).get(self.column)
        if not payload:
            return False
        return cfg_match(self._probe, ControlFlowGraph.from_dict(payload))

    def to_dict(self) -> dict[str, Any]:
        return {"column": self.column, "probe_cfg": self.probe_cfg}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CfgEqualityFilter":
        return cls(column=payload["column"], probe_cfg=payload["probe_cfg"])


@register_filter
class JaccardThresholdFilter(Filter):
    """Pass Static rows whose categorical features reach θ_Jacc."""

    filter_type: ClassVar[str] = "pstorm-jaccard"

    def __init__(self, probe: Mapping[str, str], threshold: float) -> None:
        self.probe = dict(probe)
        self.threshold = float(threshold)

    def matches(self, row_key: str, row) -> bool:
        columns = row.get(FAMILY, {})
        candidate = {name: columns.get(name) for name in self.probe}
        if any(value is None for value in candidate.values()):
            return False
        return jaccard_index(self.probe, candidate) >= self.threshold

    def to_dict(self) -> dict[str, Any]:
        return {"probe": self.probe, "threshold": self.threshold}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JaccardThresholdFilter":
        return cls(probe=payload["probe"], threshold=payload["threshold"])


@register_filter
class RowKeySetFilter(Filter):
    """Pass rows whose key (sans prefix) is in a candidate id set.

    Lets later matcher stages scan only the survivors of earlier stages.
    """

    filter_type: ClassVar[str] = "pstorm-rowset"

    def __init__(self, job_ids: list[str]) -> None:
        self.job_ids = sorted(set(job_ids))
        self._lookup = set(self.job_ids)

    def matches(self, row_key: str, row) -> bool:
        __, __, job_id = row_key.partition("/")
        return job_id in self._lookup

    def to_dict(self) -> dict[str, Any]:
        return {"job_ids": self.job_ids}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RowKeySetFilter":
        return cls(job_ids=payload["job_ids"])


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ProfileStore:
    """PStorM's profile repository over the HBase substrate.

    Args:
        hbase: an HBase cluster; a single-region-server one is created if
            omitted (the paper's deployment, §6).
        pushdown: whether scans push filters to the region servers
            (§5.3); turn off to measure the client-side baseline.
        chaos: fault injector handed to a freshly created substrate
            (ignored when *hbase* is supplied — an injected cluster
            keeps the injector it was built with).
        data_dir: make the store durable.  A fresh directory gets a
            durable HBase substrate under ``data_dir/hbase`` (per-region
            WAL + SSTables); a directory with existing state is
            *restored* — rows, normalizers, and the write generation
            come back from disk, and an ``index_checkpoint.json``
            written by :meth:`snapshot` warms the match index without a
            rebuild.  Ignored when *hbase* is supplied.
        group_commit: WAL group-commit batch size for a freshly created
            durable substrate (1 = sync every record).
        num_region_servers: region servers for a freshly created
            substrate (ignored when *hbase* is supplied).
        split_threshold: rows per region before it splits, for a freshly
            created substrate; ``None`` keeps the cluster default.
        replication: hosts per region (primary + read replicas) for a
            freshly created substrate.
        merge_threshold: auto-merge floor for a freshly created
            substrate (``None`` = merges off).
        shard_index: partition the match index by region — one
            partition per region of the Dynamic key range, probed
            scatter-gather — instead of one flat partition.
    """

    def __init__(
        self,
        hbase: HBaseCluster | None = None,
        pushdown: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        chaos: "FaultInjector | None" = None,
        data_dir: Path | str | None = None,
        group_commit: int = 1,
        num_region_servers: int = 1,
        split_threshold: int | None = None,
        replication: int = 1,
        merge_threshold: int | None = None,
        shard_index: bool = False,
    ) -> None:
        #: Observability sinks; None falls back to the module defaults.
        #: A freshly created substrate inherits them; an injected one
        #: keeps whatever it was built with.
        self.registry = registry
        self.tracer = tracer
        self.data_dir = Path(data_dir) if data_dir is not None else None
        if hbase is not None:
            self.hbase = hbase
        else:
            cluster_kwargs: dict[str, Any] = {}
            if split_threshold is not None:
                cluster_kwargs["split_threshold"] = split_threshold
            self.hbase = HBaseCluster(
                num_region_servers=num_region_servers,
                registry=registry,
                tracer=tracer,
                chaos=chaos,
                data_dir=None if self.data_dir is None else self.data_dir / "hbase",
                group_commit=group_commit,
                replication=replication,
                merge_threshold=merge_threshold,
                **cluster_kwargs,
            )
        #: Whether writes persist (the substrate owns the actual files).
        self._durable = self.hbase.data_dir is not None
        self.pushdown = pushdown
        restored = False
        try:
            self.table = self.hbase.create_table(TABLE_NAME, (FAMILY,))
        except TableExistsError:
            # A restored substrate already carries the table: this is a
            # reopen, so recover generation/normalizers/index below.
            self.table = self.hbase.table(TABLE_NAME)
            restored = True
        #: Coarse store-level lock: one writer *or* one multi-row read at
        #: a time, the atomicity a real HBase deployment gets from
        #: row-level locks plus the matcher's single-probe discipline.
        #: Reentrant so composed stage scans stay deadlock-free, and held
        #: across a put's three rows + normalizer read-modify-write so
        #: concurrent serving workers never interleave half-written jobs.
        self._lock = threading.RLock()
        self._normalizers: dict[tuple[str, str], MinMaxNormalizer] = {
            key: MinMaxNormalizer()
            for key in (
                ("map", "flow"),
                ("map", "cost"),
                ("reduce", "flow"),
                ("reduce", "cost"),
            )
        }
        #: Partitioned (per-region) vs flat match index.
        self.shard_index = shard_index
        #: Monotone write version: bumped under the lock on every
        #: put/delete.  The match index and the normalizer cache compare
        #: against it to decide whether their snapshots are still live.
        self._generation = 0
        self._match_index: "MatchIndex | None" = None
        #: Per-generation snapshot of the persisted ``Meta/__normalizers__``
        #: row, so a probe's four stage scans re-read it at most once per
        #: store version instead of once per stage.
        self._normalizer_cache: tuple[int, dict[str, MinMaxNormalizer]] | None = None
        if restored:
            self._recover_state()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(
        self,
        profile: JobProfile,
        static: StaticFeatures,
        job_id: str | None = None,
    ) -> str:
        """Store one job's profile and features; returns its job id."""
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        with tracer.span("pstorm.store.put", job=profile.job_name):
            with self._lock, self._write_batch():
                job_id = self._put_inner(profile, static, job_id)
        registry.counter(
            "pstorm_store_puts_total", "profiles written to the store"
        ).inc()
        return job_id

    @contextmanager
    def _write_batch(self) -> Iterator[None]:
        """Commit one logical write at a single WAL fsync point.

        A put touches three data rows plus the Meta row — four row
        mutations, one WAL record each.  In durable mode this defers
        every region store's WAL sync (and any threshold flush) to scope
        exit, so the whole multi-row write becomes one group-committed
        batch: after a crash it is either entirely present or entirely
        absent.  The atomicity unit is per region store; the paper's
        single-region deployment (§6) makes that the whole table — a
        store split across regions commits per region instead.
        """
        if not self._durable:
            yield
            return
        with ExitStack() as stack:
            for region, __ in self.hbase.catalog.regions_of(TABLE_NAME):
                stack.enter_context(region.store.deferred())
            yield
        # Splits/merges triggered mid-batch were queued (committing one
        # inside the deferred scopes would tear this logical write across
        # a topology swap); commit them now, past the fsync point and
        # still under the store lock so no probe sees a half-made move.
        self.hbase.run_pending_maintenance()

    def _put_inner(
        self,
        profile: JobProfile,
        static: StaticFeatures,
        job_id: str | None,
    ) -> str:
        if job_id is None:
            job_id = f"{profile.job_name}@{profile.dataset_name}"

        dynamic: dict[str, Any] = {"INPUT_BYTES": profile.input_bytes}
        mp = profile.map_profile
        for name in MAP_DATA_FLOW_FEATURES:
            dynamic[name] = float(mp.data_flow[name])
        for name, column in zip(MAP_COST_FEATURES, MAP_COST_COLUMNS):
            dynamic[column] = float(mp.cost_factors.get(name, 0.0))
        rp = profile.reduce_profile
        dynamic["HAS_REDUCE"] = bool(rp is not None)
        if rp is not None:
            for name in REDUCE_DATA_FLOW_FEATURES:
                dynamic[name] = float(rp.data_flow[name])
            for name, column in zip(REDUCE_COST_FEATURES, RED_COST_COLUMNS):
                dynamic[column] = float(rp.cost_factors.get(name, 0.0))
        # Replacing writes: a re-put of a stored id must not inherit
        # columns the new profile lacks (e.g. reduce features of a job
        # that is now map-only).
        self.table.put_row(DYNAMIC_PREFIX + job_id, FAMILY, dynamic, replace=True)
        self.table.put_row(
            STATIC_PREFIX + job_id, FAMILY, static.to_dict(), replace=True
        )
        self.table.put(PROFILE_PREFIX + job_id, FAMILY, "payload", profile.to_dict())

        self._update_normalizers(dynamic, rp is not None)
        self._generation += 1
        self._persist_meta()
        if self._match_index is not None:
            self._match_index.on_put(
                job_id, dict(dynamic), static.to_dict(), self._generation
            )
        return job_id

    def _update_normalizers(self, dynamic: Mapping[str, Any], has_reduce: bool) -> None:
        self._normalizers[("map", "flow")].update(
            [dynamic[name] for name in MAP_FLOW_COLUMNS]
        )
        self._normalizers[("map", "cost")].update(
            [dynamic[name] for name in MAP_COST_COLUMNS]
        )
        if has_reduce:
            self._normalizers[("reduce", "flow")].update(
                [dynamic[name] for name in RED_FLOW_COLUMNS]
            )
            self._normalizers[("reduce", "cost")].update(
                [dynamic[name] for name in RED_COST_COLUMNS]
            )

    def _persist_meta(self) -> None:
        """Write the Meta row — the four normalizers and, in durable mode,
        the write generation — as one row mutation.

        Restores read the generation back so cache-coherence generations
        keep counting from where the crashed process stopped instead of
        restarting at zero (which would alias old snapshots as fresh).
        """
        columns: dict[str, Any] = {
            f"{side}.{kind}": normalizer.to_dict()
            for (side, kind), normalizer in self._normalizers.items()
        }
        if self._durable:
            columns["__generation__"] = self._generation
        self.table.put_row(_META_ROW, FAMILY, columns)

    def delete(self, job_id: str) -> None:
        """Remove one job's rows (min/max bounds are kept; they only grow)."""
        with self._lock, self._write_batch():
            for prefix in (DYNAMIC_PREFIX, STATIC_PREFIX, PROFILE_PREFIX):
                self.table.delete_row(prefix + job_id)
            self._generation += 1
            if self._durable:  # an in-memory store keeps no generation row
                self._persist_meta()
            if self._match_index is not None:
                self._match_index.on_delete(job_id, self._generation)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def job_ids(self) -> list[str]:
        """All stored job ids, in key order."""
        with self._lock:
            ids = []
            for row_key, __ in self.table.scan(
                scan_filter=PrefixFilter(PROFILE_PREFIX),
                pushdown=self.pushdown,
                batch=SCAN_BATCH,
            ):
                ids.append(row_key[len(PROFILE_PREFIX):])
            return ids

    def __len__(self) -> int:
        return len(self.job_ids())

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return self.table.get(PROFILE_PREFIX + job_id) is not None

    def get_profile(self, job_id: str) -> JobProfile:
        with self._lock:
            row = self.table.get(PROFILE_PREFIX + job_id)
        if row is None:
            raise KeyError(f"no profile stored for {job_id!r}")
        return JobProfile.from_dict(row[FAMILY]["payload"])

    def get_static(self, job_id: str) -> StaticFeatures:
        with self._lock:
            row = self.table.get(STATIC_PREFIX + job_id)
        if row is None:
            raise KeyError(f"no static features stored for {job_id!r}")
        return StaticFeatures.from_dict(row[FAMILY])

    def get_dynamic(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            row = self.table.get(DYNAMIC_PREFIX + job_id)
        if row is None:
            raise KeyError(f"no dynamic features stored for {job_id!r}")
        return dict(row[FAMILY])

    def normalizer(self, side: str, kind: str) -> MinMaxNormalizer:
        """Current min/max bounds for one (side, 'flow'|'cost') vector."""
        return self._normalizers[(side, kind)]

    # ------------------------------------------------------------------
    # Versioning, cached normalizer loads, and the columnar match index
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone write version (puts + deletes), for cache coherence."""
        with self._lock:
            return self._generation

    @property
    def topology_version(self) -> int:
        """Version of the key ranges the match index partitions by.

        With ``shard_index`` on this is the substrate's region-topology
        version (splits/merges/moves): a bump means the partition map is
        stale and the next probe repartitions.  A flat index has one
        partition that no topology change moves, so it reads 0.
        """
        return self.hbase.topology_version if self.shard_index else 0

    def _persisted_normalizers(
        self, cells: Mapping[str, Any]
    ) -> dict[str, MinMaxNormalizer]:
        """The normalizer cells of one fetched Meta row, by ``side.kind``."""
        get_registry(self.registry).counter(
            "pstorm_store_normalizer_loads_total",
            "Meta/__normalizers__ row fetches (cache misses)",
        ).inc()
        return {
            name: MinMaxNormalizer.from_dict(payload)
            for name, payload in cells.items()
            if not name.startswith("__")  # bookkeeping cells
        }

    def load_normalizer(self, side: str, kind: str) -> MinMaxNormalizer:
        """The *persisted* min/max bounds, cached per store generation.

        Reads the ``Meta/__normalizers__`` row at most once per write
        version: every matcher stage of every probe between two writes
        shares one substrate ``get``.  A put rewrites the row *and* bumps
        the generation, so an updated normalizer invalidates the cache
        by construction.  Missing row/cell (nothing stored yet) yields an
        empty normalizer, mirroring the in-memory default.
        """
        with self._lock:
            cached = self._normalizer_cache
            if cached is None or cached[0] != self._generation:
                row = self.table.get(_META_ROW)
                cells = {} if row is None else row[FAMILY]
                self._normalizer_cache = (
                    self._generation,
                    self._persisted_normalizers(cells),
                )
            return self._normalizer_cache[1].get(
                f"{side}.{kind}", MinMaxNormalizer()
            )

    def match_index(self) -> "MatchIndex":
        """The columnar match index (lazily built).

        One index per store: serving workers that share this store (via
        ``ResilientProfileStore``/``MaintainedStore`` delegation) probe
        the same structure.  Its partitions follow
        :meth:`index_snapshot`'s key-range slices.
        """
        with self._lock:
            if self._match_index is None:
                from .match_index import MatchIndex

                self._match_index = MatchIndex(
                    self, registry=self.registry, tracer=self.tracer
                )
            return self._match_index

    def index_view(self) -> "IndexView":
        """The match index's current view, brought up to the writes.

        Publishing it may replay the rebuild's snapshot scans and raises
        whatever they raise; ``ResilientProfileStore`` retries it.
        """
        return self.match_index().view()

    def refresh_match_index(self) -> None:
        """Bring an already-created match index up to the current writes.

        No-op when the index has never been probed —
        refreshing is for keeping a *hot* index hot (e.g. the serving
        layer calls this alongside its result-cache invalidation on
        ``remember()``), not for building one eagerly.
        """
        with self._lock:
            index = self._match_index
        if index is not None:
            index.ensure_fresh()

    def _index_rows(
        self,
    ) -> tuple[int, dict[str, dict[str, Any]], dict[str, dict[str, Any]]]:
        """``(generation, dynamic_rows, static_rows)`` keyed by job id,
        read under the store lock so no put can interleave between the
        two range scans."""
        with self._lock:
            generation = self._generation
            dynamic = {
                row_key[len(DYNAMIC_PREFIX):]: dict(row[FAMILY])
                for row_key, row in self.table.scan(
                    scan_filter=PrefixFilter(DYNAMIC_PREFIX),
                    pushdown=self.pushdown,
                    batch=SCAN_BATCH,
                )
            }
            static = {
                row_key[len(STATIC_PREFIX):]: dict(row[FAMILY])
                for row_key, row in self.table.scan(
                    scan_filter=PrefixFilter(STATIC_PREFIX),
                    pushdown=self.pushdown,
                    batch=SCAN_BATCH,
                )
            }
        return generation, dynamic, static

    def index_snapshot(
        self,
        rows: tuple[int, Mapping[str, Any], Mapping[str, Any]] | None = None,
    ) -> tuple[int, int, list[tuple[str, dict[str, Any], dict[str, Any]]]]:
        """A write-consistent snapshot for (re)building the match index.

        Returns ``(generation, topology_version, slices)`` where each
        slice is ``(start_key, dynamic_rows, static_rows)`` keyed by job
        id, in key order: one slice for the whole Dynamic key range, or
        with ``shard_index`` on one per region whose range intersects
        it.  A job's static row rides in the slice its ``Dynamic/`` row
        key falls in, wherever the ``Static/`` row physically lives.
        Rows and ranges are read under one store lock hold, so the
        partition map and its contents can never disagree.

        *rows* — a ``(generation, dynamic_rows, static_rows)`` image such
        as a snapshot checkpoint — is sliced by the current ranges
        instead of scanning the table.
        """
        with self._lock:
            generation, dynamic, static = (
                self._index_rows() if rows is None else rows
            )
            topology_version = self.topology_version
            ranges = [(DYNAMIC_PREFIX, DYNAMIC_STOP)]
            if self.shard_index:
                ranges = []
                for region, __ in self.hbase.catalog.regions_of(TABLE_NAME):
                    start = max(region.start_key, DYNAMIC_PREFIX)
                    stop = (
                        DYNAMIC_STOP
                        if region.end_key is None
                        else min(region.end_key, DYNAMIC_STOP)
                    )
                    if start < stop:
                        ranges.append((start, stop))

        def within(columns: Mapping[str, Any], start: str, stop: str) -> dict:
            return {
                job_id: row
                for job_id, row in columns.items()
                if start <= DYNAMIC_PREFIX + job_id < stop
            }

        if len(ranges) == 1:
            return generation, topology_version, [(ranges[0][0], dynamic, static)]
        return generation, topology_version, [
            (start, within(dynamic, start, stop), within(static, start, stop))
            for start, stop in ranges
        ]

    # ------------------------------------------------------------------
    # Durability: snapshots and restore
    # ------------------------------------------------------------------
    @property
    def _checkpoint_path(self) -> Path | None:
        if self.data_dir is None:
            return None
        return self.data_dir / "index_checkpoint.json"

    def _region_flush_counts(self) -> dict[str, int]:
        """Per-region flush counters, keyed by region directory name.

        A snapshot records them; a restore compares.  Equality means no
        region flushed since the checkpoint, so the WAL tails are
        exactly the post-checkpoint writes — the condition under which
        the restore can warm the index from tails instead of rebuilding.
        """
        counts: dict[str, int] = {}
        for region, __ in self.hbase.catalog.regions_of(TABLE_NAME):
            store = region.store
            name = "mem" if store.data_dir is None else store.data_dir.name
            counts[name] = store.flushes
        return counts

    def compact(self, force: bool = True) -> dict[str, Any]:
        """Fully compact every region store; returns a layout summary.

        Each unique region store is flushed and force-compacted into
        one deep run (``repro compact`` is the CLI surface).
        ``force=False`` skips stores already down to a single table.

        The summary reports the regions compacted and the per-level
        table/block counts across all of them.
        """
        with self._lock:
            stores: list[Any] = []
            seen: set[int] = set()
            for region, __ in self.hbase.catalog.regions_of(TABLE_NAME):
                if id(region.store) not in seen:
                    seen.add(id(region.store))
                    stores.append(region.store)
            for store in stores:
                store.flush()
                store.compact(force=force)
            level_stats: dict[int, dict[str, int]] = {}
            for store in stores:
                for level, run in enumerate(store.levels):
                    for table in run:
                        stats = level_stats.setdefault(
                            level, {"tables": 0, "blocks": 0}
                        )
                        stats["tables"] += 1
                        stats["blocks"] += table.num_blocks
        get_registry(self.registry).counter(
            "pstorm_store_compactions_total", "forced full-store compactions"
        ).inc()
        return {
            "regions": len(stores),
            "tables": sum(stats["tables"] for stats in level_stats.values()),
            "blocks": sum(stats["blocks"] for stats in level_stats.values()),
            "levels": [
                {"level": level, **level_stats[level]}
                for level in sorted(level_stats)
            ],
        }

    def snapshot(self) -> Path:
        """Checkpoint the store: flush every region, persist the index.

        Flushes all memstores (SSTables + manifests hit disk, WALs
        truncate), then atomically writes ``index_checkpoint.json`` — a
        write-consistent ``(generation, dynamic, static)`` image of
        exactly the rows the match index mirrors, plus the per-region
        flush counters.  A restore replays only the WAL tail written
        after this point, so restart cost stays flat in store size.
        """
        path = self._checkpoint_path
        if path is None:
            raise ValueError("snapshot() requires a data_dir-backed store")
        with self._lock:
            self.hbase.flush_all()
            chaos = self.hbase.chaos
            if chaos is not None:
                # The mid-snapshot kill point: flushed but not yet
                # checkpointed — a restore must survive that tear.
                chaos.on_operation("snapshot")
            generation, dynamic, static = self._index_rows()
            payload = {
                "version": 1,
                "generation": generation,
                "flushes": self._region_flush_counts(),
                "dynamic": dynamic,
                "static": static,
            }
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        return path

    @classmethod
    def restore(cls, data_dir: Path | str, **kwargs: Any) -> "ProfileStore":
        """Reopen a durable store from *data_dir* (explicit-intent alias
        for ``ProfileStore(data_dir=...)`` on an existing directory)."""
        return cls(data_dir=data_dir, **kwargs)

    @staticmethod
    def _latest_columns(row: Mapping[str, Any]) -> dict[str, Any]:
        """Column view of one raw region-store row."""
        columns = row.get(FAMILY, {})
        return {qual: cell.value for qual, cell in columns.items()}

    def _recover_state(self) -> None:
        """Rebuild in-memory state from a restored substrate.

        Recovers the write generation and normalizer bounds from the
        Meta row, then warms the match index from the snapshot
        checkpoint (if one exists) plus the WAL tails — the first probe
        after a restart should serve without a full rebuild.
        """
        row = self.table.get(_META_ROW)
        cells: Mapping[str, Any] = {} if row is None else row[FAMILY]
        self._generation = int(cells.get("__generation__", 0))
        for key in self._normalizers:
            payload = cells.get(f"{key[0]}.{key[1]}")
            if payload:
                self._normalizers[key] = MinMaxNormalizer.from_dict(payload)
        # The first probe's normalizer reads share this Meta row fetch.
        self._normalizer_cache = (
            self._generation,
            self._persisted_normalizers(cells),
        )
        if self._checkpoint_path is not None:
            checkpoint = None
            try:
                checkpoint = json.loads(self._checkpoint_path.read_text())
            except FileNotFoundError:
                pass
            except (OSError, json.JSONDecodeError):
                checkpoint = None  # torn checkpoint: fall back to rebuild
            if checkpoint is not None:
                index = self.match_index()
                index.load_checkpoint(
                    int(checkpoint.get("generation", 0)),
                    checkpoint.get("dynamic", {}),
                    checkpoint.get("static", {}),
                )
                self._warm_index_tail(index, checkpoint)
        get_registry(self.registry).counter(
            "snapshot_restores_total", "durable profile-store restores from disk"
        ).inc()

    def _warm_index_tail(
        self, index: "MatchIndex", checkpoint: Mapping[str, Any]
    ) -> None:
        """Feed post-checkpoint WAL-tail writes to the index as pending ops.

        Sound only when the tails are *complete* — no region flushed
        since the checkpoint (flush counters equal) and the tail op
        count equals the generation gap.  Anything else invalidates the
        index so the first probe rebuilds from a store snapshot.
        """
        checkpoint_generation = int(checkpoint.get("generation", 0))
        if checkpoint_generation > self._generation:
            index.invalidate()  # checkpoint from the future: distrust it
            return
        if checkpoint.get("flushes") != self._region_flush_counts():
            index.invalidate()
            return
        gap = self._generation - checkpoint_generation
        if gap == 0:
            return  # checkpoint is already current
        puts: dict[str, dict[str, Any]] = {}
        statics: dict[str, dict[str, Any]] = {}
        kind: dict[str, str] = {}
        order: dict[str, tuple[int, int]] = {}
        for position, (region, __) in enumerate(
            self.hbase.catalog.regions_of(TABLE_NAME)
        ):
            for record in region.store.wal:
                if record.key.startswith(STATIC_PREFIX):
                    if record.op == "put":
                        job_id = record.key[len(STATIC_PREFIX):]
                        statics[job_id] = self._latest_columns(record.value)
                    continue
                if not record.key.startswith(DYNAMIC_PREFIX):
                    continue
                job_id = record.key[len(DYNAMIC_PREFIX):]
                if record.op == "put":
                    # One record per row mutation, carrying the whole row.
                    puts[job_id] = self._latest_columns(record.value)
                    if kind.get(job_id) != "put":
                        order[job_id] = (position, record.sequence)
                    kind[job_id] = "put"
                else:
                    kind[job_id] = "delete"
                    order[job_id] = (position, record.sequence)
        if len(kind) != gap:
            # Coalesced ops (e.g. put-then-delete of one id): the tail
            # can't be mapped one-op-per-generation, so don't pretend.
            index.invalidate()
            return
        generation = checkpoint_generation
        for job_id in sorted(kind, key=lambda name: order[name]):
            generation += 1
            if kind[job_id] == "put":
                index.on_put(
                    job_id, puts.get(job_id, {}), statics.get(job_id), generation
                )
            else:
                index.on_delete(job_id, generation)

    def bulk_rows(self, prefix: str) -> dict[str, dict[str, Any]]:
        """All rows under *prefix* in one batched scan, keyed by job id."""
        with self._lock:
            return {
                row_key[len(prefix):]: dict(row[FAMILY])
                for row_key, row in self.table.scan(
                    scan_filter=PrefixFilter(prefix),
                    pushdown=self.pushdown,
                    batch=SCAN_BATCH,
                )
            }

    def bulk_profiles(self) -> dict[str, JobProfile]:
        """Every stored profile, fetched in one batched scan."""
        return {
            job_id: JobProfile.from_dict(columns["payload"])
            for job_id, columns in self.bulk_rows(PROFILE_PREFIX).items()
        }

    def bulk_statics(self) -> dict[str, StaticFeatures]:
        """Every stored static-feature row, fetched in one batched scan."""
        return {
            job_id: StaticFeatures.from_dict(columns)
            for job_id, columns in self.bulk_rows(STATIC_PREFIX).items()
        }

    # ------------------------------------------------------------------
    # Filtered scans (one per matcher stage)
    # ------------------------------------------------------------------
    def scan_job_ids(
        self,
        prefix: str,
        extra_filter: Filter | None = None,
        stage: str = "scan",
    ) -> list[str]:
        """Job ids of rows under *prefix* passing *extra_filter*."""
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        began = perf_counter()
        with tracer.span("pstorm.store.probe", stage=stage, prefix=prefix):
            filters: list[Filter] = [PrefixFilter(prefix)]
            if extra_filter is not None:
                filters.append(extra_filter)
            result = []
            with self._lock:
                for row_key, __ in self.table.scan(
                    scan_filter=FilterList(filters),
                    pushdown=self.pushdown,
                    batch=SCAN_BATCH,
                ):
                    result.append(row_key[len(prefix):])
        registry.counter(
            "pstorm_store_probe_scans_total",
            "filtered scans issued by matcher stages",
            labels={"stage": stage},
        ).inc()
        registry.histogram(
            "pstorm_store_probe_seconds",
            "wall-clock latency of one filtered store scan",
            labels={"stage": stage},
            buckets=LATENCY_BUCKETS,
        ).observe(perf_counter() - began)
        registry.histogram(
            "pstorm_store_candidates",
            "candidate-set size surviving one store stage",
            labels={"stage": stage},
            buckets=COUNT_BUCKETS,
        ).observe(len(result))
        return result

    def euclidean_stage(
        self,
        side: str,
        kind: str,
        probe: list[float],
        threshold: float,
        candidates: list[str] | None = None,
    ) -> list[str]:
        """Run one normalized-Euclidean filter stage server-side."""
        columns = list(_columns_for(side, kind))
        with self._lock:
            normalizer = self.load_normalizer(side, kind)
            if normalizer.num_features == 0:
                return []
            stage = NormalizedEuclideanFilter(
                columns=columns,
                probe=list(probe),
                minimums=list(normalizer.minimums),
                maximums=list(normalizer.maximums),
                threshold=threshold,
            )
        extra: Filter = stage
        if candidates is not None:
            extra = FilterList([RowKeySetFilter(candidates), stage])
        return self.scan_job_ids(
            DYNAMIC_PREFIX, extra, stage=f"euclidean-{side}-{kind}"
        )

    def cfg_stage(
        self, side: str, probe_cfg: ControlFlowGraph, candidates: list[str]
    ) -> list[str]:
        """Run the CFG-equality filter stage server-side."""
        column = "MAP_CFG" if side == "map" else "RED_CFG"
        stage = CfgEqualityFilter(column=column, probe_cfg=probe_cfg.to_dict())
        extra = FilterList([RowKeySetFilter(candidates), stage])
        return self.scan_job_ids(STATIC_PREFIX, extra, stage=f"cfg-{side}")

    def jaccard_stage(
        self, probe: Mapping[str, str], threshold: float, candidates: list[str]
    ) -> list[str]:
        """Run the Jaccard filter stage server-side."""
        stage = JaccardThresholdFilter(probe=probe, threshold=threshold)
        extra = FilterList([RowKeySetFilter(candidates), stage])
        return self.scan_job_ids(STATIC_PREFIX, extra, stage="jaccard")
