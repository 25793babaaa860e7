"""HBaseCluster: table lifecycle, region assignment, splits, durability.

The paper's deployment runs one HMaster and one HRegionServer on the
Hadoop master node; a cluster here defaults to a single region server but
supports several, with round-robin assignment of new regions, automatic
median splits once a region exceeds the split threshold, automatic merges
of undersized adjacent siblings (``merge_threshold``), an explicit
:meth:`rebalance` that evens region placement across servers, and N-way
region replication (``replication``): every region is hosted by a primary
plus ``replication - 1`` read replicas on distinct servers, all sharing
the region's store — the HBase read-replica shape — so reads fail over
when a chaos crash window takes the primary down (see
:class:`~repro.hbase.table.HTable`).

Every topology change (create, split, merge, rebalance, drop) bumps
:attr:`topology_version`, a monotone counter sharded consumers (the
per-region match-index partitions) compare against to detect that their
partition map went stale.

With ``data_dir`` set, the cluster is durable: every region's LSM store
gets its own directory (WAL + SSTables + manifest) under
``data_dir/regions/``, and a ``cluster.json`` document — rewritten
atomically on every topology change and on :meth:`flush_all` — records
the table → region → directory mapping.  Constructing a cluster on a
directory that already holds ``cluster.json`` *restores* it: regions
re-attach to their directories (SSTables load lazily, WAL tails replay)
and orphaned region directories a crash left behind are swept, so
recovery cost is manifest-sized, not store-sized.  All region stores of
a durable cluster read SSTable blocks through one shared LRU
:class:`~repro.hbase.sstable.BlockCache`.  Splits and merges
commit crash-safely: the successor regions are written durably, then
``cluster.json`` swaps to them atomically, then the predecessor
directories are removed — a crash between any two steps recovers either
the old topology or the new one, never half of each.  A split or merge
triggered *inside* a deferred write batch (one logical multi-row write)
is queued and committed at the batch's fsync point instead, so batch
atomicity survives region maintenance.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..observability import MetricsRegistry, Tracer, get_registry
from .catalog import MetaCatalog
from .errors import TableExistsError, TableNotFoundError
from .region import Region, decode_cells, encode_cells
from .regionserver import RegionServer
from .sstable import BlockCache
from .storage import LsmStore
from .table import HTable

if TYPE_CHECKING:
    from ..chaos import FaultInjector

__all__ = ["HBaseCluster"]

DEFAULT_SPLIT_THRESHOLD = 1024
CLUSTER_META_NAME = "cluster.json"


class HBaseCluster:
    """An HBase deployment: region servers, a catalog, and tables.

    Args:
        num_region_servers: how many region servers host regions.
        split_threshold: rows after which a region splits at its median.
        replication: hosts per region (primary + read replicas on
            distinct servers); clamped to the server count.
        merge_threshold: when set, a region that shrinks below this many
            rows after a delete merges with its smaller adjacent sibling
            (provided the result stays under the split threshold).
    """

    def __init__(
        self,
        num_region_servers: int = 1,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        chaos: "FaultInjector | None" = None,
        data_dir: Path | str | None = None,
        group_commit: int = 1,
        replication: int = 1,
        merge_threshold: int | None = None,
    ) -> None:
        if num_region_servers < 1:
            raise ValueError("need at least one region server")
        if replication < 1:
            raise ValueError("replication must be at least 1")
        if merge_threshold is not None and merge_threshold < 1:
            raise ValueError("merge_threshold must be positive (or None)")
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.group_commit = group_commit
        meta = None
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            meta_path = self.data_dir / CLUSTER_META_NAME
            if meta_path.exists():
                meta = json.loads(meta_path.read_text())
                num_region_servers = int(meta["num_region_servers"])
                split_threshold = int(meta["split_threshold"])
                replication = int(meta.get("replication", 1))
                restored_merge = meta.get("merge_threshold")
                merge_threshold = (
                    None if restored_merge is None else int(restored_merge)
                )
        #: One LRU block cache shared by every region store (durable
        #: clusters only; in-memory stores never read blocks).
        self.block_cache: BlockCache | None = (
            BlockCache(registry=registry) if self.data_dir is not None else None
        )
        #: Observability sinks; None falls back to the module defaults.
        #: Handed to every region server and table of this cluster.
        self.registry = registry
        self.tracer = tracer
        if chaos is None:
            # Lazy import breaks the repro.chaos <-> repro.hbase cycle;
            # resolving once at construction keeps the no-chaos fast
            # path at a single attribute check per operation.
            from ..chaos import default_injector

            chaos = default_injector()
        #: Fault injector consulted at operation boundaries (None = off).
        self.chaos = chaos
        self.servers: dict[int, RegionServer] = {
            i: RegionServer(i, registry=registry, chaos=chaos)
            for i in range(num_region_servers)
        }
        self.catalog = MetaCatalog()
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold
        #: Effective hosts per region (never more than there are servers).
        self.replication = min(replication, num_region_servers)
        #: Monotone topology counter: bumped on create/split/merge/
        #: rebalance/drop so partitioned consumers can detect staleness.
        self.topology_version = 0
        self._tables: dict[str, HTable] = {}
        self._assign_cursor = 0
        self._next_region_dir = 0
        #: Splits/merges that fired inside a deferred write batch; they
        #: commit at :meth:`run_pending_maintenance` (the batch's fsync
        #: point) so one logical write never tears across a topology swap.
        self._pending_maintenance: list[tuple[str, str, Region]] = []
        if meta is not None:
            self._restore_from_meta(meta)

    # ------------------------------------------------------------------
    # Durable region stores and the cluster meta document
    # ------------------------------------------------------------------
    def _open_region_store(self, path: Path) -> LsmStore:
        return LsmStore(
            data_dir=path,
            group_commit=self.group_commit,
            block_cache=self.block_cache,
            value_encoder=encode_cells,
            value_decoder=decode_cells,
            chaos=self.chaos,
            registry=self.registry,
        )

    def _region_store(self) -> LsmStore | None:
        """A backing store for one new region: durable when the cluster
        is, in-memory (``None`` → Region default) otherwise."""
        if self.data_dir is None:
            return None
        path = self.data_dir / "regions" / f"r{self._next_region_dir:05d}"
        self._next_region_dir += 1
        if path.exists():
            # A crash between creating successor directories and the
            # meta swap can leave this slot occupied by an orphan; a
            # fresh region must never resurrect its stale rows.
            shutil.rmtree(path, ignore_errors=True)
        return self._open_region_store(path)

    def _write_meta(self) -> None:
        """Atomically rewrite ``cluster.json`` from the live topology."""
        if self.data_dir is None:
            return
        tables = {}
        for name, table in self._tables.items():
            regions = []
            for region, server_ids in self.catalog.replicas_of(name):
                store_dir = region.store.data_dir
                assert store_dir is not None
                regions.append(
                    {
                        "start": region.start_key,
                        "end": region.end_key,
                        "dir": str(store_dir.relative_to(self.data_dir)),
                        "server_id": server_ids[0],
                        "server_ids": list(server_ids),
                    }
                )
            tables[name] = {"families": list(table.families), "regions": regions}
        payload = {
            "version": 2,
            "num_region_servers": len(self.servers),
            "split_threshold": self.split_threshold,
            "merge_threshold": self.merge_threshold,
            "replication": self.replication,
            "next_region_dir": self._next_region_dir,
            "tables": tables,
        }
        tmp = self.data_dir / (CLUSTER_META_NAME + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        os.replace(tmp, self.data_dir / CLUSTER_META_NAME)

    def _restore_from_meta(self, meta: dict) -> None:
        assert self.data_dir is not None
        self._next_region_dir = int(meta.get("next_region_dir", 0))
        referenced: set[Path] = set()
        for name, spec in meta["tables"].items():
            families = tuple(spec["families"])
            for region_spec in spec["regions"]:
                region_dir = self.data_dir / region_spec["dir"]
                referenced.add(region_dir.resolve())
                store = self._open_region_store(region_dir)
                region = Region(
                    name,
                    families,
                    start_key=region_spec["start"],
                    end_key=region_spec["end"],
                    store=store,
                )
                hosts = self._restored_hosts(region_spec)
                for server_id in hosts:
                    self.servers[server_id].assign(region)
                self.catalog.register(region, hosts)
            self._tables[name] = self._make_table(name, families)
        self._sweep_orphan_dirs(referenced)

    def _restored_hosts(self, region_spec: dict) -> tuple[int, ...]:
        """The host set of one restored region, deduped modulo the
        (possibly shrunk) server count."""
        raw = region_spec.get("server_ids") or [region_spec["server_id"]]
        hosts: list[int] = []
        for server_id in raw:
            server_id = int(server_id) % len(self.servers)
            if server_id not in hosts:
                hosts.append(server_id)
        return tuple(hosts)

    def _sweep_orphan_dirs(self, referenced: set[Path]) -> None:
        """Remove region directories ``cluster.json`` does not name.

        A crash between writing successor region stores (split/merge)
        and the atomic meta swap leaves their directories on disk while
        the meta still names the predecessors.  The predecessors are
        authoritative; the orphans must go, or a later region creation
        could reuse the directory slot and resurrect stale rows.
        """
        assert self.data_dir is not None
        regions_root = self.data_dir / "regions"
        if not regions_root.is_dir():
            return
        for child in sorted(regions_root.iterdir()):
            if child.is_dir() and child.resolve() not in referenced:
                shutil.rmtree(child, ignore_errors=True)

    def flush_all(self) -> int:
        """Flush every region's memstore and refresh the meta document.

        After this, every acked write is in an SSTable and the WALs are
        empty — the store half of a snapshot.  Returns regions flushed.
        """
        flushed = 0
        seen: set[int] = set()
        for server in self.servers.values():
            # Replicated regions are hosted (and therefore visited) by
            # several servers but must flush exactly once.
            for region in server.regions:
                if id(region) in seen:
                    continue
                seen.add(id(region))
                before = region.store.flushes
                region.store.flush()
                if region.store.flushes != before:
                    flushed += 1
        self._write_meta()
        get_registry(self.registry).counter(
            "snapshot_writes_total", "cluster-wide flush-and-checkpoint passes"
        ).inc()
        return flushed

    # ------------------------------------------------------------------
    # Region placement
    # ------------------------------------------------------------------
    def _next_server(self) -> RegionServer:
        server = self.servers[self._assign_cursor % len(self.servers)]
        self._assign_cursor += 1
        return server

    def _assign_servers(self) -> tuple[int, ...]:
        """Host set for one new region: a round-robin primary plus the
        next ``replication - 1`` distinct servers in ring order."""
        primary = self._next_server().server_id
        hosts = [primary]
        for offset in range(1, self.replication):
            hosts.append((primary + offset) % len(self.servers))
        return tuple(hosts)

    def _host_region(self, region: Region) -> tuple[int, ...]:
        hosts = self._assign_servers()
        for server_id in hosts:
            self.servers[server_id].assign(region)
        self.catalog.register(region, hosts)
        return hosts

    def _unhost_region(self, region: Region) -> None:
        region_id, hosts = self.catalog.find_replicas(region)
        self.catalog.unregister(region_id)
        for server_id in hosts:
            self.servers[server_id].unassign(region)

    def _bump_topology(self) -> None:
        self.topology_version += 1
        get_registry(self.registry).gauge(
            "hbase_regions", "regions currently registered across all tables"
        ).set(float(sum(len(self.catalog.regions_of(name)) for name in self._tables)))

    def _chaos_point(self, op: str, region: Region) -> None:
        if self.chaos is not None:
            __, hosts = self.catalog.find_replicas(region)
            self.chaos.on_operation(op, server_id=hosts[0])

    # ------------------------------------------------------------------
    # Splits and merges
    # ------------------------------------------------------------------
    def _handle_split(self, table_name: str, region: Region) -> None:
        """Split an oversized region (deferred to batch commit when the
        region store is mid-logical-write)."""
        if region.store.in_deferred_scope:
            self._queue_maintenance("split", table_name, region)
            return
        self._split_now(table_name, region)

    def _split_now(self, table_name: str, region: Region) -> None:
        # The consult precedes any mutation: an injected fault aborts
        # the split with catalog and stores untouched.
        self._chaos_point("split", region)
        make_store = self._region_store if self.data_dir is not None else None
        left, right = region.split(make_store=make_store)
        self._unhost_region(region)
        self._host_region(left)
        self._host_region(right)
        if self.data_dir is not None:
            # Make the daughters durable, commit the topology swap
            # atomically, and only then retire the parent's directory.
            left.store.flush()
            right.store.flush()
            self._write_meta()
            region.store.close()
            parent_dir = region.store.data_dir
            if parent_dir is not None:
                shutil.rmtree(parent_dir, ignore_errors=True)
        self._bump_topology()
        get_registry(self.registry).counter(
            "hbase_region_splits_total", "region median splits committed"
        ).inc()

    def _handle_shrink(self, table_name: str, region: Region) -> None:
        """Merge an undersized region into its smaller adjacent sibling
        (deferred to batch commit when mid-logical-write)."""
        if self.merge_threshold is None:
            return
        if region.store.in_deferred_scope:
            self._queue_maintenance("merge", table_name, region)
            return
        self._maybe_merge(table_name, region)

    def _maybe_merge(self, table_name: str, region: Region) -> None:
        if region.num_rows >= self.merge_threshold:
            return
        left, right = self.catalog.adjacent(region)
        sibling: Region | None = None
        for neighbor in (left, right):
            if neighbor is None:
                continue
            if region.num_rows + neighbor.num_rows > self.split_threshold:
                continue  # would immediately re-split: leave it alone
            if sibling is None or neighbor.num_rows < sibling.num_rows:
                sibling = neighbor
        if sibling is None:
            return
        first, second = (
            (sibling, region) if sibling.start_key < region.start_key
            else (region, sibling)
        )
        self.merge_regions(table_name, first, second)

    def merge_regions(
        self, table_name: str, left: Region, right: Region
    ) -> Region:
        """Merge two adjacent registered regions; returns the merged one.

        Commit order mirrors :meth:`_split_now`: the merged region is
        written durably first, then ``cluster.json`` swaps to it, then
        the parents' directories are retired — a crash in between
        recovers either both parents or the merged region.
        """
        self._chaos_point("merge", left)
        make_store = self._region_store if self.data_dir is not None else None
        merged = Region.merge(left, right, make_store=make_store)
        self._unhost_region(left)
        self._unhost_region(right)
        self._host_region(merged)
        if self.data_dir is not None:
            merged.store.flush()
            self._write_meta()
            for parent in (left, right):
                parent.store.close()
                parent_dir = parent.store.data_dir
                if parent_dir is not None:
                    shutil.rmtree(parent_dir, ignore_errors=True)
        self._bump_topology()
        get_registry(self.registry).counter(
            "hbase_region_merges_total", "adjacent-region merges committed"
        ).inc()
        return merged

    def _queue_maintenance(self, kind: str, table_name: str, region: Region) -> None:
        entry = (kind, table_name, region)
        if entry not in self._pending_maintenance:
            self._pending_maintenance.append(entry)

    def run_pending_maintenance(self) -> int:
        """Commit splits/merges queued during a deferred write batch.

        Called by batch owners (e.g. the profile store) after their
        fsync point.  Conditions are re-checked: a region may have
        shrunk back under the split threshold, been split already, or
        been unregistered.  Returns operations committed.
        """
        committed = 0
        while self._pending_maintenance:
            kind, table_name, region = self._pending_maintenance.pop(0)
            try:
                self.catalog.find_replicas(region)
            except KeyError:
                continue  # already replaced by an earlier queued op
            if kind == "split":
                if region.num_rows > self.split_threshold:
                    self._split_now(table_name, region)
                    committed += 1
            else:
                before = self.topology_version
                self._maybe_merge(table_name, region)
                committed += int(self.topology_version != before)
        return committed

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self) -> int:
        """Even region placement across servers; returns regions moved.

        Deterministic: regions are enumerated per table in key order and
        re-homed round-robin (region *i* of a table gets primary ``i %
        num_servers`` plus the next ``replication - 1`` servers in ring
        order), so two clusters with the same topology always rebalance
        identically.  Bumps the topology version only when something
        actually moved.
        """
        moves = 0
        for name in sorted(self._tables):
            placements = self.catalog.replicas_of(name)
            if placements and self.chaos is not None:
                self.chaos.on_operation(
                    "rebalance", server_id=placements[0][1][0]
                )
            for position, (region, hosts) in enumerate(placements):
                primary = position % len(self.servers)
                target = tuple(
                    (primary + offset) % len(self.servers)
                    for offset in range(self.replication)
                )
                if target == hosts:
                    continue
                region_id, __ = self.catalog.find_replicas(region)
                for server_id in hosts:
                    self.servers[server_id].unassign(region)
                for server_id in target:
                    self.servers[server_id].assign(region)
                self.catalog.reassign(region_id, target)
                moves += 1
        if moves:
            self._write_meta()
            self._bump_topology()
            get_registry(self.registry).counter(
                "hbase_region_moves_total", "regions moved by rebalancing"
            ).inc(moves)
        return moves

    # ------------------------------------------------------------------
    def _make_table(self, name: str, families: tuple[str, ...]) -> HTable:
        return HTable(
            name,
            families,
            self.catalog,
            self.servers,
            self.split_threshold,
            self._handle_split,
            registry=self.registry,
            tracer=self.tracer,
            chaos=self.chaos,
            on_shrink=self._handle_shrink,
        )

    def create_table(self, name: str, families: tuple[str, ...]) -> HTable:
        """Create a table with its (immutable) column families."""
        if name in self._tables:
            raise TableExistsError(f"table {name!r} already exists")
        if not families:
            raise ValueError("a table needs at least one column family")
        region = Region(name, tuple(families), store=self._region_store())
        self._host_region(region)
        table = self._make_table(name, tuple(families))
        self._tables[name] = table
        self._write_meta()
        self._bump_topology()
        return table

    def table(self, name: str) -> HTable:
        table = self._tables.get(name)
        if table is None:
            raise TableNotFoundError(f"table {name!r} does not exist")
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError(f"table {name!r} does not exist")
        for region, server_ids in self.catalog.replicas_of(name):
            for server_id in server_ids:
                self.servers[server_id].unassign(region)
            if self.data_dir is not None and region.store.data_dir is not None:
                region.store.close()
                shutil.rmtree(region.store.data_dir, ignore_errors=True)
        self.catalog.drop_table(name)
        del self._tables[name]
        self._write_meta()
        self._bump_topology()

    def tables(self) -> Iterator[str]:
        return iter(sorted(self._tables))

    # ------------------------------------------------------------------
    def total_store_objects(self) -> int:
        """Cluster-wide in-memory Store object count (§5.2.2 metric)."""
        return sum(server.num_store_objects() for server in self.servers.values())
