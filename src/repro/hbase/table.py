"""HTable: the client-side table handle.

Routes puts/gets to the responsible region via the catalog and runs scans
across all of a table's regions in key order, with the filter either pushed
down to the region servers (the PStorM deployment, §5.3) or applied on the
client after shipping every row (the baseline the paper argues against).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from ..observability import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from .catalog import MetaCatalog
from .errors import ServerUnavailableError
from .filters import Filter, serialize_filter
from .regionserver import RegionServer

if TYPE_CHECKING:
    from ..chaos import FaultInjector

__all__ = ["HTable"]


class HTable:
    """Client handle for one HBase table.

    Reads (gets and scans) route to a region's *primary* server first
    and fail over, in catalog order, to its read replicas when the
    primary is down (:class:`~repro.hbase.errors.ServerUnavailableError`
    from a chaos crash window) — the HBase timeline-consistent
    read-replica shape.  Writes always route to the primary.
    """

    def __init__(
        self,
        name: str,
        families: tuple[str, ...],
        catalog: MetaCatalog,
        servers: Mapping[int, RegionServer],
        split_threshold: int,
        on_split: Any,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        chaos: "FaultInjector | None" = None,
        on_shrink: Any = None,
    ) -> None:
        self.name = name
        self.families = families
        self._catalog = catalog
        self._servers = servers
        self._split_threshold = split_threshold
        self._on_split = on_split
        #: Merge hook: called after a delete leaves a region undersized
        #: (the cluster decides whether to actually merge).  None = off.
        self._on_shrink = on_shrink
        #: Observability sinks; None falls back to the module defaults.
        self.registry = registry
        self.tracer = tracer
        #: Fault injector (resolved by the owning cluster; None = off).
        self.chaos = chaos

    def _observe_latency(self, op: str, seconds: float) -> None:
        get_registry(self.registry).histogram(
            f"hbase_{op}_seconds",
            f"client-observed {op} latency",
            labels={"table": self.name},
            buckets=LATENCY_BUCKETS,
        ).observe(seconds)

    def _count_replica_fallback(self, op: str) -> None:
        get_registry(self.registry).counter(
            "hbase_replica_read_fallbacks_total",
            "reads that failed over past a dead replica server",
            labels={"op": op},
        ).inc()

    def _count_replica_read(self, op: str) -> None:
        get_registry(self.registry).counter(
            "hbase_replica_reads_total",
            "reads served by a non-primary replica server",
            labels={"op": op},
        ).inc()

    # ------------------------------------------------------------------
    def put_row(
        self,
        row_key: str,
        family: str,
        columns: Mapping[str, Any],
        replace: bool = False,
    ) -> None:
        """Write several cells of one row in one family as one row
        mutation (an HBase ``Put``): one region locate, one chaos
        consult, one WAL record and one latency observation.  With
        *replace* the family holds exactly *columns* afterwards."""
        if not columns:
            return
        registry = get_registry(self.registry)
        start = perf_counter() if registry.enabled else 0.0
        region, server_id = self._catalog.locate(self.name, row_key)
        if self.chaos is not None:
            self.chaos.on_operation("put", server_id=server_id)
        region.put_row(row_key, family, columns, replace)
        if region.num_rows > self._split_threshold:
            self._on_split(self.name, region)
        if registry.enabled:
            self._observe_latency("put", perf_counter() - start)

    def put(self, row_key: str, family: str, qualifier: str, value: Any) -> None:
        """Write one cell: :meth:`put_row` with one column."""
        self.put_row(row_key, family, {qualifier: value})

    def delete_row(self, row_key: str) -> bool:
        region, __ = self._catalog.locate(self.name, row_key)
        existed = region.delete_row(row_key)
        if existed and self._on_shrink is not None:
            self._on_shrink(self.name, region)
        return existed

    # ------------------------------------------------------------------
    def get(self, row_key: str) -> dict[str, dict[str, Any]] | None:
        """Latest version of one row, or None (replica fallback on a
        dead primary)."""
        registry = get_registry(self.registry)
        start = perf_counter() if registry.enabled else 0.0
        region, server_ids = self._catalog.locate_replicas(self.name, row_key)
        if self.chaos is not None:
            error: ServerUnavailableError | None = None
            for position, server_id in enumerate(server_ids):
                try:
                    self.chaos.on_operation("get", server_id=server_id)
                except ServerUnavailableError as exc:
                    error = exc
                    self._count_replica_fallback("get")
                    continue
                if position:
                    self._count_replica_read("get")
                break
            else:
                assert error is not None
                raise error
        row = region.get(row_key)
        if registry.enabled:
            self._observe_latency("get", perf_counter() - start)
        return row

    def scan(
        self,
        start: str | None = None,
        stop: str | None = None,
        scan_filter: Filter | None = None,
        pushdown: bool = True,
        batch: int | None = None,
    ) -> Iterator[tuple[str, dict[str, dict[str, Any]]]]:
        """Scan the table in row-key order.

        Args:
            scan_filter: optional predicate over rows.
            pushdown: if True (default), the filter is serialized and
                applied by the region servers; if False, every row in range
                is shipped and the filter is applied client-side.
            batch: if set, fetch rows from each region server in chunks
                of up to this many rows per round trip (HBase scanner
                caching) instead of one call per row.  Yields the same
                rows in the same order either way.
        """
        registry = get_registry(self.registry)
        tracer = get_tracer(self.tracer)
        payload = None
        if scan_filter is not None and pushdown:
            payload = serialize_filter(scan_filter)
        shipped = 0
        began = perf_counter() if (registry.enabled or tracer.enabled) else 0.0
        try:
            for region, server_ids in self._catalog.replicas_of(self.name):
                rows = self._region_row_stream(
                    region, server_ids, start, stop, payload, batch
                )
                for row_key, row in rows:
                    if scan_filter is not None and not pushdown:
                        if not scan_filter.matches(row_key, row):
                            continue
                    shipped += 1
                    yield row_key, row
        finally:
            # Generators may be abandoned mid-scan; record on the way out
            # either way so every scan leaves a completed span.
            if registry.enabled or tracer.enabled:
                ended = perf_counter()
                if registry.enabled:
                    self._observe_latency("scan", ended - began)
                tracer.record_span(
                    "hbase.scan",
                    start=began,
                    end=ended,
                    attrs={
                        "table": self.name,
                        "rows": shipped,
                        "pushdown": bool(payload is not None),
                    },
                    clock="wall",
                )

    def _region_row_stream(
        self,
        region: Any,
        server_ids: tuple[int, ...],
        start: str | None,
        stop: str | None,
        payload: Mapping[str, Any] | None,
        batch: int | None,
    ) -> Iterator[tuple[str, dict[str, dict[str, Any]]]]:
        """One region's scan rows, failing over to replica servers.

        The chaos consult fires at the head of a region-server scan,
        before any row ships, so a dead server is always detected with
        zero rows yielded — failover restarts the scan on the next
        replica without ever duplicating or dropping a row.
        """
        error: ServerUnavailableError | None = None
        for position, server_id in enumerate(server_ids):
            server = self._servers[server_id]
            if batch is not None:
                rows: Iterator[tuple[str, dict[str, dict[str, Any]]]] = (
                    item
                    for chunk in server.scan_region_batch(
                        region, start, stop, payload, batch=batch
                    )
                    for item in chunk
                )
            else:
                rows = server.scan_region(region, start, stop, payload)
            iterator = iter(rows)
            try:
                first = next(iterator)
            except StopIteration:
                if position:
                    self._count_replica_read("scan")
                return
            except ServerUnavailableError as exc:
                error = exc
                self._count_replica_fallback("scan")
                continue
            if position:
                self._count_replica_read("scan")
            yield first
            yield from iterator
            return
        assert error is not None
        raise error

    # ------------------------------------------------------------------
    def num_rows(self) -> int:
        return sum(
            region.num_rows for region, __ in self._catalog.regions_of(self.name)
        )

    def __repr__(self) -> str:
        regions = len(self._catalog.regions_of(self.name))
        return f"HTable({self.name!r}, regions={regions}, rows={self.num_rows()})"
