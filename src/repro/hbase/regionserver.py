"""Region servers: host regions, apply pushed-down filters, track metrics.

The §5.3 argument is quantitative: executing the matcher's filters on the
region servers ships only the surviving rows to the client, while
client-side filtering ships everything.  Region servers therefore meter
rows scanned, rows shipped, and approximate bytes shipped on the
registry's ``hbase_*_total`` counters, and also count one in-memory
``Store`` object per (region, column family) — the §5.2.2 argument
against the table-per-feature-type model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping

from ..observability import MetricsRegistry, get_registry
from .filters import Filter, deserialize_filter
from .region import Region

if TYPE_CHECKING:
    from ..chaos import FaultInjector

__all__ = ["RegionServer"]


def _approx_row_bytes(row: Mapping[str, Mapping[str, Any]]) -> int:
    """Rough wire size of a row (repr length is adequate for metering)."""
    total = 0
    for family, columns in row.items():
        total += len(family)
        for qualifier, value in columns.items():
            total += len(qualifier) + len(repr(value))
    return total


class RegionServer:
    """One HRegionServer hosting a set of regions."""

    def __init__(
        self,
        server_id: int,
        registry: MetricsRegistry | None = None,
        chaos: "FaultInjector | None" = None,
    ) -> None:
        self.server_id = server_id
        self._regions: list[Region] = []
        #: Observability sink; None falls back to the module default.
        self.registry = registry
        #: Fault injector (resolved by the owning cluster; None = off).
        self.chaos = chaos

    # ------------------------------------------------------------------
    def assign(self, region: Region) -> None:
        self._regions.append(region)

    def unassign(self, region: Region) -> None:
        self._regions.remove(region)

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions)

    def num_store_objects(self) -> int:
        """In-memory Store objects: one per (hosted region, column family).

        This is the §5.2.2 load metric that makes one-table-per-feature-type
        strictly worse than the row-key-prefix model.
        """
        return sum(len(region.families) for region in self._regions)

    # ------------------------------------------------------------------
    def scan_region(
        self,
        region: Region,
        start: str | None = None,
        stop: str | None = None,
        filter_payload: Mapping[str, Any] | None = None,
    ) -> Iterator[tuple[str, dict[str, dict[str, Any]]]]:
        """Serve a scan over one hosted region.

        Args:
            filter_payload: a serialized filter; deserialized and applied
                *here*, before rows are shipped (the pushdown mechanism).
        """
        if region not in self._regions:
            raise ValueError(f"region {region!r} not hosted by server {self.server_id}")
        if self.chaos is not None:
            self.chaos.on_operation("scan", server_id=self.server_id)
        registry = get_registry(self.registry)
        scanned_counter = registry.counter(
            "hbase_rows_scanned_total", "rows read by region-server scans"
        )
        shipped_counter = registry.counter(
            "hbase_rows_shipped_total", "rows shipped to clients by scans"
        )
        bytes_counter = registry.counter(
            "hbase_bytes_shipped_total",
            "approximate bytes of the rows scans shipped to clients",
        )
        filter_counter = registry.counter(
            "hbase_filter_evaluations_total",
            "pushed-down filter evaluations on region servers",
        )
        registry.counter(
            "hbase_scans_served_total", "scans served by region servers"
        ).inc()
        filt: Filter | None = None
        if filter_payload is not None:
            filt = deserialize_filter(filter_payload)
        for row_key, row in region.scan(start, stop):
            scanned_counter.inc()
            if filt is not None:
                filter_counter.inc()
                if not filt.matches(row_key, row):
                    continue
            shipped_counter.inc()
            bytes_counter.inc(_approx_row_bytes(row))
            yield row_key, row

    def scan_region_batch(
        self,
        region: Region,
        start: str | None = None,
        stop: str | None = None,
        filter_payload: Mapping[str, Any] | None = None,
        batch: int = 64,
    ) -> Iterator[list[tuple[str, dict[str, dict[str, Any]]]]]:
        """Serve a scan in row *chunks* of up to ``batch`` rows each.

        The real-HBase ``Scan.setCaching``/RPC-chunking shape: one server
        round trip ships many rows.  Filtering, metering, and fault
        injection are exactly those of :meth:`scan_region` — this wraps
        the same row stream, so batched and unbatched scans ship
        identical rows in identical order.
        """
        if batch < 1:
            raise ValueError("batch must be at least 1")
        chunk: list[tuple[str, dict[str, dict[str, Any]]]] = []
        for item in self.scan_region(region, start, stop, filter_payload):
            chunk.append(item)
            if len(chunk) >= batch:
                yield chunk
                chunk = []
        if chunk:
            yield chunk
