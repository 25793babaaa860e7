"""Regions: horizontally partitioned, row-key-sorted storage units.

A region holds all rows of one table in a contiguous key range
``[start_key, end_key)``.  Rows map column families to qualifier->cell
maps.  Each qualifier keeps exactly one version — HBase's default
``VERSIONS`` of 1 — stamped with a logical timestamp, so a row write
costs the size of the row, never the length of its history.  Rows are
copy-on-write: a mutation builds a new row map and never touches the
one the store returned, which may belong to a flushed SSTable, a cached
block or a logged WAL record.

Each region owns one :class:`~repro.hbase.storage.LsmStore` — the row
maps are its values — so every row write takes the full HBase write
path (WAL append, memstore, flush, leveled compaction), and a region
built on a ``data_dir``-backed store is durable: the cluster hands
restored regions a recovered store and the rows come back from
SSTables plus the WAL tail.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from .errors import UnknownColumnFamilyError
from .storage import LsmStore

__all__ = ["Cell", "Region", "encode_cells", "decode_cells"]


class _TimestampOracle:
    """Process-wide logical cell clock; replayed cells push it forward
    so timestamps stay monotone across a restore."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def __next__(self) -> int:
        self._value += 1
        return self._value

    def ensure_above(self, timestamp: int) -> None:
        if timestamp > self._value:
            self._value = timestamp


_timestamp_counter = _TimestampOracle()


@dataclass(frozen=True)
class Cell:
    """The one stored version of a qualifier's value."""

    value: Any
    timestamp: int


def encode_cells(row: dict[str, dict[str, Cell]]) -> dict[str, Any]:
    """Serialize a row (family -> qualifier -> cell) to JSON form.

    Each qualifier encodes as a one-element ``[[value, timestamp]]``
    list: the on-disk shape older directories wrote with full histories.
    """
    return {
        family: {
            qualifier: [[cell.value, cell.timestamp]]
            for qualifier, cell in columns.items()
        }
        for family, columns in row.items()
    }


def decode_cells(payload: dict[str, Any]) -> dict[str, dict[str, Cell]]:
    """Rebuild a row from its JSON form, advancing the timestamp oracle
    past every replayed cell so new writes stay newest.

    A legacy multi-version list keeps only its newest (last) cell — the
    one every reader returned — so a directory written with deep
    histories reads the same and sheds them at its next write or
    compaction.
    """
    row: dict[str, dict[str, Cell]] = {}
    for family, columns in payload.items():
        decoded: dict[str, Cell] = {}
        for qualifier, cells in columns.items():
            value, timestamp = cells[-1]
            _timestamp_counter.ensure_above(int(timestamp))
            decoded[qualifier] = Cell(value=value, timestamp=int(timestamp))
        row[family] = decoded
    return row


class Region:
    """A sorted slice of a table's row space.

    Attributes:
        table_name: owning table.
        start_key: inclusive lower bound (``""`` = unbounded).
        end_key: exclusive upper bound (``None`` = unbounded).
        store: the backing LSM store (an in-memory one is created when
            not supplied; the cluster supplies durable ones).
    """

    def __init__(
        self,
        table_name: str,
        families: tuple[str, ...],
        start_key: str = "",
        end_key: str | None = None,
        store: LsmStore | None = None,
    ) -> None:
        self.table_name = table_name
        self.families = families
        self.start_key = start_key
        self.end_key = end_key
        if store is None:
            store = LsmStore(value_encoder=encode_cells, value_decoder=decode_cells)
        self.store = store

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.store.num_keys

    # ------------------------------------------------------------------
    def put_row(
        self,
        row_key: str,
        family: str,
        columns: Mapping[str, Any],
        replace: bool = False,
    ) -> None:
        """Write several cells of one row in one family as one row
        mutation: one copy-on-write row, one LSM write, one WAL record.

        Each written qualifier's cell replaces its previous version.
        With *replace* the family holds exactly *columns* afterwards —
        an HBase family ``Delete`` plus the ``Put``, as one mutation —
        so qualifiers an earlier write set and this one omits are gone.
        """
        if family not in self.families:
            raise UnknownColumnFamilyError(
                f"table {self.table_name!r} has no column family {family!r}"
            )
        found, old, __ = self.store.get(row_key)
        row = dict(old) if found else {f: {} for f in self.families}
        timestamp = next(_timestamp_counter)
        cells = {} if replace else dict(row[family])
        for qualifier, value in columns.items():
            cells[qualifier] = Cell(value=value, timestamp=timestamp)
        row[family] = cells
        self.store.put(row_key, row)

    def put(self, row_key: str, family: str, qualifier: str, value: Any) -> None:
        """Write one cell: :meth:`put_row` with one column."""
        self.put_row(row_key, family, {qualifier: value})

    def delete_row(self, row_key: str) -> bool:
        """Tombstone a whole row; returns whether it existed."""
        found, __, __ = self.store.get(row_key)
        if not found:
            return False
        self.store.delete(row_key)
        return True

    # ------------------------------------------------------------------
    def get(self, row_key: str) -> dict[str, dict[str, Any]] | None:
        """Latest-version view of one row, or None."""
        found, row, __ = self.store.get(row_key)
        if not found:
            return None
        return self._latest_view(row)

    @staticmethod
    def _latest_view(row: dict[str, dict[str, Cell]]) -> dict[str, dict[str, Any]]:
        return {
            family: {qual: cell.value for qual, cell in columns.items()}
            for family, columns in row.items()
            if columns
        }

    def scan(
        self, start: str | None = None, stop: str | None = None
    ) -> Iterator[tuple[str, dict[str, dict[str, Any]]]]:
        """Yield ``(row_key, row)`` in key order within [start, stop)."""
        keys, rows = self.store.sorted_view()
        lo = bisect.bisect_left(keys, start) if start is not None else 0
        hi = bisect.bisect_left(keys, stop) if stop is not None else len(keys)
        for key in keys[lo:hi]:
            yield key, self._latest_view(rows[key])

    # ------------------------------------------------------------------
    def split(
        self, make_store: Callable[[], LsmStore] | None = None
    ) -> tuple["Region", "Region"]:
        """Split this region at its median key into two daughters.

        *make_store* supplies each daughter's backing store (the cluster
        passes a durable factory); rows copy with their one cell per
        qualifier and its timestamp, so reads are preserved.
        """
        keys, rows = self.store.sorted_view()
        if len(keys) < 2:
            raise ValueError("cannot split a region with fewer than 2 rows")
        mid_key = keys[len(keys) // 2]
        left = Region(
            self.table_name,
            self.families,
            self.start_key,
            mid_key,
            store=make_store() if make_store is not None else None,
        )
        right = Region(
            self.table_name,
            self.families,
            mid_key,
            self.end_key,
            store=make_store() if make_store is not None else None,
        )
        with left.store.deferred(), right.store.deferred():
            for key in keys:
                target = left if key < mid_key else right
                target.store.put(key, rows[key])
        return left, right

    @classmethod
    def merge(
        cls,
        left: "Region",
        right: "Region",
        make_store: Callable[[], LsmStore] | None = None,
    ) -> "Region":
        """Merge two *adjacent* regions into one spanning both ranges.

        The inverse of :meth:`split`: rows copy with their one cell per
        qualifier into one region covering ``[left.start_key,
        right.end_key)``.  Raises ``ValueError`` unless the regions are
        key-adjacent siblings of the same table.
        """
        if left.table_name != right.table_name:
            raise ValueError("cannot merge regions of different tables")
        if left.end_key != right.start_key:
            raise ValueError(
                f"regions are not adjacent: [{left.start_key!r}, "
                f"{left.end_key!r}) / [{right.start_key!r}, {right.end_key!r})"
            )
        merged = cls(
            left.table_name,
            left.families,
            left.start_key,
            right.end_key,
            store=make_store() if make_store is not None else None,
        )
        with merged.store.deferred():
            for source in (left, right):
                keys, rows = source.store.sorted_view()
                for key in keys:
                    merged.store.put(key, rows[key])
        return merged

    def __repr__(self) -> str:
        end = self.end_key if self.end_key is not None else "∞"
        return (
            f"Region({self.table_name!r}, [{self.start_key!r}, {end!r}), "
            f"rows={self.num_rows})"
        )
