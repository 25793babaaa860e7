"""HBase substrate: a column-family store with regions and filter pushdown.

An in-memory reproduction of the HBase machinery PStorM's profile store
relies on (§5): row-key-sorted regions hosted by region servers, a
.META.-style catalog, immutable-at-creation column families, scans, and
serializable filters applied server-side.
"""

from .catalog import CatalogEntry, MetaCatalog
from .cluster import HBaseCluster
from .bloom import BloomFilter
from .errors import (
    RETRYABLE_ERRORS,
    CorruptSSTableError,
    CorruptWalError,
    HBaseError,
    ServerUnavailableError,
    SimulatedCrashError,
    TableExistsError,
    TableNotFoundError,
    TransientError,
    UnknownColumnFamilyError,
    UnknownFilterError,
)
from .filters import (
    ColumnValueFilter,
    Filter,
    FilterList,
    PrefixFilter,
    RowRangeFilter,
    deserialize_filter,
    register_filter,
    serialize_filter,
)
from .region import Cell, Region, decode_cells, encode_cells
from .regionserver import RegionServer, ServerMetrics
from .sstable import BlockCache, BlockFile, BlockMeta
from .storage import TOMBSTONE, LsmStore, ProbeResult, SSTable
from .table import HTable
from .wal import WalRecord, WriteAheadLog, decode_frame, decode_frames, encode_frame

__all__ = [
    "CatalogEntry",
    "MetaCatalog",
    "HBaseCluster",
    "HBaseError",
    "TableExistsError",
    "TableNotFoundError",
    "UnknownColumnFamilyError",
    "UnknownFilterError",
    "TransientError",
    "ServerUnavailableError",
    "CorruptWalError",
    "CorruptSSTableError",
    "SimulatedCrashError",
    "RETRYABLE_ERRORS",
    "ColumnValueFilter",
    "Filter",
    "FilterList",
    "PrefixFilter",
    "RowRangeFilter",
    "deserialize_filter",
    "register_filter",
    "serialize_filter",
    "Cell",
    "Region",
    "encode_cells",
    "decode_cells",
    "RegionServer",
    "ServerMetrics",
    "BloomFilter",
    "BlockCache",
    "BlockFile",
    "BlockMeta",
    "SSTable",
    "ProbeResult",
    "TOMBSTONE",
    "LsmStore",
    "WalRecord",
    "WriteAheadLog",
    "encode_frame",
    "decode_frame",
    "decode_frames",
    "HTable",
]
