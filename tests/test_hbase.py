"""Unit tests for the HBase substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.hbase import (
    ColumnValueFilter,
    FilterList,
    HBaseCluster,
    PrefixFilter,
    RowRangeFilter,
    TableExistsError,
    TableNotFoundError,
    UnknownColumnFamilyError,
    UnknownFilterError,
    deserialize_filter,
    serialize_filter,
)
from repro.hbase.region import Region
from repro.observability import MetricsRegistry


@pytest.fixture()
def cluster():
    return HBaseCluster(num_region_servers=2, split_threshold=16)


@pytest.fixture()
def table(cluster):
    return cluster.create_table("t", ("f",))


class TestRegion:
    def test_put_get_latest_version(self):
        region = Region("t", ("f",))
        region.put("r1", "f", "c", 1)
        region.put("r1", "f", "c", 2)
        assert region.get("r1") == {"f": {"c": 2}}

    def test_unknown_family_rejected(self):
        region = Region("t", ("f",))
        with pytest.raises(UnknownColumnFamilyError):
            region.put("r1", "g", "c", 1)

    def test_scan_ordered_and_bounded(self):
        region = Region("t", ("f",))
        for key in ("c", "a", "b", "d"):
            region.put(key, "f", "x", key)
        keys = [k for k, __ in region.scan("b", "d")]
        assert keys == ["b", "c"]

    def test_delete_row(self):
        region = Region("t", ("f",))
        region.put("r", "f", "c", 1)
        assert region.delete_row("r")
        assert not region.delete_row("r")
        assert region.get("r") is None

    def test_split_partitions_rows(self):
        region = Region("t", ("f",))
        for i in range(10):
            region.put(f"r{i}", "f", "c", i)
        left, right = region.split()
        assert left.num_rows + right.num_rows == 10
        assert left.end_key == right.start_key
        assert all(k < left.end_key for k, __ in left.scan())
        assert all(k >= right.start_key for k, __ in right.scan())

    def test_split_requires_two_rows(self):
        region = Region("t", ("f",))
        region.put("only", "f", "c", 1)
        with pytest.raises(ValueError):
            region.split()


class TestTableLifecycle:
    def test_create_duplicate_rejected(self, cluster):
        cluster.create_table("dup", ("f",))
        with pytest.raises(TableExistsError):
            cluster.create_table("dup", ("f",))

    def test_open_missing_rejected(self, cluster):
        with pytest.raises(TableNotFoundError):
            cluster.table("missing")

    def test_drop_table(self, cluster):
        cluster.create_table("gone", ("f",))
        cluster.drop_table("gone")
        with pytest.raises(TableNotFoundError):
            cluster.table("gone")

    def test_families_required(self, cluster):
        with pytest.raises(ValueError):
            cluster.create_table("nf", ())


class TestPutGetScan:
    def test_roundtrip(self, table):
        table.put("row", "f", "col", {"nested": [1, 2]})
        assert table.get("row") == {"f": {"col": {"nested": [1, 2]}}}

    def test_get_missing_is_none(self, table):
        assert table.get("nope") is None

    def test_put_row_multiple_columns(self, table):
        table.put_row("r", "f", {"a": 1, "b": 2})
        assert table.get("r") == {"f": {"a": 1, "b": 2}}

    def test_scan_all_sorted(self, table):
        for key in ("z", "m", "a"):
            table.put(key, "f", "c", key)
        assert [k for k, __ in table.scan()] == ["a", "m", "z"]

    def test_num_rows(self, table):
        for i in range(5):
            table.put(f"k{i}", "f", "c", i)
        assert table.num_rows() == 5

    def test_region_splits_keep_data(self, cluster, table):
        for i in range(100):
            table.put(f"key{i:03d}", "f", "c", i)
        assert table.num_rows() == 100
        assert len(cluster.catalog.regions_of("t")) > 1
        assert [k for k, __ in table.scan()] == sorted(f"key{i:03d}" for i in range(100))

    def test_routing_after_split(self, cluster, table):
        for i in range(100):
            table.put(f"key{i:03d}", "f", "c", i)
        assert table.get("key050") == {"f": {"c": 50}}
        table.put("key050", "f", "c", -1)
        assert table.get("key050") == {"f": {"c": -1}}


class TestBatchedScan:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_batched_scan_equals_unbatched(self, cluster, table, batch):
        for i in range(100):  # enough rows to force region splits
            table.put(f"key{i:03d}", "f", "c", i)
        assert len(cluster.catalog.regions_of("t")) > 1
        unbatched = list(table.scan())
        assert list(table.scan(batch=batch)) == unbatched

    def test_batched_scan_with_range_and_filter(self, table):
        for i in range(30):
            table.put(f"key{i:03d}", "f", "c", i)
        scan_filter = ColumnValueFilter("f", "c", "<=", 20)
        unbatched = list(table.scan("key005", "key025", scan_filter))
        batched = list(table.scan("key005", "key025", scan_filter, batch=4))
        assert batched == unbatched
        assert [k for k, __ in batched] == [f"key{i:03d}" for i in range(5, 21)]

    def test_batch_must_be_positive(self, table):
        table.put("r", "f", "c", 1)
        with pytest.raises(ValueError):
            list(table.scan(batch=0))


class TestFilters:
    def test_prefix_filter(self, table):
        table.put("Static/j1", "f", "c", 1)
        table.put("Dynamic/j1", "f", "c", 2)
        rows = list(table.scan(scan_filter=PrefixFilter("Static/")))
        assert [k for k, __ in rows] == ["Static/j1"]

    def test_row_range_filter(self, table):
        for key in ("a", "b", "c"):
            table.put(key, "f", "c", 1)
        rows = list(table.scan(scan_filter=RowRangeFilter(start="b")))
        assert [k for k, __ in rows] == ["b", "c"]

    def test_column_value_filter_ops(self, table):
        table.put("r1", "f", "v", 5)
        table.put("r2", "f", "v", 10)
        rows = list(table.scan(scan_filter=ColumnValueFilter("f", "v", ">", 7)))
        assert [k for k, __ in rows] == ["r2"]

    def test_column_value_filter_missing_column_fails(self, table):
        table.put("r1", "f", "other", 1)
        rows = list(table.scan(scan_filter=ColumnValueFilter("f", "v", "==", 1)))
        assert rows == []

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            ColumnValueFilter("f", "v", "~", 1)

    def test_filter_list_and_or(self, table):
        table.put("a1", "f", "v", 1)
        table.put("a2", "f", "v", 2)
        and_filter = FilterList(
            [PrefixFilter("a"), ColumnValueFilter("f", "v", "==", 2)], mode="AND"
        )
        or_filter = FilterList(
            [ColumnValueFilter("f", "v", "==", 1), ColumnValueFilter("f", "v", "==", 2)],
            mode="OR",
        )
        assert [k for k, __ in table.scan(scan_filter=and_filter)] == ["a2"]
        assert len(list(table.scan(scan_filter=or_filter))) == 2

    def test_serialization_roundtrip(self):
        original = FilterList(
            [PrefixFilter("x"), ColumnValueFilter("f", "v", "<=", 3)], mode="OR"
        )
        restored = deserialize_filter(serialize_filter(original))
        assert isinstance(restored, FilterList)
        assert restored.mode == "OR"
        assert len(restored.filters) == 2

    def test_unknown_filter_type_rejected(self):
        with pytest.raises(UnknownFilterError):
            deserialize_filter({"type": "no-such-filter"})

    @given(st.text(min_size=1, max_size=10), st.text(max_size=10))
    def test_prefix_filter_semantics(self, prefix, key):
        assert PrefixFilter(prefix).matches(key, {}) == key.startswith(prefix)


class TestPushdownMetrics:
    def test_pushdown_ships_fewer_rows(self):
        registry = MetricsRegistry()
        cluster = HBaseCluster(
            num_region_servers=2, split_threshold=16, registry=registry
        )
        table = cluster.create_table("t", ("f",))
        for i in range(50):
            table.put(f"k{i:02d}", "f", "v", i)
        filt = ColumnValueFilter("f", "v", "<", 5)
        shipped = registry.counter("hbase_rows_shipped_total")

        before = shipped.value
        matched = list(table.scan(scan_filter=filt, pushdown=True))
        shipped_pushdown = shipped.value - before

        before = shipped.value
        matched_client = list(table.scan(scan_filter=filt, pushdown=False))
        shipped_client = shipped.value - before

        assert [k for k, __ in matched] == [k for k, __ in matched_client]
        assert shipped_pushdown == 5
        assert shipped_client == 50

    def test_store_objects_count(self, cluster):
        before = cluster.total_store_objects()
        cluster.create_table("another", ("f1", "f2"))
        assert cluster.total_store_objects() == before + 2

    def test_catalog_meta_rows(self, cluster, table):
        rows = cluster.catalog.meta_rows("t")
        assert rows
        assert rows[0].meta_key.startswith("t,")
