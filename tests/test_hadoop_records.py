"""Unit tests for record sizing and writable type naming."""

import enum
from collections import namedtuple
from typing import Any

import pytest
from hypothesis import given, strategies as st

from repro.hadoop.records import pair_size, serialized_size, writable_type_name


def reference_serialized_size(value: Any) -> int:
    """The isinstance chain ``serialized_size`` used before its exact-type
    fast path."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return 4 + sum(reference_serialized_size(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            reference_serialized_size(k) + reference_serialized_size(v)
            for k, v in value.items()
        )
    raise TypeError(f"cannot size value of type {type(value).__name__}")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str):
    pass


_Pair = namedtuple("_Pair", "key value")

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from(list(_Level)),
    st.text(max_size=8).map(_Name),
)
_hashable = st.recursive(
    _leaves,
    lambda inner: st.tuples(inner, inner).map(lambda t: _Pair(*t))
    | st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(inner, max_size=3),
    max_leaves=8,
)
_values = st.recursive(
    _hashable,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_hashable, inner, max_size=3)
    | st.tuples(inner, inner).map(lambda t: _Pair(*t)),
    max_leaves=12,
)


class TestSerializedSize:
    def test_primitives(self):
        assert serialized_size(None) == 0
        assert serialized_size(True) == 1
        assert serialized_size(7) == 8
        assert serialized_size(3.14) == 8

    def test_string_counts_length_plus_header(self):
        assert serialized_size("") == 4
        assert serialized_size("abcd") == 8

    def test_bytes(self):
        assert serialized_size(b"xyz") == 7

    def test_tuple_recurses(self):
        assert serialized_size((1, "ab")) == 4 + 8 + (4 + 2)

    def test_dict_counts_keys_and_values(self):
        assert serialized_size({"a": 1}) == 4 + (4 + 1) + 8

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            serialized_size(object())

    @given(_values)
    def test_fast_path_matches_isinstance_chain(self, value):
        assert serialized_size(value) == reference_serialized_size(value)

    @pytest.mark.parametrize(
        "value", [True, _Level.HIGH, _Pair("ab", 1), _Name("abc"), frozenset({1, "a"}),
                  {"a": (1, 2.0)}, ("x", True, None)],
    )
    def test_fast_path_matches_isinstance_chain_on_subclasses(self, value):
        assert serialized_size(value) == reference_serialized_size(value)

    def test_unsupported_type_nested_in_tuple_raises(self):
        with pytest.raises(TypeError):
            serialized_size(("a", object()))

    def test_pair_size_sums(self):
        assert pair_size("ab", 1) == serialized_size("ab") + serialized_size(1)

    @given(st.text(max_size=200))
    def test_string_size_monotone_in_length(self, text):
        assert serialized_size(text) == 4 + len(text)

    @given(st.lists(st.integers(), max_size=30))
    def test_list_size_linear(self, values):
        assert serialized_size(values) == 4 + 8 * len(values)

    @given(
        st.recursive(
            st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=5)),
            lambda inner: st.tuples(inner, inner),
            max_leaves=10,
        )
    )
    def test_size_always_non_negative(self, value):
        assert serialized_size(value) >= 0


class TestWritableTypeName:
    def test_scalar_names(self):
        assert writable_type_name(1) == "LongWritable"
        assert writable_type_name(1.5) == "DoubleWritable"
        assert writable_type_name("x") == "Text"
        assert writable_type_name(None) == "NullWritable"
        assert writable_type_name(True) == "BooleanWritable"

    def test_tuple_carries_element_types(self):
        assert writable_type_name(("a", 1)) == "TupleWritable<Text,LongWritable>"

    def test_nested_tuple_bounded_depth(self):
        name = writable_type_name((("a", "b"), 1))
        assert name == "TupleWritable<TupleWritable,LongWritable>"

    def test_long_tuple_truncated(self):
        name = writable_type_name((1, 2, 3, 4, 5, 6))
        assert name.endswith(",...>")

    def test_dict_carries_key_value_types(self):
        assert writable_type_name({"w": 3}) == "MapWritable<Text,LongWritable>"

    def test_empty_dict_is_plain(self):
        assert writable_type_name({}) == "MapWritable"

    def test_same_shape_same_name(self):
        assert writable_type_name(("x", 2)) == writable_type_name(("hello", 99))
