"""Record size accounting.

The simulator executes real map/reduce callables over materialized sample
records, then extrapolates data-flow volumes to the dataset's nominal size.
That extrapolation needs a consistent notion of the *serialized size* of a
key or value, analogous to Hadoop's ``Writable`` wire format.  This module
provides that sizing for the Python types workload jobs emit.
"""

from __future__ import annotations

from typing import Any

__all__ = ["serialized_size", "pair_size", "writable_type_name"]

#: Fixed-width primitive sizes, mirroring Hadoop writables.
_INT_SIZE = 8          # LongWritable
_FLOAT_SIZE = 8        # DoubleWritable
_BOOL_SIZE = 1         # BooleanWritable
_NULL_SIZE = 0         # NullWritable
_CONTAINER_OVERHEAD = 4  # length header of variable-size writables


def serialized_size(value: Any) -> int:
    """Serialized byte size of one key or value.

    Strings count their UTF-8-ish length, numbers are fixed width, and
    containers add a small length header plus their elements, recursively.

    Raises:
        TypeError: for types no workload job should emit.
    """
    # Exact-type dispatch first: every shipped workload emits only these.
    # bool, subclasses (IntEnum, namedtuple, str subclasses) and the other
    # types fall through to the isinstance chain below.
    kind = type(value)
    if kind is str:
        return _CONTAINER_OVERHEAD + len(value)
    if kind is int:
        return _INT_SIZE
    if kind is float:
        return _FLOAT_SIZE
    if kind is tuple:
        return _CONTAINER_OVERHEAD + sum(map(serialized_size, value))
    if value is None:
        return _NULL_SIZE
    if isinstance(value, bool):
        return _BOOL_SIZE
    if isinstance(value, int):
        return _INT_SIZE
    if isinstance(value, float):
        return _FLOAT_SIZE
    if isinstance(value, str):
        return _CONTAINER_OVERHEAD + len(value)
    if isinstance(value, bytes):
        return _CONTAINER_OVERHEAD + len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return _CONTAINER_OVERHEAD + sum(serialized_size(item) for item in value)
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(
            serialized_size(k) + serialized_size(v) for k, v in value.items()
        )
    raise TypeError(f"cannot size value of type {type(value).__name__}")


def pair_size(key: Any, value: Any) -> int:
    """Serialized size of one key-value pair."""
    return serialized_size(key) + serialized_size(value)


#: Python type -> Hadoop writable class name, for static features (Table 4.3).
_WRITABLE_NAMES: dict[type, str] = {
    bool: "BooleanWritable",
    int: "LongWritable",
    float: "DoubleWritable",
    str: "Text",
    bytes: "BytesWritable",
    tuple: "TupleWritable",
    list: "ArrayWritable",
    dict: "MapWritable",
    set: "ArrayWritable",
    frozenset: "ArrayWritable",
    type(None): "NullWritable",
}


def writable_type_name(value: Any, depth: int = 1) -> str:
    """Hadoop writable class name a Python key/value would map to.

    Used when extracting the ``MAP_IN_KEY`` / ``MAP_OUT_VAL`` etc. static
    features of Table 4.3 from observed records.  Container types carry
    their element types one level deep (``TupleWritable<Text,Long>``),
    mirroring the generic type parameters a Java writable class declares —
    which is most of what makes these features discriminative.
    """
    if isinstance(value, tuple) and depth > 0:
        inner = ",".join(writable_type_name(v, depth - 1) for v in value[:4])
        if len(value) > 4:
            inner += ",..."
        return f"TupleWritable<{inner}>"
    if isinstance(value, dict) and depth > 0 and value:
        key, val = next(iter(value.items()))
        return (
            f"MapWritable<{writable_type_name(key, depth - 1)},"
            f"{writable_type_name(val, depth - 1)}>"
        )
    for python_type, name in _WRITABLE_NAMES.items():
        if isinstance(value, python_type):
            return name
    return type(value).__name__
