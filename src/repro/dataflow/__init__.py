"""Dataflow layer: a tiny Pig Latin compiled onto generic MR operators.

Makes §1's observation executable: jobs generated from a high-level query
language share static structure (operators, formatters, CFGs) and differ
only dynamically — the regime PStorM's matcher thrives in.
"""

from .compiler import compile_script
from .operators import (
    AGGREGATORS,
    COMPARATORS,
    Aggregation,
    DistinctOp,
    FilterOp,
    GroupOp,
    OrderOp,
    ProjectOp,
)
from .runtime import dataflow_map, dataflow_reduce
from .script import DataflowScript

__all__ = [
    "compile_script",
    "AGGREGATORS",
    "COMPARATORS",
    "Aggregation",
    "DistinctOp",
    "FilterOp",
    "GroupOp",
    "OrderOp",
    "ProjectOp",
    "dataflow_map",
    "dataflow_reduce",
    "DataflowScript",
]
