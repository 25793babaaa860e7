"""Task contexts: the object user map/reduce functions emit into.

Mirrors Hadoop's ``Mapper.Context`` / ``Reducer.Context``.  The context
both collects emitted pairs and does the bookkeeping the profiler needs:
record and byte counts via :func:`repro.hadoop.records.pair_size` (each
pair is sized once, at emit, and its size kept beside it), plus a
deterministic *op* counter that stands in for user-function CPU work (each
emit and each explicitly reported op contributes to the task's modelled CPU
cost — so a map function that emits one pair per word window position is
charged more than one that emits one pair per word).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .counters import Counters
from .records import pair_size

__all__ = ["TaskContext", "EMIT_OP_WEIGHT"]

#: Ops charged per emitted pair on top of any explicitly reported ops.
EMIT_OP_WEIGHT = 1


@dataclass
class TaskContext:
    """Collector for a single task attempt.

    Attributes:
        pairs: emitted ``(key, value)`` pairs, in emission order.
        sizes: serialized size of each emitted pair, parallel to *pairs*.
        records_out: number of emitted pairs.
        bytes_out: serialized size of emitted pairs.
        ops: accumulated user-function op count (CPU cost proxy).
        counters: per-task Hadoop counters.
        job_params: user-provided job parameters (e.g. co-occurrence window
            size, grep pattern), visible to the user functions like values
            from Hadoop's ``JobConf``.
    """

    job_params: dict[str, Any] = field(default_factory=dict)
    pairs: list[tuple[Any, Any]] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    records_out: int = 0
    bytes_out: int = 0
    ops: int = 0
    counters: Counters = field(default_factory=Counters)

    def emit(self, key: Any, value: Any) -> None:
        """Emit one output pair (Hadoop's ``context.write``)."""
        size = pair_size(key, value)
        self.pairs.append((key, value))
        self.sizes.append(size)
        self.records_out += 1
        self.bytes_out += size
        self.ops += EMIT_OP_WEIGHT

    # Hadoop-compatible alias.
    write = emit

    def report_ops(self, count: int) -> None:
        """Report *count* units of user-function work beyond emits.

        Workload jobs call this for per-record work that does not end in an
        emit (tokenizing, condition checks, hash probes), so the op counter
        tracks the control-flow complexity the CFG features capture.
        """
        if count < 0:
            raise ValueError("op count must be non-negative")
        self.ops += count

    def get_param(self, name: str, default: Any = None) -> Any:
        """Read a user job parameter (Hadoop's ``conf.get``)."""
        return self.job_params.get(name, default)

    def reset_output(self) -> None:
        """Clear emitted pairs while keeping counters and ops (spill drain)."""
        self.pairs = []
        self.sizes = []
