"""Cluster model: nodes, task slots, memory, and per-node cost rates.

The paper evaluates on 16 Amazon EC2 ``c1.medium`` nodes (1 master + 15
workers, 2 map slots and 2 reduce slots each, 300 MB task heaps).  We model a
cluster as a set of worker nodes with IO/CPU/network cost rates drawn around
cluster-wide base rates.  Per-task utilization noise reproduces the
heterogeneity the paper leans on: *cost factors* measured from two samples of
the same job differ, while *data flow statistics* do not (§4.1.1).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "CostRates",
    "RATE_FIELDS",
    "TaskRates",
    "WorkerNode",
    "ClusterSpec",
    "ec2_cluster",
]


@dataclass(frozen=True)
class CostRates:
    """Cost rates for one node, in the units of Table 4.2.

    IO and network rates are in nanoseconds per byte; CPU rates are in
    nanoseconds per record of framework overhead (user function cost is
    measured by actually running the function, see the engines).
    """

    read_hdfs_ns_per_byte: float
    write_hdfs_ns_per_byte: float
    read_local_ns_per_byte: float
    write_local_ns_per_byte: float
    network_ns_per_byte: float
    cpu_ns_per_record: float
    compress_ns_per_byte: float
    decompress_ns_per_byte: float

    def scaled(self, factor: float) -> "CostRates":
        """Return rates uniformly scaled by *factor* (utilization noise)."""
        return CostRates(
            read_hdfs_ns_per_byte=self.read_hdfs_ns_per_byte * factor,
            write_hdfs_ns_per_byte=self.write_hdfs_ns_per_byte * factor,
            read_local_ns_per_byte=self.read_local_ns_per_byte * factor,
            write_local_ns_per_byte=self.write_local_ns_per_byte * factor,
            network_ns_per_byte=self.network_ns_per_byte * factor,
            cpu_ns_per_record=self.cpu_ns_per_record * factor,
            compress_ns_per_byte=self.compress_ns_per_byte * factor,
            decompress_ns_per_byte=self.decompress_ns_per_byte * factor,
        )


#: :class:`CostRates` field names, in declaration order.
RATE_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(CostRates))
#: Which utilization factor (0 disk, 1 network, 2 CPU) scales each rate.
_RATE_FACTOR = [0, 0, 0, 0, 1, 2, 2, 2]


class TaskRates(NamedTuple):
    """Placement and effective cost rates of a run's tasks, as columns.

    ``worker`` is each task's position in :attr:`ClusterSpec.workers`;
    ``rates`` has one row per :data:`RATE_FIELDS` entry and one column
    per task, in task order.
    """

    worker: np.ndarray
    rates: np.ndarray


#: Base rates loosely calibrated to a c1.medium-era node: ~60 MB/s HDFS
#: streaming reads, ~50 MB/s HDFS writes (pipelined replication), faster local
#: disk, ~1 Gb/s shared network, and low per-record framework overhead.
_DEFAULT_BASE_RATES = CostRates(
    read_hdfs_ns_per_byte=16.0,
    write_hdfs_ns_per_byte=25.0,
    read_local_ns_per_byte=9.0,
    write_local_ns_per_byte=12.0,
    network_ns_per_byte=22.0,
    cpu_ns_per_record=350.0,
    # Gzip-era codec rates (~33 MB/s compressing, ~100 MB/s decompressing
    # on one c1.medium core): compression is a real trade-off, not a free
    # win — blindly enabling it can hurt CPU-bound jobs, which is how the
    # RBO's compression rule misfires (Fig 6.3, inverted index).
    compress_ns_per_byte=30.0,
    decompress_ns_per_byte=10.0,
)


@dataclass(frozen=True)
class WorkerNode:
    """One TaskTracker/DataNode machine."""

    node_id: int
    map_slots: int
    reduce_slots: int
    task_heap_bytes: int
    base_rates: CostRates
    #: Log-normal sigma of per-task utilization noise on this node.
    utilization_sigma: float


@dataclass(frozen=True)
class ClusterSpec:
    """A Hadoop cluster: a set of worker nodes plus one master.

    The master (JobTracker/NameNode) does not run tasks and is not modelled
    beyond scheduling; worker nodes provide map and reduce slots.
    """

    workers: tuple[WorkerNode, ...]
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("a cluster needs at least one worker node")

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def total_map_slots(self) -> int:
        return sum(node.map_slots for node in self.workers)

    @property
    def total_reduce_slots(self) -> int:
        return sum(node.reduce_slots for node in self.workers)

    @property
    def task_heap_bytes(self) -> int:
        """Heap available to a single task JVM (uniform across workers)."""
        return self.workers[0].task_heap_bytes

    @cached_property
    def node_ids(self) -> np.ndarray:
        """Each worker's :attr:`WorkerNode.node_id`, by position."""
        ids = np.array([node.node_id for node in self.workers], dtype=np.int64)
        ids.flags.writeable = False
        return ids

    @cached_property
    def base_rate_matrix(self) -> np.ndarray:
        """Each worker's base rates: one row per rate, one column per node."""
        matrix = np.array([astuple(node.base_rates) for node in self.workers]).T
        matrix.flags.writeable = False
        return matrix

    def draw_task_rates(self, count: int, rng: np.random.Generator) -> TaskRates:
        """Place *count* tasks and draw their effective cost rates.

        Placement is uniform at random, as data-local scheduling over
        randomly placed HDFS blocks is statistically uniform.  Transient
        co-located load hits each resource differently — a neighbour's
        shuffle saturates the NIC without touching the disks — so disk,
        network, and CPU draw *independent* log-normal factors around the
        node's base rates.  This per-task noise is the source of the
        cost-factor variance that makes cost factors unsuitable as primary
        matching features (§4.1.1).

        Each task takes one scalar placement draw and then its node's
        three noise draws, in task order.  The scalar draw interleaves
        with the noise draws, so the stream cannot be drawn as whole
        vectors without changing every simulated number.
        """
        workers = len(self.workers)
        sigmas = [node.utilization_sigma for node in self.workers]
        integers = rng.integers
        lognormal = rng.lognormal
        positions = []
        factors = []
        for __ in range(count):
            position = int(integers(0, workers))
            positions.append(position)
            factors.extend(lognormal(0.0, sigmas[position], 3).tolist())
        worker = np.array(positions, dtype=np.intp)
        noise = np.array(factors).reshape(count, 3).T
        rates = self.base_rate_matrix[:, worker] * noise[_RATE_FACTOR, :]
        return TaskRates(worker=worker, rates=rates)


def ec2_cluster(
    num_workers: int = 15,
    map_slots_per_node: int = 2,
    reduce_slots_per_node: int = 2,
    task_heap_mb: int = 300,
    base_rates: CostRates = _DEFAULT_BASE_RATES,
    utilization_sigma: float = 0.06,
    node_skew_sigma: float = 0.08,
    seed: int = 7,
) -> ClusterSpec:
    """Build the paper's evaluation cluster (§6: 15 workers, 2+2 slots).

    Args:
        num_workers: worker (TaskTracker) count; the paper uses 15.
        map_slots_per_node: map slots per worker; the paper uses 2.
        reduce_slots_per_node: reduce slots per worker; the paper uses 2.
        task_heap_mb: per-task JVM heap; the paper uses 300 MB.
        base_rates: cluster-wide base cost rates.
        utilization_sigma: per-task log-normal utilization noise.
        node_skew_sigma: permanent per-node rate skew (hardware variation).
        seed: RNG seed for the per-node skew draw.

    Returns:
        A :class:`ClusterSpec` with heterogeneous but fixed node rates.
    """
    rng = np.random.default_rng(seed)
    workers = []
    for node_id in range(num_workers):
        skew = float(rng.lognormal(mean=0.0, sigma=node_skew_sigma))
        workers.append(
            WorkerNode(
                node_id=node_id,
                map_slots=map_slots_per_node,
                reduce_slots=reduce_slots_per_node,
                task_heap_bytes=task_heap_mb * 1024 * 1024,
                base_rates=base_rates.scaled(skew),
                utilization_sigma=utilization_sigma,
            )
        )
    return ClusterSpec(workers=tuple(workers), name=f"ec2-{num_workers}w")
