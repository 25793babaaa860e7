"""HDFS block placement and data-locality modelling.

The engine's default assumption — task placement uniform at random with a
single HDFS read rate — hides a real Hadoop mechanism: the JobTracker
prefers scheduling a map task on a node holding one of its split's block
replicas, because a *local* read streams from disk while a *remote* read
crosses the network.  This module models the NameNode's placement map
(default 3 replicas per block, random placement like HDFS's
non-rack-aware default) and computes locality statistics the engine uses
to price READ phases: with R replicas on N nodes and S free slots per
wave, the probability a task runs node-local follows from how many waves
deep the scheduler has to look.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterSpec

__all__ = ["BlockPlacement", "LocalityStats", "place_blocks", "expected_locality"]

DEFAULT_REPLICATION = 3


@dataclass(frozen=True)
class BlockPlacement:
    """The NameNode's map: block (split) index -> replica holders."""

    num_blocks: int
    replication: int
    #: ``replicas[i]`` is the tuple of node ids holding block i.
    replicas: tuple[tuple[int, ...], ...]

    def holders(self, block: int) -> tuple[int, ...]:
        return self.replicas[block]

    def is_local(self, block: int, node_id: int) -> bool:
        return node_id in self.replicas[block]

    def blocks_on(self, node_id: int) -> list[int]:
        return [
            block
            for block, holders in enumerate(self.replicas)
            if node_id in holders
        ]


def place_blocks(
    num_blocks: int,
    cluster: ClusterSpec,
    replication: int = DEFAULT_REPLICATION,
    seed: int = 0,
) -> BlockPlacement:
    """Place blocks with HDFS's default random replica choice."""
    if num_blocks < 0:
        raise ValueError("num_blocks must be non-negative")
    nodes = cluster.num_workers
    replication = min(replication, nodes)
    rng = np.random.default_rng(seed)
    node_ids = cluster.node_ids.tolist()
    replicas = tuple(
        tuple(
            node_ids[n]
            for n in rng.choice(nodes, size=replication, replace=False).tolist()
        )
        for __ in range(num_blocks)
    )
    return BlockPlacement(
        num_blocks=num_blocks, replication=replication, replicas=replicas
    )


@dataclass(frozen=True)
class LocalityStats:
    """Measured locality of one greedy, locality-aware schedule."""

    local_tasks: int
    remote_tasks: int

    @property
    def total(self) -> int:
        return self.local_tasks + self.remote_tasks

    @property
    def local_fraction(self) -> float:
        return self.local_tasks / self.total if self.total else 1.0


def expected_locality(
    placement: BlockPlacement,
    cluster: ClusterSpec,
    seed: int = 0,
) -> LocalityStats:
    """Simulate Hadoop's locality-aware wave scheduling.

    Greedy model: each wave fills every map slot; a slot on node *n*
    first takes an unscheduled block with a replica on *n*, else steals a
    remote one (the classic locality/throughput trade-off).  Returns how
    many tasks ran local versus remote — what the engine needs to weight
    local-disk versus network read rates.
    """
    rng = np.random.default_rng(seed)
    pending: set[int] = set(range(placement.num_blocks))
    by_node: dict[int, list[int]] = {
        worker.node_id: [] for worker in cluster.workers
    }
    for block, holders in enumerate(placement.replicas):
        for node in holders:
            by_node[node].append(block)

    slots = [
        worker.node_id
        for worker in cluster.workers
        for __ in range(worker.map_slots)
    ]

    local = 0
    remote = 0
    while pending:
        for node in slots:
            if not pending:
                break
            candidates = [b for b in by_node[node] if b in pending]
            if candidates:
                choice = candidates[int(rng.integers(0, len(candidates)))]
                pending.discard(choice)
                local += 1
            else:
                choice = min(pending)
                pending.discard(choice)
                remote += 1
    return LocalityStats(local_tasks=local, remote_tasks=remote)
