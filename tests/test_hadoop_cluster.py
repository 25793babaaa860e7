"""Unit tests for the cluster model."""

import numpy as np
import pytest

from pricing_oracle import reference_node_for_task, reference_sample_rates
from repro.hadoop.cluster import (
    RATE_FIELDS,
    ClusterSpec,
    CostRates,
    WorkerNode,
    ec2_cluster,
)


@pytest.fixture()
def rates():
    return CostRates(
        read_hdfs_ns_per_byte=16.0,
        write_hdfs_ns_per_byte=25.0,
        read_local_ns_per_byte=9.0,
        write_local_ns_per_byte=12.0,
        network_ns_per_byte=22.0,
        cpu_ns_per_record=350.0,
        compress_ns_per_byte=30.0,
        decompress_ns_per_byte=10.0,
    )


class TestCostRates:
    def test_scaled_multiplies_every_field(self, rates):
        doubled = rates.scaled(2.0)
        assert doubled.read_hdfs_ns_per_byte == 32.0
        assert doubled.cpu_ns_per_record == 700.0
        assert doubled.network_ns_per_byte == 44.0


def _draw_one(node, rng):
    """Effective rates of one task placed on a one-node cluster of *node*."""
    drawn = ClusterSpec(workers=(node,)).draw_task_rates(1, rng)
    return CostRates(*drawn.rates[:, 0].tolist())


class TestWorkerNode:
    def test_sample_rates_deterministic_under_seed(self, rates):
        node = WorkerNode(0, 2, 2, 300 << 20, rates, utilization_sigma=0.1)
        a = _draw_one(node, np.random.default_rng(42))
        b = _draw_one(node, np.random.default_rng(42))
        assert a == b

    def test_sample_rates_vary_across_draws(self, rates):
        node = WorkerNode(0, 2, 2, 300 << 20, rates, utilization_sigma=0.2)
        rng = np.random.default_rng(0)
        draws = [_draw_one(node, rng).cpu_ns_per_record for __ in range(20)]
        assert len(set(draws)) > 1

    def test_resource_groups_draw_independently(self, rates):
        node = WorkerNode(0, 2, 2, 300 << 20, rates, utilization_sigma=0.3)
        rng = np.random.default_rng(1)
        sample = _draw_one(node, rng)
        disk_factor = sample.read_local_ns_per_byte / rates.read_local_ns_per_byte
        cpu_factor = sample.cpu_ns_per_record / rates.cpu_ns_per_record
        net_factor = sample.network_ns_per_byte / rates.network_ns_per_byte
        assert disk_factor != pytest.approx(cpu_factor)
        assert disk_factor != pytest.approx(net_factor)

    def test_disk_rates_move_together(self, rates):
        node = WorkerNode(0, 2, 2, 300 << 20, rates, utilization_sigma=0.3)
        sample = _draw_one(node, np.random.default_rng(2))
        read_factor = sample.read_hdfs_ns_per_byte / rates.read_hdfs_ns_per_byte
        write_factor = sample.write_local_ns_per_byte / rates.write_local_ns_per_byte
        assert read_factor == pytest.approx(write_factor)


class TestClusterSpec:
    def test_paper_cluster_shape(self):
        cluster = ec2_cluster()
        assert cluster.num_workers == 15
        assert cluster.total_map_slots == 30
        assert cluster.total_reduce_slots == 30
        assert cluster.task_heap_bytes == 300 * 1024 * 1024

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=())

    def test_nodes_have_permanent_skew(self):
        cluster = ec2_cluster(node_skew_sigma=0.2)
        base = [w.base_rates.cpu_ns_per_record for w in cluster.workers]
        assert len(set(base)) > 1

    def test_node_for_task_uniform(self):
        cluster = ec2_cluster(num_workers=4)
        rng = np.random.default_rng(3)
        picks = set(cluster.draw_task_rates(200, rng).worker.tolist())
        assert picks == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "node_ids, sigmas",
        [((0, 1, 2, 3), (0.06,) * 4), ((10, 11, 12, 20), (0.0, 0.3, 0.06, 0.11))],
    )
    def test_draw_task_rates_consumes_the_per_task_stream(
        self, rates, node_ids, sigmas
    ):
        cluster = ClusterSpec(
            workers=tuple(
                WorkerNode(node_id, 2, 2, 300 << 20, rates.scaled(1 + i / 10), sigma)
                for i, (node_id, sigma) in enumerate(zip(node_ids, sigmas))
            )
        )
        drawn = cluster.draw_task_rates(50, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for task in range(50):
            node = reference_node_for_task(cluster, task, rng)
            sample = reference_sample_rates(node, rng)
            assert cluster.workers[drawn.worker[task]] is node
            assert cluster.node_ids[drawn.worker[task]] == node.node_id
            assert drawn.rates[:, task].tolist() == [
                getattr(sample, name) for name in RATE_FIELDS
            ]
        assert drawn.rates.shape == (len(RATE_FIELDS), 50)

    def test_draw_task_rates_leaves_the_stream_where_per_task_draws_do(self):
        cluster = ec2_cluster(num_workers=3)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        cluster.draw_task_rates(7, a)
        for task in range(7):
            reference_sample_rates(reference_node_for_task(cluster, task, b), b)
        assert a.random() == b.random()

    def test_custom_cluster_sizing(self):
        cluster = ec2_cluster(num_workers=5, map_slots_per_node=3, reduce_slots_per_node=1)
        assert cluster.total_map_slots == 15
        assert cluster.total_reduce_slots == 5

    def test_same_seed_same_cluster(self):
        a = ec2_cluster(seed=9)
        b = ec2_cluster(seed=9)
        assert [w.base_rates for w in a.workers] == [w.base_rates for w in b.workers]
