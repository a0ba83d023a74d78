"""Signature construction: backend equivalence and link correctness."""

import math

import numpy as np
import pytest

from repro.core.builder import (
    _neighbor_position_matrix,
    build_raw_signature_data,
    categorize_array,
    run_construction_sweep,
)
from repro.core.categories import CategoryPartition, ExponentialPartition
from repro.core.signature import LINK_HERE, LINK_NONE
from repro.errors import IndexError_
from repro.network.datasets import ObjectDataset
from repro.network.graph import RoadNetwork


@pytest.fixture(scope="module")
def partition():
    return ExponentialPartition(2.0, 5.0, 200.0)


class TestBackendEquivalence:
    def test_distances_identical(self, small_net, small_objs):
        d_py, _ = run_construction_sweep(small_net, small_objs, backend="python")
        d_sp, _ = run_construction_sweep(small_net, small_objs, backend="scipy")
        assert np.array_equal(d_py, d_sp)

    def test_categories_identical(self, small_net, small_objs, partition):
        a = build_raw_signature_data(
            small_net, small_objs, partition, backend="python"
        )
        b = build_raw_signature_data(
            small_net, small_objs, partition, backend="scipy"
        )
        assert np.array_equal(a.categories, b.categories)

    def test_links_point_along_some_shortest_path(
        self, small_net, small_objs, partition, ground_truth
    ):
        """Any shortest-path tree is valid: check the link *telescopes*."""
        for backend in ("python", "scipy"):
            data = build_raw_signature_data(
                small_net, small_objs, partition, backend=backend
            )
            rng = np.random.default_rng(1)
            for node in rng.choice(small_net.num_nodes, 40, replace=False):
                node = int(node)
                for rank in range(len(small_objs)):
                    link = int(data.links[node, rank])
                    truth = ground_truth[rank, node]
                    if node == small_objs[rank]:
                        assert link == LINK_HERE
                        continue
                    if math.isinf(truth):
                        assert link == LINK_NONE
                        continue
                    neighbor, weight = small_net.neighbor_at(node, link)
                    assert ground_truth[rank, neighbor] + weight == truth

    def test_unknown_backend_rejected(self, small_net, small_objs):
        with pytest.raises(IndexError_):
            run_construction_sweep(small_net, small_objs, backend="gpu")

    def test_empty_dataset_rejected(self, small_net):
        with pytest.raises(IndexError_):
            run_construction_sweep(small_net, ObjectDataset([]))


class TestOutputs:
    def test_object_distances_symmetric_zero_diagonal(
        self, small_net, small_objs, partition
    ):
        data = build_raw_signature_data(small_net, small_objs, partition)
        d = data.object_distances
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_categories_match_scalar_categorize(
        self, small_net, small_objs, partition, ground_truth
    ):
        data = build_raw_signature_data(small_net, small_objs, partition)
        rng = np.random.default_rng(2)
        for node in rng.choice(small_net.num_nodes, 30, replace=False):
            node = int(node)
            for rank in range(len(small_objs)):
                assert data.categories[node, rank] == partition.categorize(
                    ground_truth[rank, node]
                )

    def test_single_object_dataset(self, small_net, single_object_dataset, partition):
        data = build_raw_signature_data(
            small_net, single_object_dataset, partition
        )
        assert data.categories.shape == (small_net.num_nodes, 1)
        assert data.object_distances.shape == (1, 1)

    def test_disconnected_nodes_marked_unreachable(self, partition):
        net = RoadNetwork([(0, 0), (1, 0), (9, 9), (10, 9)])
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        data = build_raw_signature_data(net, ObjectDataset([0]), partition)
        assert data.categories[2, 0] == partition.unreachable
        assert data.links[2, 0] == LINK_NONE


class TestAdjacencyArrays:
    def test_csr_snapshot_matches_adjacency_lists(self, small_net):
        indptr, neighbors, weights = small_net.adjacency_arrays()
        assert indptr[0] == 0 and indptr[-1] == len(neighbors)
        for node in small_net.nodes():
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            assert [
                (int(n), float(w))
                for n, w in zip(neighbors[lo:hi], weights[lo:hi])
            ] == small_net.neighbors(node)

    def test_position_matrix_matches_neighbor_position(self, small_net):
        posmat = _neighbor_position_matrix(small_net)
        for node in range(0, small_net.num_nodes, 17):
            for neighbor, _ in small_net.neighbors(node):
                assert (
                    posmat[node, neighbor] - 1
                    == small_net.neighbor_position(node, neighbor)
                )


class TestCategorizeArray:
    def test_matches_scalar_on_boundaries(self):
        partition = CategoryPartition([2.0, 4.0])
        values = np.array([0.0, 1.9, 2.0, 3.9, 4.0, 100.0, math.inf])
        expected = [
            partition.categorize(v) if math.isfinite(v) else partition.unreachable
            for v in values
        ]
        assert categorize_array(partition, values).tolist() == expected

    def test_2d_input(self):
        partition = CategoryPartition([5.0])
        values = np.array([[0.0, 6.0], [5.0, math.inf]])
        out = categorize_array(partition, values)
        assert out.tolist() == [[0, 1], [1, 2]]
