"""Vectorized query engine: scalar equivalence and cache invalidation.

The contract under test: every vectorized query returns *element-for-
element* the scalar reference's result AND charges the pager identically
(the §4 page-access semantics are engine-independent).  Hypothesis drives
random networks/datasets/radii, including inclusive-radius edge cases and
unreachable objects.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import queries, vectorized
from repro.core.index import SignatureIndex
from repro.core.queries import KnnType
from repro.errors import IndexError_
from repro.network import (
    ObjectDataset,
    random_planar_network,
    uniform_dataset,
)
from repro.network.graph import RoadNetwork

PROPERTY_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_engines(seed: int, *, num_nodes: int = 60, density: float = 0.1):
    """Scalar and vectorized indexes over one random configuration."""
    network = random_planar_network(num_nodes, seed=seed)
    objects = uniform_dataset(network, density=density, seed=seed + 1)
    scalar = SignatureIndex.build(
        network, objects, keep_trees=True, query_engine="scalar"
    )
    vec = SignatureIndex.build(
        network, objects, keep_trees=True, query_engine="vectorized"
    )
    return network, objects, scalar, vec


def interesting_radii(index) -> list[float]:
    """Radii probing every decision branch, including the inclusive edge.

    Exact node-to-object distances are the inclusive boundary (an object
    at distance exactly r belongs to the range-r result); category bounds
    stress the confirm/discard split; 0 and inf are the degenerate ends.
    """
    finite = index.trees.distances[np.isfinite(index.trees.distances)]
    radii = [0.0, math.inf]
    if finite.size:
        radii.append(float(np.median(finite)))
        radii.append(float(finite.max()))
        # Exact distances: the inclusive-radius edge case.
        sample = np.unique(finite)[:: max(1, finite.size // 5)]
        radii.extend(float(r) for r in sample[:4])
    for category in range(min(index.partition.num_categories, 4)):
        _, ub = index.partition.bounds(category)
        if math.isfinite(ub):
            radii.append(ub)
    return radii


def assert_same_query(scalar, vec, run_scalar, run_vec, context):
    scalar.reset_counters()
    expected = run_scalar(scalar)
    expected_pages = scalar.counter.logical_reads
    vec.reset_counters()
    got = run_vec(vec)
    got_pages = vec.counter.logical_reads
    assert got == expected, context
    assert got_pages == expected_pages, context


class TestRangeEquivalence:
    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 1000))
    def test_results_and_pages_identical(self, seed):
        network, _, scalar, vec = build_engines(seed)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(network.num_nodes, 8, replace=False)
        for node in (int(n) for n in nodes):
            for radius in interesting_radii(scalar):
                assert_same_query(
                    scalar,
                    vec,
                    lambda ix: queries.range_query(ix, node, radius),
                    lambda ix: vectorized.range_query(ix, node, radius),
                    (seed, node, radius),
                )

    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 1000))
    def test_with_distances_identical(self, seed):
        network, _, scalar, vec = build_engines(seed)
        radius = interesting_radii(scalar)[2 % len(interesting_radii(scalar))]
        for node in range(0, network.num_nodes, 13):
            assert_same_query(
                scalar,
                vec,
                lambda ix: queries.range_query(
                    ix, node, radius, with_distances=True
                ),
                lambda ix: vectorized.range_query(
                    ix, node, radius, with_distances=True
                ),
                (seed, node, radius),
            )

    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 1000))
    def test_batch_matches_scalar_singles(self, seed):
        network, _, scalar, vec = build_engines(seed)
        rng = np.random.default_rng(seed + 2)
        nodes = [int(n) for n in rng.choice(network.num_nodes, 12)]
        radius = float(
            np.median(
                scalar.trees.distances[np.isfinite(scalar.trees.distances)]
            )
        )
        scalar.reset_counters()
        singles = [queries.range_query(scalar, n, radius) for n in nodes]
        single_pages = scalar.counter.logical_reads
        vec.reset_counters()
        batched = vectorized.range_query_batch(vec, nodes, radius)
        assert batched == singles
        assert vec.counter.logical_reads == single_pages


class TestKnnEquivalence:
    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 1000))
    def test_all_types_identical(self, seed):
        network, objects, scalar, vec = build_engines(seed)
        rng = np.random.default_rng(seed + 1)
        nodes = rng.choice(network.num_nodes, 6, replace=False)
        ks = sorted({1, 2, max(1, len(objects) // 2), len(objects), len(objects) + 3})
        for node in (int(n) for n in nodes):
            for k in ks:
                for knn_type in KnnType:
                    assert_same_query(
                        scalar,
                        vec,
                        lambda ix: queries.knn_query(
                            ix, node, k, knn_type=knn_type
                        ),
                        lambda ix: vectorized.knn_query(
                            ix, node, k, knn_type=knn_type
                        ),
                        (seed, node, k, knn_type),
                    )

    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 1000))
    def test_batch_matches_scalar_singles(self, seed):
        network, objects, scalar, vec = build_engines(seed)
        rng = np.random.default_rng(seed + 3)
        nodes = [int(n) for n in rng.choice(network.num_nodes, 10)]
        k = max(1, len(objects) // 2)
        for knn_type in KnnType:
            singles = [
                queries.knn_query(scalar, n, k, knn_type=knn_type)
                for n in nodes
            ]
            batched = vectorized.knn_query_batch(
                vec, nodes, k, knn_type=knn_type
            )
            assert batched == singles


class TestJoinsAndAggregates:
    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 500))
    def test_self_joins_identical(self, seed):
        _, _, scalar, vec = build_engines(seed)
        finite = scalar.trees.distances[np.isfinite(scalar.trees.distances)]
        epsilon = float(np.median(finite)) if finite.size else 1.0
        assert_same_query(
            scalar,
            vec,
            lambda ix: queries.epsilon_join(ix, ix, epsilon),
            lambda ix: vectorized.epsilon_join(ix, ix, epsilon),
            (seed, "epsilon"),
        )
        assert_same_query(
            scalar,
            vec,
            lambda ix: queries.knn_join(ix, ix, 3),
            lambda ix: vectorized.knn_join(ix, ix, 3),
            (seed, "knn"),
        )

    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 500))
    def test_two_dataset_joins_identical(self, seed):
        network = random_planar_network(60, seed=seed)
        objs_a = uniform_dataset(network, density=0.1, seed=seed + 1)
        objs_b = uniform_dataset(network, density=0.1, seed=seed + 77)
        a_scalar = SignatureIndex.build(network, objs_a, query_engine="scalar")
        b_scalar = SignatureIndex.build(network, objs_b, query_engine="scalar")
        a_vec = SignatureIndex.build(network, objs_a)
        b_vec = SignatureIndex.build(network, objs_b)
        epsilon = float(
            np.median(a_scalar.object_table._matrix[np.isfinite(
                a_scalar.object_table._matrix
            )])
        )
        b_scalar.reset_counters()
        expected = queries.epsilon_join(a_scalar, b_scalar, epsilon)
        expected_pages = b_scalar.counter.logical_reads
        b_vec.reset_counters()
        got = vectorized.epsilon_join(a_vec, b_vec, epsilon)
        assert got == expected
        assert b_vec.counter.logical_reads == expected_pages
        expected = queries.knn_join(a_scalar, b_scalar, 2)
        got = vectorized.knn_join(a_vec, b_vec, 2)
        assert got == expected

    def test_aggregates_identical(self):
        _, _, scalar, vec = build_engines(17)
        finite = scalar.trees.distances[np.isfinite(scalar.trees.distances)]
        radius = float(np.median(finite))
        for aggregate in ("count", "sum", "min", "max", "mean"):
            for node in (0, 7, 23):
                a = queries.aggregate_range(scalar, node, radius, aggregate)
                b = vectorized.aggregate_range(vec, node, radius, aggregate)
                assert a == b or (math.isnan(a) and math.isnan(b))


class TestUnreachableObjects:
    @staticmethod
    def disconnected_pair():
        """Two disjoint 4-node paths; all objects live on the first."""
        network = RoadNetwork(
            [(i, 0.0) for i in range(4)] + [(i, 9.0) for i in range(4)]
        )
        for i in range(3):
            network.add_edge(i, i + 1, 1.0)
            network.add_edge(4 + i, 4 + i + 1, 1.0)
        objects = ObjectDataset([0, 2])
        scalar = SignatureIndex.build(network, objects, query_engine="scalar")
        vec = SignatureIndex.build(network, objects)
        return network, scalar, vec

    def test_range_from_disconnected_component(self):
        network, scalar, vec = self.disconnected_pair()
        for node in range(network.num_nodes):
            for radius in (0.0, 1.0, 2.5, math.inf):
                assert_same_query(
                    scalar,
                    vec,
                    lambda ix: queries.range_query(ix, node, radius),
                    lambda ix: vectorized.range_query(ix, node, radius),
                    (node, radius),
                )

    def test_knn_from_disconnected_component(self):
        network, scalar, vec = self.disconnected_pair()
        for node in range(network.num_nodes):
            for k in (1, 2, 5):
                for knn_type in KnnType:
                    assert_same_query(
                        scalar,
                        vec,
                        lambda ix: queries.knn_query(
                            ix, node, k, knn_type=knn_type
                        ),
                        lambda ix: vectorized.knn_query(
                            ix, node, k, knn_type=knn_type
                        ),
                        (node, k, knn_type),
                    )


class TestDecoding:
    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(0, 1000))
    def test_decoded_rows_match_component_resolution(self, seed):
        network, objects, _, vec = build_engines(seed)
        rows = vectorized.decode_signature_rows(
            vec, list(range(network.num_nodes))
        )
        rng = np.random.default_rng(seed)
        for node in rng.choice(network.num_nodes, 10, replace=False):
            node = int(node)
            for rank in range(len(objects)):
                assert rows[node, rank] == vec.component(node, rank).category

    def test_decode_charges_decompressions(self):
        _, _, _, vec = build_engines(3)
        flagged = int(vec.table.compressed.sum())
        vec.reset_counters()
        vectorized.decode_signature_rows(
            vec, list(range(vec.network.num_nodes))
        )
        assert vec.decompressions == flagged
        assert vec.counter.logical_reads == 0  # decoding is pure CPU


class TestDecodedCache:
    """Decoded rows never outlive an update.  (Named for the decoded-row
    cache these tests once covered; batch reads now index the live table,
    so the check is that vectorized answers equal the scalar path's after
    every kind of §5.4 update.)"""

    def _assert_engines_agree(self, vec):
        finite = vec.trees.distances[np.isfinite(vec.trees.distances)]
        radius = float(np.median(finite)) if finite.size else 1.0
        for node in range(0, vec.network.num_nodes, 7):
            assert vectorized.range_query(vec, node, radius) == \
                queries.range_query(vec, node, radius)

    def test_edge_updates_invalidate(self):
        network, objects, _, vec = build_engines(11)
        vectorized.range_query_batch(vec, list(range(network.num_nodes)), 40.0)

        rng = np.random.default_rng(0)
        u = int(rng.integers(network.num_nodes))
        v = int((u + network.num_nodes // 2) % network.num_nodes)
        if not network.has_edge(u, v):
            vec.add_edge(u, v, 0.5)
            self._assert_engines_agree(vec)

        edge = next(iter(network.edges()))
        vec.set_edge_weight(edge.u, edge.v, edge.weight * 3)
        self._assert_engines_agree(vec)

        edge = next(iter(network.edges()))
        vec.remove_edge(edge.u, edge.v)
        self._assert_engines_agree(vec)

    def test_object_updates_invalidate(self):
        network, objects, _, vec = build_engines(19)
        vectorized.range_query_batch(vec, list(range(network.num_nodes)), 40.0)
        free = next(
            node for node in range(network.num_nodes) if node not in objects
        )
        vec.add_object(free)
        self._assert_engines_agree(vec)
        vec.remove_object(free)
        self._assert_engines_agree(vec)


class TestFacadeDispatch:
    def test_engines_agree_through_facade(self):
        network, objects, scalar, vec = build_engines(23)
        assert vec.query_engine == "vectorized"
        for node in (0, 9, 31):
            assert vec.range_query(node, 60.0) == scalar.range_query(node, 60.0)
            assert vec.knn(node, 3) == scalar.knn(node, 3)
        nodes = [0, 9, 31]
        assert vec.range_query_batch(nodes, 60.0) == [
            scalar.range_query(n, 60.0) for n in nodes
        ]
        assert scalar.range_query_batch(nodes, 60.0) == vec.range_query_batch(
            nodes, 60.0
        )
        assert vec.knn_batch(nodes, 2) == scalar.knn_batch(nodes, 2)

    def test_unknown_engine_rejected(self):
        network = random_planar_network(30, seed=1)
        objects = uniform_dataset(network, density=0.2, seed=2)
        for engine in ("gpu", "columnar"):
            with pytest.raises(IndexError_):
                SignatureIndex.build(network, objects, query_engine=engine)
