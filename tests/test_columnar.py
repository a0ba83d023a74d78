"""The zero-copy columnar store (format v2): construction and equivalence.

The store is correct iff it is invisible: an index loaded from a v2
snapshot — its signature table backed by the mapped, width-minimal
arrays — must answer every query exactly as the scalar reference and
the in-memory vectorized engine do, charge the same page accesses, and
tally the same §5.3 decompressions, including after §5.4 updates write
into the copy-on-write mapping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ColumnarSignatureStore,
    KnnType,
    SignatureIndex,
    queries,
    vectorized,
)
from repro.core.categories import ExponentialPartition
from repro.core.persistence import load_index, save_index
from repro.core.vectorized import decode_signature_rows
from repro.errors import IndexError_, StorageError


def _via_v2(index, directory):
    """``index`` saved as format v2 and mapped back."""
    save_index(index, directory, format=2)
    return load_index(directory)


@pytest.fixture(scope="module")
def engine_indexes(small_net, small_objs, tmp_path_factory):
    """Both engines over the same network/dataset, plus ``"columnar"``:
    the vectorized engine on an index mapped from a v2 snapshot."""
    indexes = {
        engine: SignatureIndex.build(
            small_net, small_objs, backend="scipy", query_engine=engine
        )
        for engine in ("scalar", "vectorized")
    }
    indexes["columnar"] = _via_v2(
        indexes["vectorized"], tmp_path_factory.mktemp("v2")
    )
    return indexes


# ----------------------------------------------------------------------
# store construction
# ----------------------------------------------------------------------
class TestStoreConstruction:
    def test_from_index_shapes(self, sig_index):
        store = ColumnarSignatureStore.from_index(sig_index)
        n = sig_index.network.num_nodes
        d = len(sig_index.dataset)
        assert store.categories.shape == (n, d)
        assert store.links.shape == (n, d)
        assert store.compressed.shape == (n, d)
        assert store.object_nodes.shape == (d,)
        assert store.object_distances.shape == (d, d)
        assert store.num_nodes == n and store.num_objects == d

    def test_width_minimal_dtypes(self, sig_index):
        store = ColumnarSignatureStore.from_index(sig_index)
        unreachable = sig_index.partition.unreachable
        assert store.categories.dtype == np.min_scalar_type(unreachable)
        assert store.links.dtype in (np.int16, np.int32)
        assert store.categories.flags.c_contiguous
        assert store.links.flags.c_contiguous

    def test_paper_partition_needs_wider_categories(self, small_net, small_objs):
        """~1000 categories (§6.1 partition) cannot fit uint8."""
        partition = ExponentialPartition(1.01, 1.0, 10_000.0)
        index = SignatureIndex.build(
            small_net, small_objs, partition, backend="scipy"
        )
        store = ColumnarSignatureStore.from_index(index)
        assert partition.unreachable > 255
        assert store.categories.dtype.itemsize >= 2

    def test_mismatched_shapes_rejected(self, sig_index):
        store = ColumnarSignatureStore.from_index(sig_index)
        with pytest.raises(IndexError_):
            ColumnarSignatureStore(
                categories=store.categories,
                links=store.links[:-1],
                compressed=store.compressed,
                bases=None,
                boundaries=store.boundaries,
                object_nodes=store.object_nodes,
                object_distances=store.object_distances,
                tree_distances=None,
                tree_parents=None,
                max_degree=store.max_degree,
                drop_last=store.drop_last,
            )

    def test_out_of_range_block_read_raises(self, engine_indexes, small_net):
        index = engine_indexes["columnar"]
        with pytest.raises(StorageError):
            decode_signature_rows(index, [0, small_net.num_nodes])


# ----------------------------------------------------------------------
# engine equivalence
# ----------------------------------------------------------------------
def _reset(index):
    index.counter.reset()
    index.decompressions = 0


class TestEngineEquivalence:
    """Both engines and the v2-mapped index answer and cost identically."""

    RADII = (5.0, 15.0, 40.0)

    def test_range_queries(self, engine_indexes, small_net):
        nodes = list(range(0, small_net.num_nodes, 7))
        for radius in self.RADII:
            answers, pages, decomp = {}, {}, {}
            for engine, index in engine_indexes.items():
                _reset(index)
                answers[engine] = index.range_query_batch(
                    nodes, radius, with_distances=True
                )
                pages[engine] = index.counter.logical_reads
                decomp[engine] = index.decompressions
            assert answers["columnar"] == answers["scalar"]
            assert answers["columnar"] == answers["vectorized"]
            assert pages["columnar"] == pages["scalar"]
            assert decomp["columnar"] == decomp["scalar"]

    @pytest.mark.parametrize(
        "knn_type",
        [KnnType.SET, KnnType.ORDERED, KnnType.EXACT_DISTANCES],
    )
    def test_knn_all_types(self, engine_indexes, small_net, knn_type):
        nodes = list(range(0, small_net.num_nodes, 11))
        answers = {
            engine: index.knn_batch(nodes, 3, knn_type=knn_type)
            for engine, index in engine_indexes.items()
        }
        assert answers["columnar"] == answers["scalar"]
        assert answers["columnar"] == answers["vectorized"]

    def test_aggregate_and_join(self, engine_indexes):
        for aggregate in ("count", "min", "max"):
            values = {
                engine: index.aggregate_range(3, 25.0, aggregate)
                for engine, index in engine_indexes.items()
            }
            assert values["columnar"] == values["scalar"]
            assert values["columnar"] == values["vectorized"]
        joins = {
            engine: sorted(index.epsilon_join(index, 20.0))
            for engine, index in engine_indexes.items()
        }
        assert joins["columnar"] == joins["scalar"]
        assert joins["columnar"] == joins["vectorized"]

    def test_single_node_queries(self, engine_indexes, small_net):
        for node in (0, small_net.num_nodes - 1, 17):
            results = {
                engine: index.range_query(node, 30.0, with_distances=True)
                for engine, index in engine_indexes.items()
            }
            assert results["columnar"] == results["scalar"]
            assert results["columnar"] == results["vectorized"]


# ----------------------------------------------------------------------
# staleness regression: §5.4 updates on the mapped arrays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("setup", ["built", "columnar"])
def test_no_stale_categories_after_weight_update(
    small_net, small_objs, tmp_path, setup
):
    """An edge-weight update must never leave batch reads serving the
    pre-update categories — on a freshly built index, and on one mapped
    from a v2 snapshot, where the update writes the copy-on-write arrays
    the reads index."""
    index = SignatureIndex.build(
        small_net.copy(), small_objs, backend="scipy", keep_trees=True
    )
    if setup == "columnar":
        index = _via_v2(index, tmp_path / setup)
    network = index.network
    nodes = list(range(0, network.num_nodes, 5))
    index.range_query_batch(nodes, 30.0)

    u, (v, w) = 0, network.neighbors(0)[0]
    index.set_edge_weight(u, v, w * 4.0)

    # Oracle: a freshly built index over the mutated network.
    oracle = SignatureIndex.build(network, small_objs, backend="scipy")
    got = index.range_query_batch(nodes, 30.0, with_distances=True)
    want = oracle.range_query_batch(nodes, 30.0, with_distances=True)
    assert got == want
    got_knn = index.knn_batch(nodes, 3, knn_type=KnnType.EXACT_DISTANCES)
    want_knn = oracle.knn_batch(nodes, 3, knn_type=KnnType.EXACT_DISTANCES)
    assert got_knn == want_knn


def test_structural_update_rebinds_store(small_net, small_objs, tmp_path):
    """add_object / remove_object on a v2-mapped index replace the mapped
    table arrays; queries must see the new object set at once and agree
    with the scalar engine."""
    index = _via_v2(
        SignatureIndex.build(
            small_net.copy(), small_objs, backend="scipy", keep_trees=True
        ),
        tmp_path / "v2",
    )
    new_object = next(
        node
        for node in range(small_net.num_nodes)
        if node not in set(small_objs)
    )
    nodes = list(range(0, small_net.num_nodes, 5))

    def assert_engines_agree():
        want = [
            queries.range_query(index, node, 20.0, with_distances=True)
            for node in nodes
        ]
        assert vectorized.range_query_batch(
            index, nodes, 20.0, with_distances=True
        ) == want

    index.add_object(new_object)
    assert index.table.categories.shape[1] == len(small_objs) + 1
    assert new_object in index.range_query(new_object, 0.0)
    assert_engines_agree()

    index.remove_object(new_object)
    assert index.table.categories.shape[1] == len(small_objs)
    assert new_object not in index.range_query(new_object, 0.0)
    assert_engines_agree()
