"""Bound-pruned kNN refinement (repro.core.knn_refine).

The load-bearing property: with ``knn_refine="pruned"`` every engine —
scalar, vectorized, columnar, and the sharded stitcher — returns answers
**bit-identical** to the legacy path (same members, same ties, same
order per ``KnnType``) while reading strictly fewer pages on boundary-
heavy workloads.  Plus the validation sweep: ``k < 1`` and empty object
sets raise :class:`~repro.errors.QueryError` everywhere, and serve as
HTTP 400.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SignatureIndex
from repro.core import knn_refine, queries, vectorized
from repro.core.persistence import load_index, save_index
from repro.core.queries import KnnType
from repro.core.signature import ObjectDistanceTable, SignatureTable
from repro.errors import IndexError_, QueryError
from repro.network import (
    ObjectDataset,
    grid_network,
    random_planar_network,
    uniform_dataset,
)
from repro.network.dijkstra import shortest_path_tree
from repro.obs.metrics import MetricsRegistry
from repro.shard.sharded import ShardedSignatureIndex


@contextlib.contextmanager
def refine_mode(index, mode: str):
    """Temporarily flip the ``knn_refine`` knob on a shared index."""
    previous = index.knn_refine
    index.knn_refine = mode
    try:
        yield index
    finally:
        index.knn_refine = previous


def measured(index, fn, *args, **kwargs):
    """(result, logical page reads) of one call on a quiet counter."""
    index.reset_counters()
    result = fn(*args, **kwargs)
    return result, index.counter.logical_reads


@pytest.fixture(scope="module")
def refine_net():
    return random_planar_network(240, seed=13)


@pytest.fixture(scope="module")
def refine_objs(refine_net):
    return uniform_dataset(refine_net, density=0.05, seed=9)


@pytest.fixture(scope="module")
def refine_oracle(refine_net, refine_objs):
    return np.array(
        [shortest_path_tree(refine_net, o).distance for o in refine_objs]
    )


@pytest.fixture(
    scope="module", params=["scalar", "vectorized", "columnar"]
)
def engine_index(request, refine_net, refine_objs, tmp_path_factory):
    """One index per engine; ``"columnar"`` is the vectorized engine on
    an index mapped from a format-v2 snapshot."""
    if request.param != "columnar":
        return SignatureIndex.build(
            refine_net,
            refine_objs,
            backend="scipy",
            query_engine=request.param,
        )
    directory = tmp_path_factory.mktemp("v2")
    save_index(
        SignatureIndex.build(refine_net, refine_objs, backend="scipy"),
        directory,
        format=2,
    )
    return load_index(directory)


def sample_nodes(network, count, seed=0):
    return random.Random(seed).sample(range(network.num_nodes), count)


class TestBitIdentity:
    def test_matches_legacy_for_all_result_types(self, engine_index):
        index = engine_index
        num_objects = len(index.dataset)
        pruned_pages = legacy_pages = 0
        for node in sample_nodes(index.network, 20):
            for k in (1, 2, 5, num_objects, num_objects + 3):
                for knn_type in KnnType:
                    with refine_mode(index, "pruned"):
                        got, pages = measured(
                            index, index.knn, node, k, knn_type=knn_type
                        )
                    with refine_mode(index, "legacy"):
                        want, pages_l = measured(
                            index, index.knn, node, k, knn_type=knn_type
                        )
                    assert got == want, (node, k, knn_type)
                    pruned_pages += pages
                    legacy_pages += pages_l
        # Individual ORDERED queries may trade a few pages (full walks vs
        # pairwise partial refinement); the workload total must win big.
        assert pruned_pages < legacy_pages

    def test_exact_distances_match_dijkstra_oracle(
        self, engine_index, refine_oracle
    ):
        index = engine_index
        dataset = index.dataset
        for node in sample_nodes(index.network, 12, seed=1):
            result = index.knn(
                node, 6, knn_type=KnnType.EXACT_DISTANCES
            )
            distances = [d for _, d in result]
            assert distances == sorted(distances)
            for object_node, d in result:
                rank = dataset.rank(object_node)
                assert d == pytest.approx(
                    refine_oracle[rank][node], rel=1e-9
                )

    def test_pruned_reads_many_fewer_pages(self, engine_index):
        index = engine_index
        nodes = sample_nodes(index.network, 40, seed=2)
        with refine_mode(index, "pruned"):
            index.reset_counters()
            for node in nodes:
                index.knn(node, 5)
            pruned_pages = index.counter.logical_reads
        with refine_mode(index, "legacy"):
            index.reset_counters()
            for node in nodes:
                index.knn(node, 5)
            legacy_pages = index.counter.logical_reads
        assert pruned_pages * 2 < legacy_pages

    def test_scalar_and_vectorized_charge_identical_pages(
        self, refine_net, refine_objs
    ):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        for node in sample_nodes(index.network, 10, seed=3):
            for knn_type in KnnType:
                scalar, scalar_pages = measured(
                    index, queries.knn_query, index, node, 4,
                    knn_type=knn_type,
                )
                vec, vec_pages = measured(
                    index, vectorized.knn_query, index, node, 4,
                    knn_type=knn_type,
                )
                assert scalar == vec
                assert scalar_pages == vec_pages


class TestHypothesisOracle:
    @given(
        rows=st.integers(3, 5),
        cols=st.integers(3, 5),
        data=st.data(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_grid_ties_pruned_equals_legacy_and_oracle(
        self, rows, cols, data
    ):
        # Unit grids are maximally tie-heavy: many objects at exactly the
        # same distance, so any tie-break drift shows up immediately.
        network = grid_network(rows, cols)
        num_nodes = rows * cols
        size = data.draw(
            st.integers(1, min(6, num_nodes)), label="num_objects"
        )
        members = data.draw(
            st.lists(
                st.integers(0, num_nodes - 1),
                min_size=size,
                max_size=size,
                unique=True,
            ),
            label="objects",
        )
        dataset = ObjectDataset(sorted(members))
        index = SignatureIndex.build(network, dataset, backend="scipy")
        oracle = np.array(
            [shortest_path_tree(network, o).distance for o in dataset]
        )
        ks = sorted({1, size // 2 + 1, size, size + 2})
        for node in range(num_nodes):
            for k in ks:
                for knn_type in KnnType:
                    with refine_mode(index, "pruned"):
                        got = index.knn(node, k, knn_type=knn_type)
                    with refine_mode(index, "legacy"):
                        want = index.knn(node, k, knn_type=knn_type)
                    assert got == want, (node, k, knn_type)
                result = index.knn(
                    node, k, knn_type=KnnType.EXACT_DISTANCES
                )
                kth = len(result)
                assert kth == min(k, int(np.isfinite(oracle[:, node]).sum()))
                returned = {dataset.rank(obj) for obj, _ in result}
                truth = sorted(oracle[:, node])
                for obj, d in result:
                    assert d == pytest.approx(
                        oracle[dataset.rank(obj)][node], rel=1e-9
                    )
                # No returned distance exceeds the k-th smallest overall.
                if kth:
                    worst = max(d for _, d in result)
                    assert worst <= truth[kth - 1] * (1 + 1e-9)
                excluded = set(range(size)) - returned
                for rank in excluded:
                    assert oracle[rank][node] >= (
                        truth[kth - 1] * (1 - 1e-9)
                    )


class TestSharded:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_pruned_matches_legacy_and_skips_shards(
        self, refine_net, refine_objs, num_shards
    ):
        registry = MetricsRegistry()
        index = ShardedSignatureIndex.build(
            refine_net,
            refine_objs,
            num_shards=num_shards,
            metrics=registry,
        )
        assert index.knn_refine == "pruned"
        num_objects = len(refine_objs)
        for node in sample_nodes(refine_net, 25, seed=4):
            for k in (1, 3, 8, num_objects + 2):
                for knn_type in KnnType:
                    with refine_mode(index, "pruned"):
                        got = index.knn(node, k, knn_type=knn_type)
                    with refine_mode(index, "legacy"):
                        want = index.knn(node, k, knn_type=knn_type)
                    assert got == want, (node, k, knn_type)
                with refine_mode(index, "pruned"):
                    approx = index.knn_approximate(node, k)
                with refine_mode(index, "legacy"):
                    assert index.knn_approximate(node, k) == approx
        assert registry.counter("knn_refine.shards_skipped").value > 0

    def test_batch_matches_singles(self, refine_net, refine_objs):
        index = ShardedSignatureIndex.build(
            refine_net, refine_objs, num_shards=4
        )
        nodes = sample_nodes(refine_net, 12, seed=5)
        batched = index.knn_batch(nodes, 4)
        assert batched == [index.knn(node, 4) for node in nodes]


class TestBatchAndJoin:
    def test_batch_equals_scalar_singles(self, engine_index):
        index = engine_index
        nodes = sample_nodes(index.network, 16, seed=6)
        batched = vectorized.knn_query_batch(index, nodes, 5)
        singles = [queries.knn_query(index, node, 5) for node in nodes]
        assert batched == singles

    def test_batch_shares_the_frontier(self, refine_net, refine_objs):
        registry = MetricsRegistry()
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy", metrics=registry
        )
        # A batch re-visiting the same node must hit the shared frontier.
        node = refine_net.num_nodes // 2
        before = registry.counter("knn_refine.frontier_hits").value
        vectorized.knn_query_batch(index, [node, node, node], 5)
        assert registry.counter("knn_refine.frontier_hits").value > before

    def test_join_matches_legacy(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        with refine_mode(index, "pruned"):
            scalar_pruned = queries.knn_join(index, index, 3)
            vec_pruned = vectorized.knn_join(index, index, 3)
        with refine_mode(index, "legacy"):
            legacy = queries.knn_join(index, index, 3)
        assert scalar_pruned == legacy
        assert vec_pruned == legacy


class TestObservability:
    def test_counters_and_tightness_histogram(
        self, refine_net, refine_objs
    ):
        registry = MetricsRegistry()
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy", metrics=registry
        )
        for node in sample_nodes(refine_net, 10, seed=7):
            index.knn(node, 5)
        assert registry.counter("knn_refine.refined").value > 0
        assert registry.counter("knn_refine.pruned").value > 0
        assert registry.histogram("knn_refine.bound_tightness").count > 0

    def test_stats_reports_the_knob(self, engine_index):
        assert engine_index.stats()["knn_refine"] == "pruned"

    def test_trace_spans_cover_bound_and_exact(
        self, refine_net, refine_objs
    ):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        for node in sample_nodes(refine_net, 12, seed=8):
            with index.trace() as tracer:
                index.knn(node, 5)
            names = {span.name for span in tracer.walk()}
            if "refine.bound" in names:
                assert "refine.exact" in names
                break
        else:  # pragma: no cover - sampling failure
            pytest.fail("no query hit a boundary bucket")

    def test_invalid_knob_rejected(self, refine_net, refine_objs):
        with pytest.raises(IndexError_, match="knn_refine"):
            SignatureIndex.build(
                refine_net,
                refine_objs,
                backend="scipy",
                knn_refine="sometimes",
            )


def empty_object_index(network) -> SignatureIndex:
    """A valid index whose dataset is empty (kNN has no possible answer)."""
    partition = SignatureIndex.build(
        network, ObjectDataset([0]), backend="scipy"
    ).partition
    num_nodes = network.num_nodes
    table = SignatureTable(
        partition,
        np.zeros((num_nodes, 0), dtype=np.int16),
        np.zeros((num_nodes, 0), dtype=np.int32),
        max_degree=max(network.max_degree(), 1),
    )
    object_table = ObjectDistanceTable(np.zeros((0, 0)), partition)
    return SignatureIndex(
        network,
        ObjectDataset([]),
        partition,
        table,
        object_table,
        stored_kind="encoded",
    )


class TestValidation:
    def test_k_below_one_raises_everywhere(
        self, refine_net, refine_objs
    ):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        sharded = ShardedSignatureIndex.build(
            refine_net, refine_objs, num_shards=2
        )
        calls = [
            lambda: queries.knn_query(index, 0, 0),
            lambda: queries.approximate_knn_query(index, 0, 0),
            lambda: queries.knn_join(index, index, 0),
            lambda: vectorized.knn_query(index, 0, 0),
            lambda: vectorized.knn_query_batch(index, [0, 1], 0),
            lambda: index.knn(0, 0),
            lambda: index.knn_batch([0, 1], 0),
            lambda: index.knn_approximate(0, 0),
            lambda: sharded.knn(0, 0),
            lambda: sharded.knn_batch([0, 1], 0),
            lambda: sharded.knn_approximate(0, 0),
        ]
        for call in calls:
            with pytest.raises(QueryError, match="k must be >= 1"):
                call()

    def test_empty_object_set_raises_query_error(self, refine_net):
        index = empty_object_index(refine_net)
        calls = [
            lambda: queries.knn_query(index, 0, 1),
            lambda: queries.approximate_knn_query(index, 0, 1),
            lambda: vectorized.knn_query(index, 0, 1),
            lambda: vectorized.knn_query_batch(index, [0, 1], 1),
            lambda: index.knn(0, 1),
            lambda: index.knn_batch([0, 1], 1),
            lambda: index.knn_approximate(0, 1),
        ]
        for call in calls:
            with pytest.raises(QueryError, match="non-empty object"):
                call()
        # QueryError is a ValueError, which serving maps to HTTP 400.
        assert issubclass(QueryError, ValueError)

    def test_served_knn_rejects_bad_input_with_400(self, refine_net):
        from tests.test_serve_server import serving

        index = empty_object_index(refine_net)

        async def main():
            async with serving(index) as (_server, client):
                empty = await client.request(
                    "POST", "/v1/knn", {"node": 0, "k": 1}
                )
                assert empty.status == 400
                assert "non-empty object" in empty.payload["error"]
                bad_k = await client.request(
                    "POST", "/v1/knn", {"node": 0, "k": 0}
                )
                assert bad_k.status == 400

        asyncio.run(main())


class TestBoundMachinery:
    def test_bounds_are_admissible(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        oracle = np.array(
            [shortest_path_tree(refine_net, o).distance for o in refine_objs]
        )
        candidates = list(range(len(refine_objs)))
        for node in sample_nodes(refine_net, 15, seed=9):
            cats_row = knn_refine.signature_categories(index, node)
            lower, upper = knn_refine.candidate_bounds(
                index, cats_row, candidates
            )
            for i, rank in enumerate(candidates):
                truth = oracle[rank][node]
                if math.isinf(truth):
                    assert math.isinf(lower[i]) or lower[i] >= 0
                    continue
                assert lower[i] <= truth * (1 + 1e-9) + 1e-12
                assert upper[i] >= truth * (1 - 1e-9) - 1e-12

    def test_context_charges_each_page_once(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        node = refine_net.num_nodes // 3
        ctx = knn_refine.RefinementContext(index)
        first = knn_refine.knn_query_scalar(index, node, 5, ctx=ctx)
        index.reset_counters()
        again = knn_refine.knn_query_scalar(index, node, 5, ctx=ctx)
        assert again == first
        # Every page the repeat needed was already in the frontier.
        assert index.counter.logical_reads == 0
        assert ctx.reuse_hits > 0
