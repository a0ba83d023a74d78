"""Incremental updates (§5.4): every operation must equal a full rebuild."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SignatureIndex
from repro.core.changeset import ChangeSet
from repro.core.compression import compress_table
from repro.core.signature import SignatureTable
from repro.core.spanning_tree import NO_PARENT, ObjectSpanningTrees
from repro.errors import QueryError, UpdateError
from repro.network import ObjectDataset, random_planar_network, uniform_dataset


def assert_equals_rebuild(index):
    """The crucial §5.4 invariant: the incrementally maintained index is
    indistinguishable from one rebuilt from scratch."""
    rebuilt = SignatureIndex.build(
        index.network,
        index.dataset,
        index.partition,
        backend="scipy",
        keep_trees=True,
    )
    assert np.array_equal(index.table.categories, rebuilt.table.categories)
    # Links may differ where several shortest paths tie; verify each link
    # telescopes onto a true shortest path instead of insisting on equality.
    trees = rebuilt.trees
    for rank in range(len(index.dataset)):
        dist = trees.distances[rank]
        for node in range(index.network.num_nodes):
            link = int(index.table.links[node, rank])
            if node == index.dataset[rank]:
                assert link == -1  # LINK_HERE
            elif math.isinf(dist[node]):
                assert link == -2  # LINK_NONE
            else:
                neighbor, weight = index.network.neighbor_at(node, link)
                assert dist[neighbor] + weight == dist[node]
    # Spanning-tree distances must match exactly.
    assert np.array_equal(index.trees.distances, rebuilt.trees.distances)
    assert_compression_matches_scratch(index)


def assert_compression_matches_scratch(index):
    """Maintained flags and bases == a from-scratch ``compress_table`` over
    the same signature table (lossless, since compression is)."""
    table = index.table
    scratch = SignatureTable(
        table.partition,
        table.categories.copy(),
        table.links.copy(),
        max_degree=table.max_degree,
    )
    compress_table(scratch, index.object_table)
    np.testing.assert_array_equal(table.compressed, scratch.compressed)
    np.testing.assert_array_equal(table.bases, scratch.bases)


def _pick_absent_edge(network, rng):
    while True:
        u = int(rng.integers(network.num_nodes))
        v = int(rng.integers(network.num_nodes))
        if u != v and not network.has_edge(u, v):
            return u, v


def _pick_existing_edge(network, rng, trees=None, on_tree=None):
    edges = list(network.edges())
    rng.shuffle(edges)
    for edge in edges:
        if on_tree is None:
            return edge.u, edge.v, edge.weight
        used = bool(trees.trees_using_edge(edge.u, edge.v))
        if used == on_tree:
            return edge.u, edge.v, edge.weight
    raise AssertionError("no edge with the requested tree usage")


class TestAddEdge:
    def test_shortcut_edge_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(0)
        u, v = _pick_absent_edge(updatable_index.network, rng)
        report = updatable_index.add_edge(u, v, 1.0)
        assert_equals_rebuild(updatable_index)
        assert report.changed_components >= 0

    def test_useless_heavy_edge_changes_nothing(self, updatable_index):
        rng = np.random.default_rng(1)
        u, v = _pick_absent_edge(updatable_index.network, rng)
        before = updatable_index.table.categories.copy()
        report = updatable_index.add_edge(u, v, 1e9)
        assert np.array_equal(updatable_index.table.categories, before)
        assert report.changed_components == 0
        assert report.touched_nodes == 0

    def test_multiple_adds_accumulate_correctly(self, updatable_index):
        rng = np.random.default_rng(2)
        for _ in range(3):
            u, v = _pick_absent_edge(updatable_index.network, rng)
            updatable_index.add_edge(u, v, float(rng.integers(1, 5)))
        assert_equals_rebuild(updatable_index)


class TestRemoveEdge:
    def test_tree_edge_removal_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(3)
        u, v, _ = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        updatable_index.remove_edge(u, v)
        assert_equals_rebuild(updatable_index)

    def test_non_tree_edge_removal_keeps_categories(self, updatable_index):
        rng = np.random.default_rng(4)
        try:
            u, v, _ = _pick_existing_edge(
                updatable_index.network, rng, updatable_index.trees, on_tree=False
            )
        except AssertionError:
            pytest.skip("every edge lies on some spanning tree")
        before = updatable_index.table.categories.copy()
        updatable_index.remove_edge(u, v)
        assert np.array_equal(updatable_index.table.categories, before)
        assert_equals_rebuild(updatable_index)

    def test_removals_then_queries_stay_correct(self, updatable_index):
        rng = np.random.default_rng(5)
        for _ in range(2):
            u, v, _ = _pick_existing_edge(updatable_index.network, rng)
            # Keep connectivity plausible: skip degree-1 endpoints.
            if (
                updatable_index.network.degree(u) <= 1
                or updatable_index.network.degree(v) <= 1
            ):
                continue
            updatable_index.remove_edge(u, v)
        updatable_index.refresh_storage()
        updatable_index.verify(sample_nodes=8, seed=1)

    def test_disconnection_marks_unreachable(self, updatable_index):
        """Cut off a degree-1 node: every object must become unreachable
        from it (unless an object lives there)."""
        network = updatable_index.network
        leaf = next(
            (
                node
                for node in network.nodes()
                if network.degree(node) == 1
                and node not in updatable_index.dataset
            ),
            None,
        )
        if leaf is None:
            pytest.skip("no non-object leaf in this network")
        neighbor, _ = network.neighbors(leaf)[0]
        updatable_index.remove_edge(leaf, neighbor)
        unreachable = updatable_index.partition.unreachable
        assert all(
            updatable_index.table.categories[leaf, rank] == unreachable
            for rank in range(len(updatable_index.dataset))
        )
        assert_equals_rebuild(updatable_index)


class TestReweight:
    def test_decrease_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(6)
        u, v, w = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        if w <= 1:
            updatable_index.network.set_edge_weight(u, v, 5.0)
            updatable_index.set_edge_weight(u, v, 5.0)  # no-op sync
            w = 5.0
        updatable_index.set_edge_weight(u, v, w / 2)
        assert_equals_rebuild(updatable_index)

    def test_increase_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(7)
        u, v, w = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        updatable_index.set_edge_weight(u, v, w * 3)
        assert_equals_rebuild(updatable_index)

    def test_same_weight_is_a_noop(self, updatable_index):
        rng = np.random.default_rng(8)
        u, v, w = _pick_existing_edge(updatable_index.network, rng)
        report = updatable_index.set_edge_weight(u, v, w)
        assert report.changed_components == 0
        assert not report.affected_objects

    def test_increase_on_non_tree_edge_changes_nothing(self, updatable_index):
        rng = np.random.default_rng(9)
        try:
            u, v, w = _pick_existing_edge(
                updatable_index.network, rng, updatable_index.trees, on_tree=False
            )
        except AssertionError:
            pytest.skip("every edge lies on some spanning tree")
        report = updatable_index.set_edge_weight(u, v, w * 10)
        assert report.changed_components == 0
        assert_equals_rebuild(updatable_index)


class TestNodeOperations:
    def test_add_node_updates_to_rebuild(self, updatable_index):
        network = updatable_index.network
        node, report = updatable_index.add_node(
            1.0, 1.0, [(0, 2.0), (1, 3.0)]
        )
        assert node == network.num_nodes - 1
        assert updatable_index.table.categories.shape[0] == network.num_nodes
        assert_equals_rebuild(updatable_index)

    def test_add_node_requires_edges(self, updatable_index):
        with pytest.raises(UpdateError):
            updatable_index.add_node(0.0, 0.0, [])

    def test_remove_node_updates_to_rebuild(self, updatable_index):
        network = updatable_index.network
        victim = next(
            node
            for node in network.nodes()
            if node not in updatable_index.dataset and network.degree(node) >= 2
        )
        updatable_index.remove_node(victim)
        assert network.degree(victim) == 0
        assert_equals_rebuild(updatable_index)

    def test_remove_object_node_rejected(self, updatable_index):
        with pytest.raises(UpdateError):
            updatable_index.remove_node(updatable_index.dataset[0])


class TestUpdateLocality:
    def test_far_change_touches_few_signatures(self, updatable_index):
        """§5.4's claim: 'a change on the nodes or edges only causes a
        limited number of signatures to be updated'."""
        rng = np.random.default_rng(10)
        u, v, w = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        report = updatable_index.set_edge_weight(u, v, w + 1)
        total = updatable_index.network.num_nodes * len(updatable_index.dataset)
        assert report.changed_components < total * 0.5

    def test_requires_trees(self, small_net, small_objs):
        index = SignatureIndex.build(small_net, small_objs, backend="scipy")
        with pytest.raises(UpdateError):
            index.set_edge_weight(0, next(iter(small_net.neighbors(0)))[0], 2.0)


class TestScopedRecompression:
    """§5.4 recompresses only the touched nodes and the nodes where an
    object pair whose category moved shares a link."""

    def test_write_moving_no_pair_category_recompresses_touched_only(
        self, updatable_index
    ):
        index = updatable_index
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            u, v, w = _pick_existing_edge(
                index.network, rng, index.trees, on_tree=True
            )
            before = index.object_table.category_matrix()
            report = index.set_edge_weight(u, v, w * 1.25)
            if np.array_equal(before, index.object_table.category_matrix()):
                assert report.recompressed_nodes == report.touched_nodes
                checked += report.touched_nodes > 0
        assert checked, "no write touched nodes without moving a pair"
        assert_compression_matches_scratch(index)

    def test_write_moving_a_pair_category_matches_scratch(
        self, updatable_index
    ):
        index = updatable_index
        for a, b in [(0, 1), (2, 3), (4, 5), (1, 6)]:
            edge = _tree_path_edge(index, a, b, 0)
            if edge is None:
                continue
            before = index.object_table.category_matrix()
            weight = index.network.edge_weight(*edge)
            report = index.set_edge_weight(*edge, weight * 8)
            if not np.array_equal(
                before, index.object_table.category_matrix()
            ):
                assert report.recompressed_nodes >= report.touched_nodes
                assert_compression_matches_scratch(index)
                return
        pytest.fail("no re-weight moved an object-pair category")


def _tree_path_edge(index, a: int, b: int, pick: int):
    """An edge on tree ``a``'s path from object ``b`` (``None`` if none)."""
    parents = index.trees.parents[a]
    node = index.dataset[b]
    path = []
    while parents[node] != NO_PARENT:
        path.append((node, int(parents[node])))
        node = int(parents[node])
    return path[pick % len(path)] if path else None


def _interleaving_delta(index, op: str, seed: int):
    """One delta of kind ``op`` against the index's current network."""
    network = index.network
    rng = np.random.default_rng(seed)
    if op == "pair":
        # Re-weight an edge between two objects: moves the pair's distance,
        # and often its Definition 5.1 category.
        a, b = (int(r) for r in rng.choice(len(index.dataset), 2, replace=False))
        edge = _tree_path_edge(index, a, b, int(rng.integers(1 << 16)))
        if edge is not None:
            factor = float(rng.choice([0.125, 0.25, 4.0, 8.0]))
            return ("set_weight", *edge, network.edge_weight(*edge) * factor)
        op = "reweight"
    if op == "remove":
        # Drop a node's first adjacency entry so later positions shift.
        candidates = [n for n in network.nodes() if network.degree(n) >= 3]
        node = candidates[int(rng.integers(len(candidates)))]
        neighbor, _ = network.neighbor_at(node, 0)
        return ("remove", node, neighbor)
    if op == "add":
        for _ in range(50):
            u, v = (int(x) for x in rng.integers(network.num_nodes, size=2))
            if u != v and not network.has_edge(u, v):
                return ("add", u, v, float(rng.integers(1, 64)) / 4.0)
    edges = list(network.edges())
    edge = edges[int(rng.integers(len(edges)))]
    return ("set_weight", edge.u, edge.v, float(rng.integers(1, 64)) / 4.0)


class TestInterleavedChangesets:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["add", "remove", "reweight", "pair"]),
                    st.integers(0, 1 << 16),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_flags_match_scratch_after_every_changeset(self, steps):
        network = random_planar_network(80, seed=5)
        dataset = uniform_dataset(network, density=0.1, seed=5)
        index = SignatureIndex.build(
            network, dataset, backend="scipy", keep_trees=True
        )
        for step in steps:
            deltas = [_interleaving_delta(index, op, seed) for op, seed in step]
            try:
                changeset = ChangeSet.build(deltas)
            except QueryError:
                changeset = ChangeSet.build(deltas[:1])
            index.apply_updates(changeset)
            assert_compression_matches_scratch(index)
        assert_equals_rebuild(index)


def _dfs_subtree(parents, root):
    """The child-map DFS ``subtree`` walked before the CSR version."""
    children: dict[int, list[int]] = {}
    for node, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(int(parent), []).append(node)
    result, stack = [], [root]
    while stack:
        node = stack.pop()
        result.append(node)
        stack.extend(children.get(node, ()))
    return result


class TestSubtree:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 200),
        seed=st.integers(0, 1 << 16),
        unreached=st.floats(0.0, 0.5),
    )
    def test_csr_frontier_matches_dfs(self, size, seed, unreached):
        rng = np.random.default_rng(seed)
        order = rng.permutation(size)
        parents = np.full(size, NO_PARENT, dtype=np.int32)
        for i in range(1, size):
            if rng.random() >= unreached:
                parents[order[i]] = order[rng.integers(i)]
        trees = ObjectSpanningTrees(
            ObjectDataset([int(order[0])]), np.zeros((1, size)), parents[None]
        )
        for root in rng.integers(size, size=4):
            got = trees.subtree(0, int(root))
            assert got[0] == root
            assert len(got) == len(set(got))
            assert set(got) == set(_dfs_subtree(parents, int(root)))
