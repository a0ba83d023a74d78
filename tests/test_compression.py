"""Signature compression (§5.3): Definition 5.1 and lossless recovery."""

import numpy as np
import pytest

from repro.core.categories import CategoryPartition, ExponentialPartition
from repro.core import compression
from repro.core.compression import (
    compress_node,
    compress_nodes,
    compress_table,
    resolve_category,
    resolve_component,
    signature_summation,
)
from repro.core.signature import ObjectDistanceTable, SignatureTable
from repro.errors import IndexError_


@pytest.fixture(scope="module")
def partition():
    return CategoryPartition([2, 4, 8, 16])  # 5 categories, unreachable = 5


class TestSummation:
    def test_unequal_takes_max(self, partition):
        """Def 5.1: 'the larger of the two, because it is the dominant
        distance in the summation'."""
        assert signature_summation(partition, 1, 3) == 3
        assert signature_summation(partition, 3, 1) == 3

    def test_equal_increments(self, partition):
        assert signature_summation(partition, 2, 2) == 3

    def test_equal_at_last_category_clamps(self, partition):
        last = partition.num_categories - 1
        assert signature_summation(partition, last, last) == last

    def test_unreachable_absorbs(self, partition):
        u = partition.unreachable
        assert signature_summation(partition, u, 2) == u
        assert signature_summation(partition, 2, u) == u


def _built(small_net, small_objs, partition, drop=True):
    from repro.core.builder import build_raw_signature_data

    data = build_raw_signature_data(small_net, small_objs, partition)
    table = SignatureTable(
        partition, data.categories, data.links, max_degree=small_net.max_degree()
    )
    object_table = ObjectDistanceTable(
        data.object_distances, partition, drop_last_category=drop
    )
    return table, object_table


@pytest.fixture(scope="module")
def built(small_net, small_objs):
    partition = ExponentialPartition(2.0, 4.0, 300.0)
    table, object_table = _built(small_net, small_objs, partition)
    stats = compress_table(table, object_table)
    return table, object_table, stats


class TestCompressTable:
    def test_lossless_recovery(self, built):
        """Every component — flagged or not — resolves to its original."""
        table, object_table, _ = built
        original = table.categories.copy()
        for node in range(table.num_nodes):
            for rank in range(table.num_objects):
                assert (
                    resolve_category(table, object_table, node, rank)
                    == original[node, rank]
                )

    def test_some_components_compress(self, built):
        _, _, stats = built
        assert stats.compressed_components > 0
        assert 0 < stats.compressed_fraction < 1

    def test_flags_shrink_storage(self, built):
        table, _, _ = built
        assert table.total_bits("compressed") < table.total_bits("encoded") + (
            table.num_nodes * table.num_objects  # flag overhead budget
        )

    def test_bases_are_never_compressed(self, built):
        table, _, _ = built
        flagged = np.argwhere(table.compressed)
        for node, rank in flagged:
            base = table.bases[node, rank]
            assert base >= 0
            assert not table.compressed[node, base]

    def test_bases_share_the_link(self, built):
        table, _, _ = built
        flagged = np.argwhere(table.compressed)
        for node, rank in flagged:
            base = table.bases[node, rank]
            assert table.links[node, base] == table.links[node, rank]

    def test_summation_reconstructs_flagged_value(self, built):
        """The flag is set only when Def 5.1 already equals the stored
        category — the invariant that makes decompression exact."""
        table, object_table, _ = built
        flagged = np.argwhere(table.compressed)
        for node, rank in flagged[:200]:
            base = int(table.bases[node, rank])
            summed = signature_summation(
                table.partition,
                int(table.categories[node, base]),
                object_table.category(base, int(rank)),
            )
            assert summed == int(table.categories[node, rank])

    def test_resolve_component_returns_link_too(self, built):
        table, object_table, _ = built
        comp = resolve_component(table, object_table, 0, 0)
        assert comp.link == int(table.links[0, 0])

    def test_mismatched_object_table_rejected(self, built, partition):
        table, _, _ = built
        tiny = ObjectDistanceTable(np.zeros((2, 2)), partition)
        with pytest.raises(IndexError_):
            compress_table(table, tiny)


class TestCompressNode:
    def test_recompression_is_idempotent(self, built):
        table, object_table, _ = built
        before_flags = table.compressed.copy()
        before_bases = table.bases.copy()
        matrix = object_table.category_matrix()
        for node in range(0, table.num_nodes, 17):
            compress_node(table, matrix, node)
        assert np.array_equal(table.compressed, before_flags)
        assert np.array_equal(table.bases, before_bases)

    def test_single_object_never_compresses(
        self, small_net, single_object_dataset
    ):
        partition = ExponentialPartition(2.0, 4.0, 300.0)
        table, object_table = _built(
            small_net, single_object_dataset, partition
        )
        stats = compress_table(table, object_table)
        assert stats.compressed_components == 0

    def test_dropped_pairs_still_compress_remote_objects(
        self, small_net, small_objs
    ):
        """Dropping a pair keeps its category (the last one), so remote
        objects — the very targets of §5.3 — stay compressible."""
        partition = CategoryPartition([0.5])  # everything in last category
        table, object_table = _built(small_net, small_objs, partition)
        assert object_table.dropped_pairs > 0
        stats = compress_table(table, object_table)
        # With every object in the catch-all category, every non-base
        # component sums to itself and compresses.
        assert stats.compressed_fraction > 0.5
        # ... and recovery stays lossless.
        for node in range(0, table.num_nodes, 29):
            for rank in range(table.num_objects):
                assert (
                    resolve_category(table, object_table, node, rank)
                    == int(table.categories[node, rank])
                )


def _reference_flags(table, object_table, node):
    """Algorithm 7 for one node, component by component (test oracle).

    Per link, the base is the minimal-category object, ties to the lowest
    rank; every other object on the link is flagged when the Definition
    5.1 sum against its base equals its stored category.
    """
    links = table.links[node]
    cats = table.categories[node]
    bases: dict[int, int] = {}
    for rank in range(table.num_objects):
        link = int(links[rank])
        if link < 0:
            continue
        best = bases.get(link)
        if best is None or int(cats[rank]) < int(cats[best]):
            bases[link] = rank
    flags = np.zeros(table.num_objects, dtype=bool)
    base_of = np.full(table.num_objects, -1, dtype=np.int32)
    for rank in range(table.num_objects):
        link = int(links[rank])
        if link < 0 or bases[link] == rank:
            continue
        base = bases[link]
        summed = signature_summation(
            table.partition, int(cats[base]), object_table.category(base, rank)
        )
        if summed == int(cats[rank]):
            flags[rank] = True
            base_of[rank] = base
    return flags, base_of


def _uncompressed_copy(table):
    return SignatureTable(
        table.partition,
        table.categories.copy(),
        table.links.copy(),
        max_degree=table.max_degree,
    )


def _assert_matches_reference(table, object_table):
    for node in range(table.num_nodes):
        flags, bases = _reference_flags(table, object_table, node)
        np.testing.assert_array_equal(table.compressed[node], flags)
        np.testing.assert_array_equal(table.bases[node], bases)


class TestBlockKernel:
    """``compress_nodes`` runs Algorithm 7 over node blocks; it must agree
    with the per-node definition on every node, whatever the blocking."""

    def test_every_node_of_a_built_index(self, sig_index):
        _assert_matches_reference(sig_index.table, sig_index.object_table)

    def test_every_node_of_a_shard(self, small_net, small_objs):
        from repro.shard import ShardedSignatureIndex

        sharded = ShardedSignatureIndex.build(
            small_net.copy(), small_objs, num_shards=3, backend="scipy"
        )
        for shard in sharded.shards:
            if shard.index is not None:
                _assert_matches_reference(
                    shard.index.table, shard.index.object_table
                )

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_flags(
        self, built, block, monkeypatch
    ):
        table, object_table, stats = built
        fresh = _uncompressed_copy(table)
        monkeypatch.setattr(compression, "COMPRESS_BLOCK", block)
        flagged = compress_nodes(fresh, object_table.category_matrix())
        assert flagged == stats.compressed_components
        np.testing.assert_array_equal(fresh.compressed, table.compressed)
        np.testing.assert_array_equal(fresh.bases, table.bases)

    def test_node_subset_leaves_other_nodes_alone(self, built):
        table, object_table, _ = built
        fresh = _uncompressed_copy(table)
        nodes = np.array([13, 2, 250, 77])
        compress_nodes(fresh, object_table.category_matrix(), nodes)
        np.testing.assert_array_equal(
            fresh.compressed[nodes], table.compressed[nodes]
        )
        np.testing.assert_array_equal(fresh.bases[nodes], table.bases[nodes])
        others = np.setdiff1d(np.arange(table.num_nodes), nodes)
        assert not fresh.compressed[others].any()
        assert (fresh.bases[others] == -1).all()

    def test_writes_in_place(self, built):
        table, object_table, _ = built
        flags, bases = table.compressed, table.bases
        compress_nodes(table, object_table.category_matrix())
        assert table.compressed is flags and table.bases is bases
