"""Signature data structures: DistanceRange semantics, tables, sizes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.categories import CategoryPartition
from repro.core.signature import (
    LINK_HERE,
    LINK_NONE,
    DistanceRange,
    ObjectDistanceTable,
    SignatureTable,
)
from repro.errors import IndexError_


def interval(lo=0.0, hi=1000.0):
    """Hypothesis strategy for valid DistanceRanges (possibly exact)."""
    return st.tuples(
        st.floats(min_value=lo, max_value=hi),
        st.floats(min_value=lo, max_value=hi),
    ).map(lambda pair: DistanceRange(min(pair), max(pair)))


class TestDistanceRange:
    def test_invalid_order_rejected(self):
        with pytest.raises(IndexError_):
            DistanceRange(5.0, 4.0)

    def test_exactness(self):
        assert DistanceRange(3.0, 3.0).is_exact
        assert DistanceRange(3.0, 3.0).value == 3.0
        assert not DistanceRange(3.0, 4.0).is_exact

    def test_value_of_interval_rejected(self):
        with pytest.raises(IndexError_):
            DistanceRange(3.0, 4.0).value

    def test_shift(self):
        assert DistanceRange(1.0, 2.0).shift(10.0) == DistanceRange(11.0, 12.0)

    def test_interval_contains_lower_not_upper(self):
        r = DistanceRange(2.0, 5.0)
        assert not r.disjoint_from(DistanceRange(2.0, 2.0))
        assert r.disjoint_from(DistanceRange(5.0, 5.0))

    def test_disjoint_intervals(self):
        a = DistanceRange(0.0, 5.0)
        b = DistanceRange(5.0, 9.0)
        assert a.disjoint_from(b)  # half-open: no shared point
        assert b.disjoint_from(a)
        assert not a.disjoint_from(DistanceRange(4.0, 6.0))

    def test_disjoint_exact_pairs(self):
        assert DistanceRange(1.0, 1.0).disjoint_from(DistanceRange(2.0, 2.0))
        assert not DistanceRange(1.0, 1.0).disjoint_from(DistanceRange(1.0, 1.0))

    def test_contains_interval(self):
        outer = DistanceRange(0.0, 10.0)
        assert outer.contains(DistanceRange(2.0, 5.0))
        assert outer.contains(DistanceRange(0.0, 10.0))
        assert not outer.contains(DistanceRange(5.0, 11.0))

    def test_contains_exact(self):
        outer = DistanceRange(0.0, 10.0)
        assert outer.contains(DistanceRange(0.0, 0.0))
        assert not outer.contains(DistanceRange(10.0, 10.0))

    def test_partial_intersection_requires_refinement(self):
        delta = DistanceRange(5.0, 5.0)
        # A wide range covering the point must keep refining.
        assert DistanceRange(0.0, 10.0).partially_intersects(delta)
        # Disjoint or contained-in-delta ranges terminate.
        assert not DistanceRange(6.0, 10.0).partially_intersects(delta)
        assert not DistanceRange(5.0, 5.0).partially_intersects(delta)

    def test_partial_intersection_with_interval_delta(self):
        delta = DistanceRange(3.0, 7.0)
        assert not DistanceRange(4.0, 6.0).partially_intersects(delta)  # inside
        assert not DistanceRange(8.0, 9.0).partially_intersects(delta)  # disjoint
        assert DistanceRange(0.0, 5.0).partially_intersects(delta)  # overlap
        assert DistanceRange(0.0, 10.0).partially_intersects(delta)  # covers

    def test_infinite_upper_bound(self):
        last = DistanceRange(100.0, math.inf)
        assert last.partially_intersects(DistanceRange(150.0, 150.0))
        assert last.disjoint_from(DistanceRange(50.0, 50.0))

    @given(a=interval(), b=interval())
    def test_disjoint_is_symmetric_property(self, a, b):
        assert a.disjoint_from(b) == b.disjoint_from(a)

    @given(a=interval(), b=interval())
    def test_disjoint_and_contains_exclusive_property(self, a, b):
        if a.contains(b) or b.contains(a):
            assert not a.disjoint_from(b)

    @given(r=interval(), delta=interval())
    def test_terminal_states_property(self, r, delta):
        """Not-partially-intersecting == disjoint or contained in delta."""
        terminal = not r.partially_intersects(delta)
        assert terminal == (r.disjoint_from(delta) or delta.contains(r))


@pytest.fixture()
def tiny_table():
    partition = CategoryPartition([2, 4, 8])
    categories = np.array([[0, 2], [1, 3], [4, 0]], dtype=np.int16)  # 4 = unreachable
    links = np.array(
        [[LINK_HERE, 1], [0, 2], [LINK_NONE, LINK_HERE]], dtype=np.int32
    )
    return SignatureTable(partition, categories, links, max_degree=4)


class TestSignatureTable:
    def test_shape_accessors(self, tiny_table):
        assert tiny_table.num_nodes == 3
        assert tiny_table.num_objects == 2

    def test_mismatched_shapes_rejected(self):
        partition = CategoryPartition([1])
        with pytest.raises(IndexError_):
            SignatureTable(
                partition,
                np.zeros((2, 3), dtype=np.int16),
                np.zeros((3, 2), dtype=np.int32),
                max_degree=2,
            )

    def test_stored_component(self, tiny_table):
        comp = tiny_table.stored_component(1, 1)
        assert comp.category == 3 and comp.link == 2

    def test_fixed_bit_widths(self, tiny_table):
        assert tiny_table.category_bits_fixed() == 2  # 4 categories
        assert tiny_table.link_bits() == 2  # degree 4

    def test_raw_record_bits_formula(self, tiny_table):
        assert tiny_table.raw_record_bits(0) == 2 * (2 + 2)

    def test_encoded_record_bits(self, tiny_table):
        # node 0: categories 0 (len 4), 2 (len 2); links 2 bits each.
        assert tiny_table.encoded_record_bits(0) == 4 + 2 + 2 * 2
        # node 2: sentinel (len 4 = M), category 0 (len 4).
        assert tiny_table.encoded_record_bits(2) == 4 + 4 + 2 * 2

    def test_compressed_record_bits_without_flags(self, tiny_table):
        # No component flagged: encoded + 1 flag bit per component.
        assert (
            tiny_table.compressed_record_bits(0)
            == tiny_table.encoded_record_bits(0) + 2
        )

    def test_compressed_record_bits_with_flag(self, tiny_table):
        tiny_table.compressed[0, 0] = True
        # Category code (len 4) dropped, flag bits stay.
        assert (
            tiny_table.compressed_record_bits(0)
            == tiny_table.encoded_record_bits(0) + 2 - 4
        )

    def test_total_bits_kinds(self, tiny_table):
        assert tiny_table.total_bits("raw") == sum(
            tiny_table.raw_record_bits(n) for n in range(3)
        )
        with pytest.raises(IndexError_):
            tiny_table.total_bits("bogus")


class TestObjectDistanceTable:
    @pytest.fixture()
    def partition(self):
        return CategoryPartition([2, 4, 8])

    def test_distances_and_categories(self, partition):
        matrix = np.array([[0.0, 3.0], [3.0, 0.0]])
        table = ObjectDistanceTable(matrix, partition)
        assert table.distance(0, 1) == 3.0
        assert table.category(0, 1) == 1

    def test_last_category_pairs_dropped(self, partition):
        matrix = np.array([[0.0, 9.0], [9.0, 0.0]])
        table = ObjectDistanceTable(matrix, partition)
        assert not table.has(0, 1)
        assert table.dropped_pairs == 2
        with pytest.raises(IndexError_):
            table.distance(0, 1)
        # The *category* survives the drop: dropping happens exactly when
        # the distance is in the last category (§5.3 relies on this).
        assert table.category(0, 1) == partition.num_categories - 1

    def test_drop_disabled_keeps_everything(self, partition):
        matrix = np.array([[0.0, 9.0], [9.0, 0.0]])
        table = ObjectDistanceTable(matrix, partition, drop_last_category=False)
        assert table.has(0, 1)
        assert table.distance(0, 1) == 9.0

    def test_non_square_rejected(self, partition):
        with pytest.raises(IndexError_):
            ObjectDistanceTable(np.zeros((2, 3)), partition)

    def test_category_matrix(self, partition):
        matrix = np.array([[0.0, 3.0, 9.0], [3.0, 0.0, 5.0], [9.0, 5.0, 0.0]])
        table = ObjectDistanceTable(matrix, partition)
        cats = table.category_matrix()
        assert cats[0, 1] == 1
        assert cats[1, 2] == 2
        assert cats[0, 2] == partition.num_categories - 1  # dropped pair
        assert cats[0, 0] == 0

    def test_size_bytes_counts_stored_pairs_once(self, partition):
        matrix = np.array([[0.0, 3.0, 9.0], [3.0, 0.0, 5.0], [9.0, 5.0, 0.0]])
        table = ObjectDistanceTable(matrix, partition)
        # Pairs (0,1) and (1,2) stored, (0,2) dropped: 2 pairs x 4 bytes.
        assert table.size_bytes() == 8

    def test_set_distance_updates_and_respects_drop(self, partition):
        matrix = np.array([[0.0, 3.0], [3.0, 0.0]])
        table = ObjectDistanceTable(matrix, partition)
        table.set_distance(0, 1, 9.0)  # now in last category -> dropped
        assert not table.has(0, 1)
        table.set_distance(0, 1, 1.0)  # back in range
        assert table.distance(0, 1) == 1.0

    @pytest.mark.parametrize("drop", [True, False])
    def test_set_row_equals_set_distance_per_pair(self, partition, drop):
        """One vectorized row write == D scalar writes, drops included."""
        matrix = np.array(
            [[0.0, 3.0, 9.0, math.inf],
             [3.0, 0.0, 5.0, 1.0],
             [9.0, 5.0, 0.0, 2.0],
             [math.inf, 1.0, 2.0, 0.0]]
        )
        row = np.array([7.0, 12.0, 0.5, math.inf])
        scalar = ObjectDistanceTable(matrix, partition, drop_last_category=drop)
        vector = ObjectDistanceTable(matrix, partition, drop_last_category=drop)
        for other, value in enumerate(row):
            scalar.set_distance(2, other, float(value))
        vector.set_row(2, row)
        np.testing.assert_array_equal(
            vector.matrix_view(), scalar.matrix_view()
        )
        assert vector.dropped_pairs == scalar.dropped_pairs
        assert vector.distance(2, 2) == 0.0

    def test_set_row_rejects_wrong_length(self, partition):
        table = ObjectDistanceTable(np.zeros((3, 3)), partition)
        with pytest.raises(IndexError_):
            table.set_row(0, np.zeros(2))

    def test_set_distance_diagonal_immutable(self, partition):
        table = ObjectDistanceTable(np.zeros((2, 2)), partition)
        table.set_distance(0, 0, 99.0)
        assert table.distance(0, 0) == 0.0

    def test_infinite_distance_categorizes_unreachable(self, partition):
        matrix = np.array([[0.0, math.inf], [math.inf, 0.0]])
        table = ObjectDistanceTable(matrix, partition, drop_last_category=False)
        assert table.category(0, 1) == partition.unreachable
