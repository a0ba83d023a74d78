"""Distance-signature data structures.

§3.1: "the whole set of categorical values for a single node forms a
sequence, which is called a distance signature".  Each component pairs a
*category* (the discretized distance from the node to one object) with a
*backtracking link* (the adjacency-list position of the next node on the
shortest path toward that object).

The structures here are deliberately array-backed: a signature table over N
nodes and D objects is two ``(N, D)`` integer arrays (categories and
links) plus an optional boolean compression-flag array, which keeps even
large experiment configurations in memory while the simulated pager
accounts for their on-disk form.

This module also holds:

* :class:`DistanceRange` — the half-open interval arithmetic used by
  approximate retrieval and comparison (§3.2);
* :class:`ObjectDistanceTable` — the in-memory object-to-object distance
  table §3.2.2 requires for approximate comparison (and §5.3 reuses for
  decompression), with the paper's optimization of dropping pairs that
  fall in the last category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.categories import CategoryPartition
from repro.errors import IndexError_
from repro.storage.layout import DISTANCE_BYTES, bits_for_values

__all__ = [
    "LINK_HERE",
    "LINK_NONE",
    "DistanceRange",
    "SignatureComponent",
    "SignatureTable",
    "ObjectDistanceTable",
]

#: Link sentinel: the object sits on this very node (distance 0).
LINK_HERE = -1

#: Link sentinel: the object is unreachable from this node.
LINK_NONE = -2


@dataclass(frozen=True, slots=True)
class DistanceRange:
    """A half-open interval ``[lb, ub)`` known to contain a distance.

    An *exact* distance is represented as the degenerate ``[d, d]``
    (``lb == ub``), which every predicate treats as the single point ``d``.
    """

    lb: float
    ub: float

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise IndexError_(f"invalid distance range [{self.lb}, {self.ub})")

    @property
    def is_exact(self) -> bool:
        """Whether the range has collapsed to a single value."""
        return self.lb == self.ub

    @property
    def value(self) -> float:
        """The exact value (only valid when :attr:`is_exact`)."""
        if not self.is_exact:
            raise IndexError_(
                f"range [{self.lb}, {self.ub}) is not an exact distance"
            )
        return self.lb

    def shift(self, offset: float) -> "DistanceRange":
        """The range translated by ``offset`` (backtracking accumulation)."""
        return DistanceRange(self.lb + offset, self.ub + offset)

    def disjoint_from(self, other: "DistanceRange") -> bool:
        """Whether the two ranges share no point.

        An interval ``[lb, ub)`` contains its lower bound but not its upper
        bound; an exact range contains exactly its value.
        """
        if self.is_exact and other.is_exact:
            return self.lb != other.lb
        if self.is_exact:
            return not (other.lb <= self.lb < other.ub)
        if other.is_exact:
            return not (self.lb <= other.lb < self.ub)
        return self.ub <= other.lb or other.ub <= self.lb

    def partially_intersects(self, delta: "DistanceRange") -> bool:
        """True when refinement against ``delta`` must continue.

        Approximate retrieval (Alg 1) refines until its range "does not
        partially intersect with ∆ (however, it may be fully contained in
        ∆)": the terminal states are *disjoint from* ∆ or *contained in*
        ∆.  A range that strictly covers ∆ is still ambiguous.
        """
        if self.disjoint_from(delta):
            return False
        return not delta.contains(self)

    def contains(self, other: "DistanceRange") -> bool:
        """Whether ``other`` lies entirely within this range."""
        if other.is_exact:
            if self.is_exact:
                return self.lb == other.lb
            return self.lb <= other.lb < self.ub
        return self.lb <= other.lb and other.ub <= self.ub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_exact:
            return f"DistanceRange(={self.lb})"
        return f"DistanceRange([{self.lb}, {self.ub}))"


@dataclass(frozen=True, slots=True)
class SignatureComponent:
    """One signature entry: the category of an object plus its link."""

    category: int
    link: int


class SignatureTable:
    """The signatures of all nodes, as aligned ``(N, D)`` arrays.

    ``categories[n, i]`` is the categorical distance from node ``n`` to the
    ``i``-th dataset object (:attr:`CategoryPartition.unreachable` when no
    path exists); ``links[n, i]`` is the backtracking link
    (:data:`LINK_HERE` / :data:`LINK_NONE` sentinels included).
    ``compressed[n, i]`` flags components whose category is *not* stored
    but recovered by the §5.3 summation at read time.
    """

    def __init__(
        self,
        partition: CategoryPartition,
        categories: np.ndarray,
        links: np.ndarray,
        max_degree: int,
    ) -> None:
        if categories.shape != links.shape:
            raise IndexError_(
                f"categories shape {categories.shape} != links shape "
                f"{links.shape}"
            )
        if categories.ndim != 2:
            raise IndexError_("signature arrays must be 2-D (nodes x objects)")
        self.partition = partition
        self.categories = categories
        self.links = links
        self.compressed = np.zeros(categories.shape, dtype=bool)
        #: Base object per compressed component (int32, -1 when none);
        #: allocated lazily by :func:`repro.core.compression.compress_table`.
        self.bases: np.ndarray | None = None
        self.max_degree = max_degree

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """N: number of node signatures."""
        return self.categories.shape[0]

    @property
    def num_objects(self) -> int:
        """D: components per signature."""
        return self.categories.shape[1]

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def stored_component(self, node: int, rank: int) -> SignatureComponent:
        """The component as stored (a compressed one has a stale category).

        Use :func:`repro.core.compression.resolve_component` for the
        logical value; this accessor exists for the storage layer and for
        tests that verify the compression invariant.
        """
        return SignatureComponent(
            int(self.categories[node, rank]), int(self.links[node, rank])
        )

    def node_categories(self, node: int) -> np.ndarray:
        """The category row of ``node`` (shared memory, do not mutate)."""
        return self.categories[node]

    # ------------------------------------------------------------------
    # size accounting (§5.2, §5.3, Table 1)
    # ------------------------------------------------------------------
    def category_bits_fixed(self) -> int:
        """Fixed-length bits per category id: ``ceil(log2 M)`` (§5.2)."""
        return bits_for_values(self.partition.num_categories)

    def link_bits(self) -> int:
        """Fixed-length bits per backtracking link: ``ceil(log2 R)``."""
        return bits_for_values(max(self.max_degree, 1))

    def raw_record_bits(self, node: int) -> int:
        """Raw signature size of ``node``: ``(log M + log R) * D`` bits."""
        del node  # raw size is uniform across nodes
        return self.num_objects * (self.category_bits_fixed() + self.link_bits())

    def encoded_record_bits(self, node: int) -> int:
        """Encoded size: reverse-zero-padding category codes + fixed links."""
        m = self.partition.num_categories
        cats = self.categories[node]
        # rzp length is M - category for regular categories and M for the
        # unreachable sentinel (the truncated all-zeros word).
        lengths = np.where(cats == m, m, m - cats)
        return int(lengths.sum()) + self.num_objects * self.link_bits()

    def compressed_record_bits(
        self, node: int, *, accounting: str = "flagged"
    ) -> int:
        """Encoded + compressed size of one node's signature.

        Two accountings:

        * ``"flagged"`` (default) — a self-delimiting layout: one flag bit
          per component; a compressed component stores ``flag + link``, an
          uncompressed one ``flag + category code + link``.
        * ``"paper"`` — Table 1's arithmetic: compressed components cost
          nothing ("their category ids are replaced by the 1-bit
          compressed flag", with the flag itself left out of the totals);
          uncompressed components keep their codes, links unchanged.
          Use this to compare against the paper's reported ratios.
        """
        m = self.partition.num_categories
        cats = self.categories[node]
        lengths = np.where(cats == m, m, m - cats)
        lengths = np.where(self.compressed[node], 0, lengths)
        if accounting == "flagged":
            overhead = self.num_objects  # one flag bit per component
        elif accounting == "paper":
            overhead = 0
        else:
            raise IndexError_(
                f"unknown compression accounting {accounting!r}"
            )
        return (
            int(lengths.sum())
            + overhead
            + self.num_objects * self.link_bits()
        )

    def total_bits(self, kind: str = "compressed") -> int:
        """Total table size in bits.

        ``kind`` is one of ``raw``, ``encoded``, ``compressed`` (the
        self-delimiting flagged layout) or ``compressed-paper`` (Table 1's
        accounting).
        """
        sizers = {
            "raw": self.raw_record_bits,
            "encoded": self.encoded_record_bits,
            "compressed": self.compressed_record_bits,
            "compressed-paper": lambda node: self.compressed_record_bits(
                node, accounting="paper"
            ),
        }
        try:
            sizer = sizers[kind]
        except KeyError:
            raise IndexError_(f"unknown size kind {kind!r}") from None
        return sum(sizer(node) for node in range(self.num_nodes))


class ObjectDistanceTable:
    """In-memory network distances between every pair of objects.

    §3.2.2 stores these distances "in memory as a table" for the
    approximate comparison's embedding, noting "those distances that fall
    in the last distance category do not need to be stored".  §5.3 reuses
    the same table for decompression.  Missing pairs answer ``inf``-like
    absence through :meth:`has`.
    """

    def __init__(
        self,
        distances: np.ndarray,
        partition: CategoryPartition,
        *,
        drop_last_category: bool = True,
    ) -> None:
        if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
            raise IndexError_(
                f"object distance table must be square, got {distances.shape}"
            )
        self.partition = partition
        matrix = np.array(distances, dtype=float, copy=True)
        self.dropped_pairs = 0
        self._drop_last_category = drop_last_category
        if drop_last_category:
            # Only *finite* last-category distances are dropped: being
            # dropped then still encodes the pair's category (the last
            # one), which §5.3's summation exploits.  Infinite distances
            # (disconnected pairs) stay explicit so they keep mapping to
            # the unreachable sentinel.
            last_lb = partition.lower_bound(partition.num_categories - 1)
            mask = (matrix >= last_lb) & np.isfinite(matrix)
            np.fill_diagonal(mask, False)
            self.dropped_pairs = int(mask.sum())
            matrix[mask] = math.nan
        self._matrix = matrix

    @classmethod
    def from_stored(
        cls,
        matrix: np.ndarray,
        partition: CategoryPartition,
        *,
        drop_last_category: bool = True,
    ) -> "ObjectDistanceTable":
        """Rewrap an already-materialized matrix without re-applying drops.

        The columnar persistence path (format v2) stores ``_matrix``
        verbatim — ``NaN`` already marks the dropped pairs — so loading
        must not run the constructor's drop rule again.  ``matrix`` is
        adopted as-is (it may be an ``np.memmap``; copy-on-write mode
        keeps :meth:`set_distance` working on a loaded table).
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise IndexError_(
                f"object distance table must be square, got {matrix.shape}"
            )
        table = cls.__new__(cls)
        table.partition = partition
        table._drop_last_category = drop_last_category
        table._matrix = matrix
        table.dropped_pairs = int(np.isnan(matrix).sum())
        return table

    @property
    def num_objects(self) -> int:
        """D: the dataset cardinality."""
        return self._matrix.shape[0]

    def matrix_view(self) -> np.ndarray:
        """The raw ``(D, D)`` matrix as a read-only view.

        ``NaN`` marks dropped finite last-category pairs; ``inf`` marks
        disconnected pairs.  Vectorized consumers (the kNN bound pass)
        read the whole table in one numpy expression instead of D²
        :meth:`distance` calls.
        """
        view = self._matrix.view()
        view.setflags(write=False)
        return view

    def has(self, i: int, j: int) -> bool:
        """Whether the pair distance is stored (not dropped, not inf)."""
        value = self._matrix[i, j]
        return not (math.isnan(value) or math.isinf(value))

    def distance(self, i: int, j: int) -> float:
        """The stored network distance between objects ``i`` and ``j``."""
        value = self._matrix[i, j]
        if math.isnan(value):
            raise IndexError_(
                f"object pair ({i}, {j}) was dropped from the distance table"
            )
        return float(value)

    def category(self, i: int, j: int) -> int:
        """The categorical distance between objects ``i`` and ``j``.

        This is the ``s(u)[v]`` the compression summation (Def 5.1) uses.
        Dropped pairs still answer: dropping happens exactly when the
        distance falls in the last category, so the category survives
        the drop.
        """
        value = self._matrix[i, j]
        if math.isnan(value):
            return self.partition.num_categories - 1
        return self.partition.categorize(float(value))

    def set_distance(self, i: int, j: int, value: float) -> None:
        """Refresh a pair distance after a network update (§5.4).

        Applies the same drop rule the constructor used: a value in the
        last category is stored as "dropped" when dropping is enabled.
        The diagonal is immutable (always 0).
        """
        if i == j:
            return
        drop = False
        if self._drop_last_category and math.isfinite(value):
            last_lb = self.partition.lower_bound(self.partition.num_categories - 1)
            drop = value >= last_lb
        was_dropped = math.isnan(self._matrix[i, j])
        if drop:
            self._matrix[i, j] = math.nan
            if not was_dropped:
                self.dropped_pairs += 1
        else:
            self._matrix[i, j] = float(value)
            if was_dropped:
                self.dropped_pairs -= 1

    def set_row(self, i: int, values: np.ndarray) -> None:
        """Refresh every pair distance ``(i, j)`` at once (§5.4).

        The vectorized :meth:`set_distance` over a whole row: the same
        drop rule and the same ``dropped_pairs`` bookkeeping, with the
        diagonal entry left untouched.
        """
        row = np.array(values, dtype=float)
        if row.shape != (self.num_objects,):
            raise IndexError_(
                f"row of {row.shape} values for {self.num_objects} objects"
            )
        if self._drop_last_category:
            last_lb = self.partition.lower_bound(self.partition.num_categories - 1)
            row[np.isfinite(row) & (row >= last_lb)] = math.nan
        current = self._matrix[i]
        row[i] = current[i]
        self.dropped_pairs += int(np.isnan(row).sum() - np.isnan(current).sum())
        current[:] = row

    def category_matrix(self) -> np.ndarray:
        """``(D, D)`` categorical distances (vectorized :meth:`category`).

        Dropped pairs report the last category (see :meth:`category`);
        disconnected pairs report the unreachable sentinel; the diagonal
        is category 0.  This is the form compression consumes.
        """
        boundaries = np.asarray(self.partition.boundaries, dtype=float)
        matrix = self._matrix
        cats = np.searchsorted(boundaries, matrix, side="right").astype(np.int64)
        cats[np.isinf(matrix)] = self.partition.unreachable
        cats[np.isnan(matrix)] = self.partition.num_categories - 1
        np.fill_diagonal(cats, 0)
        return cats

    def expanded(self, new_distances: np.ndarray) -> "ObjectDistanceTable":
        """A new table with one more object appended.

        ``new_distances[i]`` is the exact distance from existing object
        ``i`` to the new object (its own entry, at the end, is 0).
        Existing dropped pairs stay dropped; the new row/column gets the
        same drop rule applied.
        """
        d = self.num_objects
        if len(new_distances) != d + 1:
            raise IndexError_(
                f"expected {d + 1} distances (including the self-distance), "
                f"got {len(new_distances)}"
            )
        grown = np.full((d + 1, d + 1), math.nan)
        grown[:d, :d] = self._matrix
        grown[d, :] = new_distances
        grown[:, d] = new_distances
        grown[d, d] = 0.0
        table = ObjectDistanceTable.__new__(ObjectDistanceTable)
        table.partition = self.partition
        table._drop_last_category = self._drop_last_category
        table.dropped_pairs = self.dropped_pairs
        table._matrix = grown
        if self._drop_last_category:
            last_lb = self.partition.lower_bound(
                self.partition.num_categories - 1
            )
            for j in range(d):
                value = grown[d, j]
                if math.isfinite(value) and value >= last_lb:
                    grown[d, j] = math.nan
                    grown[j, d] = math.nan
                    table.dropped_pairs += 2
        return table

    def contracted(self, rank: int) -> "ObjectDistanceTable":
        """A new table with object ``rank`` removed."""
        d = self.num_objects
        if not 0 <= rank < d:
            raise IndexError_(f"object rank {rank} out of range 0..{d - 1}")
        keep = [i for i in range(d) if i != rank]
        shrunk = self._matrix[np.ix_(keep, keep)]
        table = ObjectDistanceTable.__new__(ObjectDistanceTable)
        table.partition = self.partition
        table._drop_last_category = self._drop_last_category
        table._matrix = np.array(shrunk, copy=True)
        table.dropped_pairs = int(np.isnan(table._matrix).sum())
        return table

    def size_bytes(self) -> int:
        """Memory footprint: 4 bytes per stored (unordered) pair."""
        d = self.num_objects
        stored = d * (d - 1) - self.dropped_pairs
        return stored // 2 * DISTANCE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObjectDistanceTable(objects={self.num_objects}, "
            f"dropped_pairs={self.dropped_pairs})"
        )
