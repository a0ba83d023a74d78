"""Signature compression (§5.3, Definition 5.1, Algorithm 7).

"In the signature of node n, many objects share the same backtracking
link; furthermore, once the signature of a single object u is determined,
the signature of another object v which shares the same link may be
obtained by adding up the signatures s(n)[u] and s(u)[v]" — so ``s(n)[v]``
is replaced by a 1-bit *compressed* flag and recovered on read.

The add-up operation is Definition 5.1's *categorical summation*:

* if the two categories differ, the sum is the larger ("the dominant
  distance");
* if they are equal, the sum is the category incremented by one (on the
  grid, the expected distance within a category sits above its midpoint,
  so the sum of two equal categories likely exceeds the category's upper
  bound) — clamped at the last, unbounded category, and absorbing the
  unreachable sentinel.

The base object ``u`` for a link is "the closest object (in terms of the
distance categories), resolving ties by their positions in the sequence".
Bases are never themselves compressed (a base's own base is itself), so
decompression can re-identify the base among *stored* components.  The
category of ``s(u)[v]`` comes from the in-memory object-to-object distance
table — decompression costs CPU only, "no additional memory storage".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.categories import CategoryPartition
from repro.core.signature import (
    ObjectDistanceTable,
    SignatureComponent,
    SignatureTable,
)
from repro.errors import IndexError_

__all__ = [
    "signature_summation",
    "CompressionStats",
    "compress_table",
    "compress_nodes",
    "compress_node",
    "resolve_component",
    "resolve_category",
]


def signature_summation(
    partition: CategoryPartition, category_a: int, category_b: int
) -> int:
    """Definition 5.1: the categorical sum of two signature values.

    ``max`` when unequal; ``+1`` (clamped to the last category) when
    equal.  If either operand is the unreachable sentinel the sum is
    unreachable.
    """
    unreachable = partition.unreachable
    if category_a == unreachable or category_b == unreachable:
        return unreachable
    if category_a != category_b:
        return max(category_a, category_b)
    return min(category_a + 1, partition.num_categories - 1)


@dataclass(slots=True)
class CompressionStats:
    """Outcome of compressing a signature table.

    Attributes
    ----------
    total_components:
        N × D, the number of components considered.
    compressed_components:
        How many received the 1-bit flag.
    """

    total_components: int
    compressed_components: int

    @property
    def compressed_fraction(self) -> float:
        """Share of components compressed (the paper reports ~0.7 at p=0.01)."""
        if self.total_components == 0:
            return 0.0
        return self.compressed_components / self.total_components


#: Nodes per block of :func:`compress_nodes`.  Bounds the kernel's
#: ``(block, D)`` temporaries to a few MiB at D in the hundreds while
#: keeping the per-block numpy call overhead negligible.
COMPRESS_BLOCK = 512


def compress_table(
    table: SignatureTable,
    object_table: ObjectDistanceTable,
    *,
    object_category_matrix: np.ndarray | None = None,
) -> CompressionStats:
    """Run Algorithm 7 over every node, setting ``table.compressed`` flags.

    ``object_category_matrix`` may supply a precomputed ``(D, D)`` array of
    categorical object-to-object distances (entries < 0 meaning "pair not
    stored"); otherwise it is derived from ``object_table``.

    The flags are chosen so that :func:`resolve_component` reconstructs
    the original category exactly — compression is lossless by
    construction (a component is flagged only when the summation already
    equals its stored value).
    """
    num_nodes, num_objects = table.categories.shape
    if object_table.num_objects != num_objects:
        raise IndexError_(
            f"object table covers {object_table.num_objects} objects, "
            f"signatures cover {num_objects}"
        )
    if object_category_matrix is None:
        object_category_matrix = _object_category_matrix(object_table)
    compressed_total = compress_nodes(table, object_category_matrix)
    return CompressionStats(
        total_components=num_nodes * num_objects,
        compressed_components=compressed_total,
    )


def compress_nodes(
    table: SignatureTable,
    object_category_matrix: np.ndarray,
    nodes: np.ndarray | None = None,
) -> int:
    """Recompute the compression flags and bases of ``nodes`` (all if None).

    Algorithm 7 is node-local, so this one kernel serves construction
    (every node) and §5.4 maintenance (the nodes a write can change).  It
    runs over blocks of :data:`COMPRESS_BLOCK` nodes; per block, the base
    of every ``(node, link)`` cell — minimal category, ties to the lowest
    rank — is one ``np.minimum.at`` over the key ``category * D + rank``,
    and Definition 5.1 is evaluated for all components at once.  Results
    are written into ``table.compressed`` and ``table.bases`` in place,
    so views shared with the columnar store stay valid.  Returns the
    number of components flagged among ``nodes``.
    """
    shape = table.categories.shape
    if table.bases is None or table.bases.shape != shape:
        table.bases = np.full(shape, -1, dtype=np.int32)
    if nodes is None:
        nodes = np.arange(shape[0])
    nodes = np.asarray(nodes, dtype=np.intp).reshape(-1)
    if nodes.size == 0 or shape[1] == 0:
        return 0
    flagged = 0
    for start in range(0, nodes.size, COMPRESS_BLOCK):
        flagged += _compress_block(
            table, object_category_matrix, nodes[start:start + COMPRESS_BLOCK]
        )
    return flagged


def _compress_block(
    table: SignatureTable, object_category_matrix: np.ndarray, block: np.ndarray
) -> int:
    partition = table.partition
    sentinel = partition.unreachable
    last = partition.num_categories - 1
    links = table.links[block].astype(np.int64)
    cats = table.categories[block].astype(np.int64)
    rows, num_objects = cats.shape
    num_links = max(int(links.max()) + 1, 1)
    ranks = np.arange(num_objects)

    # Per (node, link) cell: the base key min(category * D + rank), which
    # orders by category and breaks ties by the lower rank.
    valid = links >= 0
    cells = np.arange(rows)[:, None] * num_links + np.where(valid, links, 0)
    keys = cats * num_objects + ranks
    best = np.full(rows * num_links, (sentinel + 1) * num_objects, dtype=np.int64)
    np.minimum.at(best, cells[valid], keys[valid])
    base_key = best[cells]
    base, base_cat = base_key % num_objects, base_key // num_objects

    # Definition 5.1 against each component's base: flag where the sum of
    # s(n)[u] and s(u)[v] already equals the stored s(n)[v].
    s_uv = object_category_matrix[base, ranks]
    summed = np.where(
        base_cat != s_uv,
        np.maximum(base_cat, s_uv),
        np.minimum(base_cat + 1, last),
    )
    summed[(base_cat == sentinel) | (s_uv == sentinel)] = sentinel
    flags = valid & (base != ranks) & (s_uv >= 0) & (summed == cats)
    table.compressed[block] = flags
    table.bases[block] = np.where(flags, base, -1)
    return int(np.count_nonzero(flags))


def compress_node(
    table: SignatureTable, object_category_matrix: np.ndarray, node: int
) -> int:
    """Recompute the compression flags (and bases) of a single node.

    A one-node call to :func:`compress_nodes`; returns the number of
    components flagged.
    """
    return compress_nodes(table, object_category_matrix, np.array([node]))


def _object_category_matrix(object_table: ObjectDistanceTable) -> np.ndarray:
    """``(D, D)`` categorical object distances; ``-1`` marks dropped pairs."""
    return object_table.category_matrix()


def resolve_category(
    table: SignatureTable,
    object_table: ObjectDistanceTable,
    node: int,
    rank: int,
) -> int:
    """The logical category of component ``(node, rank)``.

    Uncompressed components answer from storage; compressed ones are
    recovered by the Definition 5.1 summation against the link's base
    object — pure CPU work, mirroring §5.3's decompression.
    """
    if not table.compressed[node, rank]:
        return int(table.categories[node, rank])
    if table.bases is not None and table.bases[node, rank] >= 0:
        base = int(table.bases[node, rank])
    else:
        base = _find_base(table, node, int(table.links[node, rank]))
    if base < 0 or base == rank:
        raise IndexError_(
            f"component ({node}, {rank}) is flagged compressed but has no base"
        )
    base_category = int(table.categories[node, base])
    return signature_summation(
        table.partition, base_category, object_table.category(base, rank)
    )


def _find_base(table: SignatureTable, node: int, link: int) -> int:
    """The base object of ``link`` at ``node`` among *stored* components.

    Bases are never compressed, so scanning uncompressed components with
    the same link for the minimal category (ties to the lowest rank)
    re-identifies exactly the base Algorithm 7 used.
    """
    links = table.links[node]
    cats = table.categories[node]
    flags = table.compressed[node]
    mask = (links == link) & ~flags
    if not np.any(mask):
        return -1
    candidates = np.flatnonzero(mask)
    best = candidates[np.argmin(cats[candidates])]
    return int(best)


def resolve_component(
    table: SignatureTable,
    object_table: ObjectDistanceTable,
    node: int,
    rank: int,
) -> SignatureComponent:
    """The logical ``(category, link)`` of component ``(node, rank)``."""
    return SignatureComponent(
        category=resolve_category(table, object_table, node, rank),
        link=int(table.links[node, rank]),
    )
