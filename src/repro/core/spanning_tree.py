"""Per-object shortest-path spanning trees.

§5.2 constructs signatures by building "the shortest path spanning tree for
every object o"; §5.4 then *keeps* those trees — "the intermediate results
during signature construction" — plus a reverse index from each edge to the
objects whose trees comprise it, as the machinery for incremental updates.

:class:`ObjectSpanningTrees` holds one ``(distance, parent)`` pair of
arrays per object and maintains the reverse edge index.  Trees are rooted
at the object's node; ``parent[v]`` is the next node from ``v`` *toward*
the object, which is exactly what a backtracking link points at.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import IndexError_
from repro.network.datasets import ObjectDataset
from repro.network.graph import RoadNetwork

__all__ = ["NO_PARENT", "ObjectSpanningTrees"]

#: Parent sentinel: the node is the tree root or unreached.
NO_PARENT = -1


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ObjectSpanningTrees:
    """All objects' shortest-path spanning trees plus the reverse edge index.

    Parameters
    ----------
    dataset:
        The object dataset; tree ``i`` is rooted at ``dataset[i]``.
    distances:
        ``(D, N)`` array: ``distances[i, v]`` is the network distance from
        object ``i``'s node to node ``v`` (``inf`` when unreached).
    parents:
        ``(D, N)`` int array: ``parents[i, v]`` is ``v``'s parent in tree
        ``i`` — the next node from ``v`` toward the object —
        :data:`NO_PARENT` at the root and at unreached nodes.
    """

    def __init__(
        self,
        dataset: ObjectDataset,
        distances: np.ndarray,
        parents: np.ndarray,
    ) -> None:
        if distances.shape != parents.shape:
            raise IndexError_(
                f"distances shape {distances.shape} != parents shape "
                f"{parents.shape}"
            )
        if distances.shape[0] != len(dataset):
            raise IndexError_(
                f"got {distances.shape[0]} trees for {len(dataset)} objects"
            )
        self.dataset = dataset
        self.distances = distances
        self.parents = parents
        self._reverse_index: dict[tuple[int, int], set[int]] = {}
        self._build_reverse_index()

    # ------------------------------------------------------------------
    # reverse edge index (§5.4)
    # ------------------------------------------------------------------
    def _build_reverse_index(self) -> None:
        self._reverse_index.clear()
        num_objects, num_nodes = self.parents.shape
        for rank in range(num_objects):
            parents = self.parents[rank]
            for node in range(num_nodes):
                parent = parents[node]
                if parent != NO_PARENT:
                    key = _edge_key(node, int(parent))
                    self._reverse_index.setdefault(key, set()).add(rank)

    def trees_using_edge(self, u: int, v: int) -> frozenset[int]:
        """Object ranks whose spanning tree contains edge ``{u, v}``."""
        return frozenset(self._reverse_index.get(_edge_key(u, v), ()))

    def _index_discard(self, u: int, v: int, rank: int) -> None:
        key = _edge_key(u, v)
        members = self._reverse_index.get(key)
        if members is not None:
            members.discard(rank)
            if not members:
                del self._reverse_index[key]

    def _index_add(self, u: int, v: int, rank: int) -> None:
        self._reverse_index.setdefault(_edge_key(u, v), set()).add(rank)

    # ------------------------------------------------------------------
    # tree access
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        """D: number of trees."""
        return self.parents.shape[0]

    @property
    def num_nodes(self) -> int:
        """N: nodes per tree."""
        return self.parents.shape[1]

    def distance(self, rank: int, node: int) -> float:
        """Distance from object ``rank``'s node to ``node``."""
        return float(self.distances[rank, node])

    def parent(self, rank: int, node: int) -> int:
        """``node``'s parent (next hop toward the object) in tree ``rank``."""
        return int(self.parents[rank, node])

    def set_parent(self, rank: int, node: int, parent: int) -> None:
        """Re-root ``node`` under ``parent`` in tree ``rank``, keeping the
        reverse edge index consistent."""
        old = int(self.parents[rank, node])
        if old == parent:
            return
        if old != NO_PARENT:
            self._index_discard(node, old, rank)
        self.parents[rank, node] = parent
        if parent != NO_PARENT:
            self._index_add(node, parent, rank)

    def children(self, rank: int, node: int) -> list[int]:
        """Direct children of ``node`` in tree ``rank`` (O(N) scan)."""
        return [int(v) for v in np.flatnonzero(self.parents[rank] == node)]

    def subtree(self, rank: int, root: int) -> list[int]:
        """All descendants of ``root`` (inclusive) in tree ``rank``.

        This is the region §5.4.2 invalidates when an edge on the tree is
        removed or grows heavier.  The child lists are a CSR built from
        ``parents`` by one argsort; the traversal expands a whole
        frontier (one tree level) per step.  Nodes come out level by
        level, ``root`` first.
        """
        parents = self.parents[rank]
        order = np.argsort(parents)
        # Children of node p are order[starts[p]:starts[p + 1]]; the
        # NO_PARENT entries sort first and are skipped by the offset.
        counts = np.bincount(
            parents[parents != NO_PARENT], minlength=self.num_nodes
        )
        starts = np.empty(self.num_nodes + 1, dtype=np.int64)
        starts[0] = np.count_nonzero(parents == NO_PARENT)
        np.cumsum(counts, out=starts[1:])
        starts[1:] += starts[0]
        levels = [np.array([root], dtype=np.int64)]
        frontier = levels[0]
        while frontier.size:
            first = starts[frontier]
            sizes = starts[frontier + 1] - first
            total = int(sizes.sum())
            if not total:
                break
            # Concatenated ranges first[i] .. first[i] + sizes[i].
            offsets = np.repeat(first - np.cumsum(sizes) + sizes, sizes)
            frontier = order[offsets + np.arange(total)]
            levels.append(frontier)
        return np.concatenate(levels).tolist()

    def iter_tree_edges(self, rank: int) -> Iterator[tuple[int, int]]:
        """All ``(node, parent)`` pairs of tree ``rank``."""
        parents = self.parents[rank]
        for node in range(self.num_nodes):
            parent = int(parents[node])
            if parent != NO_PARENT:
                yield node, parent

    # ------------------------------------------------------------------
    # dataset maintenance
    # ------------------------------------------------------------------
    def append_tree(
        self,
        dataset: ObjectDataset,
        distances: np.ndarray,
        parents: np.ndarray,
    ) -> None:
        """Add the spanning tree of a freshly inserted object.

        ``dataset`` is the *new* dataset (with the object appended last);
        the reverse edge index is extended with the new tree's edges.
        """
        if len(dataset) != self.num_objects + 1:
            raise IndexError_(
                f"new dataset has {len(dataset)} objects; expected "
                f"{self.num_objects + 1}"
            )
        self.dataset = dataset
        self.distances = np.vstack([self.distances, distances[None, :]])
        self.parents = np.vstack(
            [self.parents, parents[None, :].astype(np.int32)]
        )
        rank = self.num_objects - 1
        for node in range(self.num_nodes):
            parent = int(self.parents[rank, node])
            if parent != NO_PARENT:
                self._index_add(node, parent, rank)

    def remove_tree(self, dataset: ObjectDataset, rank: int) -> None:
        """Drop the spanning tree of a removed object.

        Remaining trees' ranks shift down past ``rank``; the reverse edge
        index is rebuilt (rank values inside it change wholesale).
        """
        if not 0 <= rank < self.num_objects:
            raise IndexError_(
                f"object rank {rank} out of range 0..{self.num_objects - 1}"
            )
        if len(dataset) != self.num_objects - 1:
            raise IndexError_(
                f"new dataset has {len(dataset)} objects; expected "
                f"{self.num_objects - 1}"
            )
        keep = [i for i in range(self.num_objects) if i != rank]
        self.dataset = dataset
        self.distances = self.distances[keep]
        self.parents = self.parents[keep]
        self._build_reverse_index()

    # ------------------------------------------------------------------
    # consistency checking (test hook)
    # ------------------------------------------------------------------
    def verify_against(self, network: RoadNetwork, rank: int) -> None:
        """Assert tree ``rank`` is a valid shortest-path tree of ``network``.

        Checks that every tree edge exists, distances telescope along
        parents, and no network edge offers a shorter relaxation.  Raises
        :class:`~repro.errors.IndexError_` on the first violation.
        """
        root = self.dataset[rank]
        if self.distance(rank, root) != 0.0:
            raise IndexError_(f"tree {rank}: root distance is not 0")
        for node, parent in self.iter_tree_edges(rank):
            weight = network.edge_weight(node, parent)
            expected = self.distance(rank, parent) + weight
            if self.distance(rank, node) != expected:
                raise IndexError_(
                    f"tree {rank}: d({node}) = {self.distance(rank, node)} "
                    f"but parent {parent} implies {expected}"
                )
        for edge in network.edges():
            du = self.distance(rank, edge.u)
            dv = self.distance(rank, edge.v)
            if du + edge.weight < dv or dv + edge.weight < du:
                raise IndexError_(
                    f"tree {rank}: edge ({edge.u}, {edge.v}) relaxes a "
                    f"supposedly final distance"
                )
