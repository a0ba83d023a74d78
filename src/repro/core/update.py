"""Incremental signature maintenance under edge updates (§5.4).

"The main idea is to maintain the shortest path spanning trees of all
objects ... Besides these spanning trees, we also need a reverse index for
each edge on the objects whose spanning trees comprise this edge."

* **Adding an edge / decreasing a weight** (§5.4.1): every tree is probed
  at the edge's endpoints; if the edge offers a shortcut, the improvement
  propagates outward node by node until no distance drops further.
* **Removing an edge / increasing a weight** (§5.4.2): the reverse index
  names the affected trees; in each, the subtree hanging below the edge is
  invalidated and recomputed from its boundary (nodes outside the subtree
  keep their distances — an increase can never improve them, and their
  tree paths avoid the edge).

"To update the signature of each node n, the updates on n are aggregated
and only the changes on distance category or backtracking link are
updated in the signature."  The report returned by every entry point
quantifies exactly that locality — the experimental claim of §5.4.

Node insertion/deletion "can be reduced to edge(s) insertion/deletion"
(§5.4); :func:`add_node` / :func:`remove_node` provide that reduction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.compression import compress_nodes
from repro.core.signature import LINK_HERE, LINK_NONE
from repro.core.spanning_tree import NO_PARENT
from repro.errors import UpdateError
from repro.obs.tracing import span_of

__all__ = [
    "UpdateReport",
    "add_edge",
    "remove_edge",
    "set_edge_weight",
    "add_node",
    "remove_node",
    "add_object",
    "remove_object",
]


@dataclass(slots=True)
class UpdateReport:
    """What one network update touched — the §5.4 locality measurements.

    Attributes
    ----------
    affected_objects:
        Ranks of objects whose spanning tree changed at all.
    changed_components:
        Signature components whose category or link changed (node, rank
        pairs counted once).
    touched_nodes:
        Distinct nodes with at least one changed component.
    recompressed_nodes:
        Nodes whose compression flags had to be recomputed.
    """

    affected_objects: set[int] = field(default_factory=set)
    changed_components: int = 0
    touched_nodes: int = 0
    recompressed_nodes: int = 0

    def merge(self, other: "UpdateReport") -> None:
        """Fold another report into this one (multi-edge operations)."""
        self.affected_objects |= other.affected_objects
        self.changed_components += other.changed_components
        self.touched_nodes += other.touched_nodes
        self.recompressed_nodes += other.recompressed_nodes


def _require_trees(index) -> None:
    if index.trees is None:
        raise UpdateError(
            "incremental updates need the spanning trees; build the index "
            "with keep_trees=True"
        )


def _link_for(index, node: int, rank: int) -> int:
    """The backtracking link implied by the spanning tree at (node, rank)."""
    parent = index.trees.parent(rank, node)
    if parent == NO_PARENT:
        if node == index.dataset[rank]:
            return LINK_HERE
        return LINK_NONE
    return index.network.neighbor_position(node, parent)


def _refresh_components(
    index, changes: dict[int, set[int]]
) -> tuple[UpdateReport, set[int]]:
    """Push tree changes into the signature arrays; report the deltas.

    ``changes`` maps object rank → nodes whose distance/parent in that
    object's tree may have changed.  Also returns the touched nodes: those
    with at least one changed component.
    """
    report = UpdateReport()
    table = index.table
    partition = index.partition
    trees = index.trees
    touched_nodes: set[int] = set()
    with span_of(index, "refresh_components", trees=len(changes)) as span:
        for rank, nodes in changes.items():
            if not nodes:
                continue
            report.affected_objects.add(rank)
            for node in nodes:
                new_category = partition.categorize(
                    _finite_or_inf(trees.distance(rank, node))
                )
                new_link = _link_for(index, node, rank)
                if (
                    int(table.categories[node, rank]) != new_category
                    or int(table.links[node, rank]) != new_link
                ):
                    table.categories[node, rank] = new_category
                    table.links[node, rank] = new_link
                    report.changed_components += 1
                    touched_nodes.add(node)
        span.set("changed_components", report.changed_components)
    report.touched_nodes = len(touched_nodes)
    return report, touched_nodes


def _finite_or_inf(value: float) -> float:
    return value if math.isfinite(value) else math.inf


#: No object pair changed category.
_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def _refresh_object_table(index, affected_ranks: set[int]) -> np.ndarray:
    """Refresh object-to-object distances for the affected trees.

    Returns the ``(k, 2)`` object pairs ``(a, b)``, ``a < b``, whose
    Definition 5.1 category ``s(a)[b]`` or ``s(b)[a]`` changed.
    """
    if not affected_ranks:
        return _NO_PAIRS
    object_table = index.object_table
    object_nodes = np.asarray(list(index.dataset))
    before = object_table.category_matrix()
    for rank in sorted(affected_ranks):
        object_table.set_row(rank, index.trees.distances[rank, object_nodes])
    changed = np.argwhere(before != object_table.category_matrix())
    return np.unique(np.sort(changed, axis=1), axis=0)


def _decrease_wave(
    index, rank: int, seeds: list[tuple[float, int, int]]
) -> set[int]:
    """Run a relaxation wave over tree ``rank`` from the given seeds.

    ``seeds`` are ``(candidate_distance, node, via_parent)`` triples.  Only
    strictly improving pops are applied, so the wave terminates and leaves
    a valid shortest-path tree for decrease-only changes.
    """
    network = index.network
    trees = index.trees
    dist = trees.distances[rank]
    changed: set[int] = set()
    heap = list(seeds)
    heapq.heapify(heap)
    while heap:
        d, node, via = heapq.heappop(heap)
        if d >= dist[node]:
            continue
        dist[node] = d
        trees.set_parent(rank, node, via)
        changed.add(node)
        for neighbor, weight in network.neighbors(node):
            if d + weight < dist[neighbor]:
                heapq.heappush(heap, (d + weight, neighbor, node))
    return changed


def _recompute_subtree(index, rank: int, edge: tuple[int, int]) -> set[int]:
    """Recompute the invalidated subtree after a removal/increase (§5.4.2).

    ``edge`` is the updated edge; the endpoint whose tree parent is the
    other endpoint roots the invalidated subtree.  Returns the nodes whose
    distance or parent changed.
    """
    network = index.network
    trees = index.trees
    u, v = edge
    if trees.parent(rank, u) == v:
        child = u
    elif trees.parent(rank, v) == u:
        child = v
    else:
        return set()  # the tree no longer uses this edge
    subtree = trees.subtree(rank, child)
    subtree_set = set(subtree)
    dist = trees.distances[rank]
    old_dist = {node: float(dist[node]) for node in subtree}
    old_parent = {node: trees.parent(rank, node) for node in subtree}
    for node in subtree:
        dist[node] = math.inf
        trees.set_parent(rank, node, NO_PARENT)

    heap: list[tuple[float, int, int]] = []
    for node in subtree:
        for neighbor, weight in network.neighbors(node):
            if neighbor not in subtree_set and math.isfinite(dist[neighbor]):
                heapq.heappush(heap, (dist[neighbor] + weight, node, neighbor))
    while heap:
        d, node, via = heapq.heappop(heap)
        if d >= dist[node]:
            continue
        dist[node] = d
        trees.set_parent(rank, node, via)
        for neighbor, weight in network.neighbors(node):
            if neighbor in subtree_set and d + weight < dist[neighbor]:
                heapq.heappush(heap, (d + weight, neighbor, node))

    changed = set()
    for node in subtree:
        if (
            float(dist[node]) != old_dist[node]
            or trees.parent(rank, node) != old_parent[node]
        ):
            changed.add(node)
    return changed


def _reresolve_links_at(index, node: int) -> set[int]:
    """Re-derive all links stored at ``node`` from the spanning trees.

    Needed after an edge removal shifts adjacency positions at its
    endpoints; returns the ranks whose link changed.
    """
    changed = set()
    for rank in range(len(index.dataset)):
        new_link = _link_for(index, node, rank)
        if int(index.table.links[node, rank]) != new_link:
            index.table.links[node, rank] = new_link
            changed.add(rank)
    return changed


#: Changed object pairs tested per step of :func:`_pair_suspects`; bounds
#: its ``(N, block)`` temporaries.
PAIR_BLOCK = 64


def _pair_suspects(links: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Nodes where some changed pair ``(a, b)`` shares a backtracking link.

    Only there can ``s(a)[b]`` enter Definition 5.1: a flag on ``b`` is
    summed from the base ``a`` of its link, so ``a`` and ``b`` must share
    that link (``links[:, a] == links[:, b] >= 0``).
    """
    hit = np.zeros(links.shape[0], dtype=bool)
    for start in range(0, len(pairs), PAIR_BLOCK):
        block = pairs[start:start + PAIR_BLOCK]
        link_a = links[:, block[:, 0]]
        hit |= ((link_a == links[:, block[:, 1]]) & (link_a >= 0)).any(axis=1)
    return np.flatnonzero(hit)


def _recompress(index, report: UpdateReport, touched_nodes: set[int],
                changed_pairs: np.ndarray) -> None:
    """Recompute compression flags exactly where the update can change them.

    A node's flags and bases are a function of its own signature row and
    of the object-pair categories ``s(u)[v]`` its links pair up, so the
    suspects are the touched nodes (a changed category or link) plus the
    nodes where a pair whose category changed shares a link.  A write that
    moves no object-pair category recompresses exactly its touched nodes —
    §5.4's "only the changes ... are updated in the signature".
    """
    table = index.table
    if table.bases is None:
        # Never compressed: nothing to maintain.
        return
    suspects = np.union1d(
        np.fromiter(touched_nodes, dtype=np.int64, count=len(touched_nodes)),
        _pair_suspects(table.links, changed_pairs),
    )
    if not suspects.size:
        return
    with span_of(index, "recompress", nodes=int(suspects.size)):
        compress_nodes(table, index.object_table.category_matrix(), suspects)
    report.recompressed_nodes = int(suspects.size)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def add_edge(index, u: int, v: int, weight: float) -> UpdateReport:
    """Add edge ``{u, v}`` and maintain trees, signatures, and flags."""
    _require_trees(index)
    index.network.add_edge(u, v, weight)
    index.table.max_degree = max(index.table.max_degree, index.network.max_degree())
    return _apply_decrease(index, u, v, weight)


def _apply_decrease(index, u: int, v: int, weight: float) -> UpdateReport:
    trees = index.trees
    changes: dict[int, set[int]] = {}
    for rank in range(len(index.dataset)):
        seeds: list[tuple[float, int, int]] = []
        du = trees.distance(rank, u)
        dv = trees.distance(rank, v)
        if du + weight < dv:
            seeds.append((du + weight, v, u))
        if dv + weight < du:
            seeds.append((dv + weight, u, v))
        if seeds:
            changes[rank] = _decrease_wave(index, rank, seeds)
    report, touched = _refresh_components(index, changes)
    affected = {rank for rank, nodes in changes.items() if nodes}
    changed_pairs = _refresh_object_table(index, affected)
    _recompress(index, report, touched, changed_pairs)
    return report


def remove_edge(index, u: int, v: int) -> UpdateReport:
    """Remove edge ``{u, v}`` and maintain trees, signatures, and flags.

    Raises :class:`~repro.errors.UpdateError` if the removal would
    disconnect an object from part of the network *only* in the sense of
    distances becoming infinite — that case is legal and handled; the
    error is reserved for a missing edge.
    """
    _require_trees(index)
    affected_trees = index.trees.trees_using_edge(u, v)
    index.network.remove_edge(u, v)
    changes: dict[int, set[int]] = {}
    for rank in affected_trees:
        changes[rank] = _recompute_subtree(index, rank, (u, v))
    report, touched = _refresh_components(index, changes)
    # Adjacency positions at the endpoints shifted: every link stored
    # there must be re-derived, for all objects.
    for endpoint in (u, v):
        relinked = _reresolve_links_at(index, endpoint)
        if relinked:
            touched.add(endpoint)
            report.changed_components += len(relinked)
    affected = {rank for rank, nodes in changes.items() if nodes}
    changed_pairs = _refresh_object_table(index, affected)
    _recompress(index, report, touched, changed_pairs)
    index.table.max_degree = max(1, index.network.max_degree())
    return report


def set_edge_weight(index, u: int, v: int, weight: float) -> UpdateReport:
    """Change the weight of edge ``{u, v}``; dispatches per §5.4.1/§5.4.2."""
    _require_trees(index)
    old = index.network.edge_weight(u, v)
    if weight == old:
        return UpdateReport()
    if weight < old:
        index.network.set_edge_weight(u, v, weight)
        return _apply_decrease(index, u, v, weight)
    # Increase: capture affected trees while they still use the edge.
    affected_trees = index.trees.trees_using_edge(u, v)
    index.network.set_edge_weight(u, v, weight)
    changes: dict[int, set[int]] = {}
    for rank in affected_trees:
        changes[rank] = _recompute_subtree(index, rank, (u, v))
    report, touched = _refresh_components(index, changes)
    affected = {rank for rank, nodes in changes.items() if nodes}
    changed_pairs = _refresh_object_table(index, affected)
    _recompress(index, report, touched, changed_pairs)
    return report


def add_node(index, x: float, y: float,
             edges: list[tuple[int, float]]) -> tuple[int, UpdateReport]:
    """Insert a node with the given incident edges (§5.4's reduction).

    Returns ``(new_node_id, report)``.  The new node's own signature row
    is derived from its neighbors after the edge insertions.
    """
    _require_trees(index)
    if not edges:
        raise UpdateError("a new node needs at least one incident edge")
    node = index.network.add_node(x, y)
    index._grow_for_node(node)
    report = UpdateReport()
    for neighbor, weight in edges:
        report.merge(add_edge(index, node, neighbor, weight))
    # The new node's components: compute from each tree directly (its
    # distances were produced by the decrease waves above, which treat the
    # fresh row's inf distances as improvable).
    refresh = {rank: {node} for rank in range(len(index.dataset))}
    node_report, touched = _refresh_components(index, refresh)
    _recompress(index, node_report, touched | {node}, _NO_PAIRS)
    report.merge(node_report)
    return node, report


def add_object(index, node: int) -> UpdateReport:
    """Insert a new object at ``node`` (dataset maintenance).

    Beyond the paper's edge/node updates, a live deployment also gains and
    loses *objects* (a new restaurant opens).  Insertion costs one
    Dijkstra sweep from the new object — exactly the §5.2 per-object
    construction unit — appended as a new signature column; every node's
    compression flags are then recomputed (the new component can displace
    per-link bases anywhere).
    """
    from repro.core.builder import _links_from_parents, categorize_array
    from repro.network.datasets import ObjectDataset
    from repro.network.dijkstra import shortest_path_tree

    if node in index.dataset:
        raise UpdateError(f"node {node} already hosts an object")
    tree = shortest_path_tree(index.network, node)
    distances = np.asarray(tree.distance)
    parents = np.asarray(tree.parent, dtype=np.int32)

    new_dataset = ObjectDataset([*index.dataset, node])
    table = index.table
    categories = categorize_array(index.partition, distances)[:, None]
    links = _links_from_parents(
        index.network, ObjectDataset([node]), distances[None], parents[None]
    ).astype(table.links.dtype)
    table.categories = np.hstack(
        [table.categories, categories.astype(table.categories.dtype)]
    )
    table.links = np.hstack([table.links, links])
    table.compressed = np.hstack(
        [table.compressed, np.zeros((table.num_nodes, 1), dtype=bool)]
    )
    if table.bases is not None:
        table.bases = np.hstack(
            [table.bases, np.full((table.num_nodes, 1), -1, dtype=np.int32)]
        )

    pair_distances = np.append(distances[list(index.dataset)], 0.0)
    index.object_table = index.object_table.expanded(pair_distances)
    if index.trees is not None:
        index.trees.append_tree(new_dataset, distances, parents)
    index.dataset = new_dataset

    report = UpdateReport(
        affected_objects={len(new_dataset) - 1},
        changed_components=table.num_nodes,
        touched_nodes=table.num_nodes,
    )
    _recompress_all(index, report)
    index.refresh_storage()
    return report


def remove_object(index, node: int) -> UpdateReport:
    """Remove the object at ``node`` (dataset maintenance).

    Drops the object's signature column, object-table row/column, and
    spanning tree; remaining ranks shift down, so compression flags are
    recomputed everywhere.
    """
    from repro.network.datasets import ObjectDataset

    rank = index.dataset.rank(node)  # raises DatasetError when absent
    remaining = [obj for obj in index.dataset if obj != node]
    if not remaining:
        raise UpdateError("cannot remove the last object of a dataset")
    new_dataset = ObjectDataset(remaining)

    keep = [i for i in range(len(index.dataset)) if i != rank]
    table = index.table
    table.categories = table.categories[:, keep]
    table.links = table.links[:, keep]
    table.compressed = table.compressed[:, keep]
    if table.bases is not None:
        table.bases = np.full(table.categories.shape, -1, dtype=np.int32)
    index.object_table = index.object_table.contracted(rank)
    if index.trees is not None:
        index.trees.remove_tree(new_dataset, rank)
    index.dataset = new_dataset

    report = UpdateReport(
        affected_objects={rank},
        changed_components=table.num_nodes,
        touched_nodes=table.num_nodes,
    )
    _recompress_all(index, report)
    index.refresh_storage()
    return report


def _recompress_all(index, report: UpdateReport) -> None:
    """Recompute every node's compression flags (rank structure changed)."""
    table = index.table
    if table.bases is None and not table.compressed.any():
        # Index was built without compression: keep it that way.
        return
    compress_nodes(table, index.object_table.category_matrix())
    report.recompressed_nodes = table.num_nodes


def remove_node(index, node: int) -> UpdateReport:
    """Delete a node by removing all its incident edges (§5.4's reduction).

    The node itself remains as an isolated vertex (dense ids stay stable);
    its signature degenerates to all-unreachable, and no object may live
    on it.
    """
    _require_trees(index)
    if node in index.dataset:
        raise UpdateError(f"cannot remove node {node}: an object lives on it")
    report = UpdateReport()
    for neighbor, _ in index.network.neighbors(node):
        report.merge(remove_edge(index, node, neighbor))
    return report
