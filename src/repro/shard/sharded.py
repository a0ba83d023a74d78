"""The :class:`ShardedSignatureIndex` — partitioned signatures, exact answers.

The monolithic :class:`~repro.core.index.SignatureIndex` stores a
category + link for every (node, object) pair, an O(N·|O|) footprint.
This module splits the network into K balanced parts (see
:mod:`repro.shard.partition`) and builds one *per-shard* signature index
over the shard's induced subgraph, indexing the shard's **pseudo
dataset**: the local objects plus the shard's boundary nodes.  Queries
are answered exactly by stitching:

* every shard keeps its spanning trees, so the exact distance from a
  query node ``v`` to every pseudo object of its shard is one column
  read — no backtracking;
* a global **overlay graph** over all boundary nodes (intra-shard
  boundary-to-boundary distances from the shard trees, plus the cut
  edges) yields ``D``, the exact boundary×boundary distance matrix;
* ``G[b, o] = min over boundary b' of o's shard of D[b, b'] + d(b', o)``
  is the exact boundary-to-object matrix.

Any shortest path from ``v`` to an object ``o`` either stays inside
``v``'s shard (covered by the tree column) or crosses the cut at least
once; splitting it at the *first* exit boundary node ``b`` gives
``d(v, b) + d_global(b, o)`` — exactly ``row[b] + G[b, o]``.  Taking the
elementwise minimum of the intra column and all boundary stitches is
therefore the exact global distance vector, and every query algorithm
(range / kNN / aggregate, Algorithms 5–6) runs on that vector with the
same bucketing, tie-breaking, and observer-voting rules as the
monolith — so result *sets and orders* match exactly, not just
distances.

Updates (§5.4) route by edge type: an intra-shard edge update goes to
the owning shard's incremental machinery only; a cut-edge update leaves
every shard index untouched (cut edges are not part of any induced
subgraph) but invalidates the overlay, which is rebuilt from the shard
trees.  A cut-edge *insertion* can promote its endpoints to boundary
nodes — they are added to their shard's pseudo dataset (one Dijkstra
each); boundary nodes are never demoted (a stale boundary node is just
an extra pseudo object, still exact).
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import (
    assemble_signature_data,
    categorize_array,
    run_construction_sweep,
)
from repro.core.categories import (
    CategoryPartition,
    optimal_partition,
    paper_evaluation_partition,
)
from repro.core.compression import compress_table
from repro.core.index import (
    SignatureIndex,
    _coerce_batch_nodes,
    _coerce_k,
    _coerce_radius,
    _KNN_REFINE_MODES,
    _NULL_SCOPE,
)
from repro.core.operations import _observer_vote
from repro.core.queries import _AGGREGATES, KnnType
from repro.core.signature import ObjectDistanceTable, SignatureTable
from repro.core.spanning_tree import ObjectSpanningTrees
from repro.core.update import UpdateReport
from repro.core.vectorized import category_bound_arrays
from repro.errors import DisconnectedError, IndexError_, QueryError, UpdateError
from repro.network.datasets import ObjectDataset
from repro.network.graph import RoadNetwork
from repro.obs.metrics import LabelledRegistry, MetricsRegistry
from repro.obs.tracing import Tracer, span_of
from repro.shard.partition import NetworkPartition, partition_network
from repro.storage.pager import DEFAULT_PAGE_SIZE, PageAccessCounter

__all__ = [
    "ShardState",
    "ShardedSignatureIndex",
    "stitch_row",
    "stitched_knn_row",
    "select_range",
    "select_knn",
    "select_knn_approximate",
    "select_aggregate",
]


@dataclass
class ShardState:
    """One shard: its signature index plus the global↔local bookkeeping.

    ``pseudo_global[p]`` is the global node id of pseudo object ``p`` of
    the shard's index (local objects in dataset-rank order, then
    boundary non-objects in ascending id order, then any §5.4
    promotions in arrival order — the same order the shard index's
    ``dataset`` holds, just in global ids).
    """

    shard_id: int
    global_nodes: np.ndarray
    local_of: dict[int, int]
    pseudo_global: list[int]
    pseudo_rank: dict[int, int]
    obj_global_ranks: np.ndarray
    obj_pseudo_ranks: np.ndarray
    obj_local_nodes: np.ndarray
    boundary_global: list[int]
    boundary_set: set[int]
    boundary_pseudo: np.ndarray
    index: SignatureIndex | None = None
    registry: MetricsRegistry | None = None
    #: Overlay indices of ``boundary_global``, set by ``_refresh_overlay``.
    overlay_idx: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: Construction sweep (distances, parents), dropped once ``index`` is
    #: built — afterwards the live trees are authoritative.
    _sweep: tuple | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.global_nodes.size)

    def tree_distances(self) -> np.ndarray:
        """The (pseudo, local-node) distance matrix, always current."""
        if self.index is not None:
            return self.index.trees.distances
        if self._sweep is None:
            return np.zeros((0, self.num_nodes))
        return self._sweep[0]

    def boundary_local(self) -> list[int]:
        return [self.local_of[g] for g in self.boundary_global]


# ----------------------------------------------------------------------
# overlay construction (boundary×boundary and boundary×object matrices)
# ----------------------------------------------------------------------


def _overlay_sssp(adjacency: list[list[tuple[int, float]]], source: int,
                  row: np.ndarray) -> None:
    """Dijkstra over the (tiny) boundary overlay graph into ``row``."""
    dist = row
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


def _compute_overlay(
    network: RoadNetwork,
    shards: list[ShardState],
    cut_pairs: set[tuple[int, int]],
) -> tuple[np.ndarray, dict[int, int], np.ndarray]:
    """Boundary node order, its index map, and the exact B×B matrix ``D``.

    Overlay vertices are all boundary nodes; edges are the intra-shard
    boundary-pair distances (read off the shard trees — boundary nodes
    are pseudo objects) plus the cut edges at their *current* network
    weight.  All-pairs Dijkstra on this graph is exact because any
    global shortest path between boundary nodes decomposes into maximal
    intra-shard segments joined by cut edges, and every such segment's
    endpoints are boundary nodes.
    """
    boundary = np.array(
        [g for shard in shards for g in shard.boundary_global], dtype=np.int64
    )
    b_index = {int(g): i for i, g in enumerate(boundary)}
    num_boundary = boundary.size
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(num_boundary)]
    for shard in shards:
        if not shard.boundary_global:
            continue
        td = shard.tree_distances()
        locals_ = shard.boundary_local()
        pseudo = shard.boundary_pseudo
        overlay = [b_index[g] for g in shard.boundary_global]
        for i in range(len(locals_)):
            for j in range(i + 1, len(locals_)):
                w = float(td[pseudo[j], locals_[i]])
                if math.isfinite(w):
                    adjacency[overlay[i]].append((overlay[j], w))
                    adjacency[overlay[j]].append((overlay[i], w))
    for u, v in cut_pairs:
        w = network.edge_weight(u, v)
        adjacency[b_index[u]].append((b_index[v], w))
        adjacency[b_index[v]].append((b_index[u], w))
    D = np.full((num_boundary, num_boundary), np.inf)
    for source in range(num_boundary):
        _overlay_sssp(adjacency, source, D[source])
    return boundary, b_index, D


def _compute_G(
    shards: list[ShardState],
    D: np.ndarray,
    b_index: dict[int, int],
    num_objects: int,
) -> np.ndarray:
    """The exact boundary×object matrix: ``G[b, o] = d_global(b, o)``.

    A global shortest path from any boundary node to object ``o`` enters
    ``o``'s shard for the last time through some boundary node ``b'`` of
    that shard, so minimizing ``D[b, b'] + d_intra(b', o)`` over ``b'``
    is exact (``b' = b`` covers the degenerate same-shard case, since
    ``D``'s diagonal is zero).
    """
    G = np.full((D.shape[0], num_objects), np.inf)
    for shard in shards:
        if not shard.obj_global_ranks.size or not shard.boundary_global:
            continue
        td = shard.tree_distances()
        locals_ = shard.boundary_local()
        # block[j, i] = intra distance from boundary j to local object i
        block = td[np.ix_(shard.obj_pseudo_ranks, np.array(locals_))].T
        best = np.full((D.shape[0], block.shape[1]), np.inf)
        for j, g in enumerate(shard.boundary_global):
            np.minimum(
                best, D[:, b_index[g]][:, None] + block[j][None, :], out=best
            )
        G[:, shard.obj_global_ranks] = best
    return G


def _stitched_block(
    shard: ShardState,
    G: np.ndarray,
    b_index: dict[int, int],
    num_objects: int,
) -> np.ndarray:
    """Exact (object, shard-node) distances: the shard's slice of the
    global construction-sweep matrix the monolith would have computed."""
    td = shard.tree_distances()
    M = np.full((num_objects, shard.num_nodes), np.inf)
    if shard.obj_global_ranks.size:
        M[shard.obj_global_ranks, :] = td[shard.obj_pseudo_ranks, :]
    if shard.boundary_global:
        via = td[shard.boundary_pseudo, :]  # (B_s, n_s): boundary -> node
        for j, g in enumerate(shard.boundary_global):
            np.minimum(M, G[b_index[g]][:, None] + via[j][None, :], out=M)
    return M


# ----------------------------------------------------------------------
# stitched-row query algorithms (exact replicas of Algorithms 4–6)
# ----------------------------------------------------------------------


def stitch_row(index: "ShardedSignatureIndex", shard_id: int,
               local_row: np.ndarray) -> np.ndarray:
    """Global distance vector from ``local_row``, the query node's exact
    distances to its shard's pseudo objects.

    ``out[o]`` = min(intra distance if ``o`` is local, min over the
    shard's boundary nodes ``b`` of ``row[b] + G[b, o]``).  The stitch is
    applied even for local objects: a shortest path may leave and
    re-enter the shard.
    """
    shard = index.shards[shard_id]
    local_row = np.asarray(local_row, dtype=float)
    out = np.full(len(index.dataset), np.inf)
    if shard.obj_global_ranks.size:
        out[shard.obj_global_ranks] = local_row[shard.obj_pseudo_ranks]
    if shard.boundary_pseudo.size:
        via = local_row[shard.boundary_pseudo]
        for j in np.flatnonzero(np.isfinite(via)):
            np.minimum(out, via[j] + index.G[shard.overlay_idx[j]], out=out)
    return out


def stitched_knn_row(
    index: "ShardedSignatureIndex",
    shard_id: int,
    local_row: np.ndarray,
    k: int,
) -> tuple[np.ndarray, int]:
    """:func:`stitch_row` with per-shard lower-bound skipping for kNN.

    Remote shards are stitched in ascending order of their best possible
    contribution ``lbs[s] = min_j(row[b_j] + Gmin[b_j, s])``; once ``k``
    finite distances are in hand, a shard whose bound reaches the *next
    category* above the current k-th smallest can only hold objects whose
    category exceeds the kNN boundary category — they are never selected
    and never observers, so leaving their entries ``inf`` changes nothing
    in Algorithm 6's answer.  Distances that are computed stay bitwise
    equal to :func:`stitch_row` (elementwise min is order-independent).
    Returns ``(out, shards_skipped)``.
    """
    shard = index.shards[shard_id]
    local_row = np.asarray(local_row, dtype=float)
    num_objects = len(index.dataset)
    out = np.full(num_objects, np.inf)
    if shard.obj_global_ranks.size:
        out[shard.obj_global_ranks] = local_row[shard.obj_pseudo_ranks]
    skipped = 0
    if not shard.boundary_pseudo.size:
        return out, skipped
    via = local_row[shard.boundary_pseudo]
    finite_j = np.flatnonzero(np.isfinite(via))
    if not finite_j.size:
        return out, skipped
    via_f = via[finite_j]
    rows = shard.overlay_idx[finite_j]
    own = shard.obj_global_ranks
    if own.size:
        stitch = (via_f[:, None] + index.G[np.ix_(rows, own)]).min(axis=0)
        out[own] = np.minimum(out[own], stitch)
    # Best possible distance into each shard's object set, via any of the
    # query shard's (finitely reachable) boundary nodes.
    lbs = (via_f[:, None] + index.Gmin[rows, :]).min(axis=0)
    partition = index.partition
    pool = out[np.isfinite(out)]
    order = sorted(
        (s for s in range(len(index.shards)) if s != shard_id),
        key=lambda s: (lbs[s], s),
    )
    for s in order:
        if math.isinf(lbs[s]):
            continue  # unreachable via this shard's boundary: inf anyway
        if pool.size >= k:
            pool_k = float(np.partition(pool, k - 1)[k - 1])
            if lbs[s] >= partition.upper_bound(partition.categorize(pool_k)):
                skipped += 1
                continue
        remote = index.shards[s].obj_global_ranks
        if not remote.size:
            continue
        stitch = (via_f[:, None] + index.G[np.ix_(rows, remote)]).min(axis=0)
        out[remote] = np.minimum(out[remote], stitch)
        fresh = out[remote]
        pool = np.concatenate([pool, fresh[np.isfinite(fresh)]])
    return out, skipped


def _compare_approximate(index, cats: np.ndarray, rank_a: int,
                         rank_b: int) -> int:
    """Observer-voting comparison (Algorithm 3) on a stitched row.

    Byte-for-byte the decision procedure of
    :func:`repro.core.operations.compare_approximate`: same shared-
    category gate, same observer candidates (strictly closer objects, in
    rank order), same :func:`~repro.core.operations._observer_vote`
    geometry — only the category source differs (the stitched vector
    instead of the stored signature row, which hold identical values).
    """
    cat_a, cat_b = int(cats[rank_a]), int(cats[rank_b])
    if cat_a != cat_b:
        return -1 if cat_a < cat_b else 1
    shared = cat_a
    if shared >= index.partition.unreachable:
        return 0
    table = index.object_table
    if not table.has(rank_a, rank_b):
        return 0
    d_ab = table.distance(rank_a, rank_b)
    if d_ab <= 0:
        return 0
    votes = 0
    for rank in range(table.num_objects):
        if rank == rank_a or rank == rank_b:
            continue
        if int(cats[rank]) >= shared:
            continue
        if not (table.has(rank, rank_a) and table.has(rank, rank_b)):
            continue
        votes += _observer_vote(
            index.partition,
            shared,
            int(cats[rank]),
            d_ab,
            table.distance(rank, rank_a),
            table.distance(rank, rank_b),
        )
    if votes < 0:
        return -1
    if votes > 0:
        return 1
    return 0


def _sort_ranks(index, out: np.ndarray, cats: np.ndarray,
                ranks: list[int]) -> list[int]:
    """Distance sorting (Algorithm 4) on a stitched row.

    Approximate pre-sort with observer voting, then the same backward-
    bubbling exact refinement — here the exact comparator is a vector
    read, but the control flow (and therefore the final order, ties
    included) matches :func:`repro.core.operations.sort_by_distance`.
    """
    ordered = sorted(
        ranks,
        key=functools.cmp_to_key(
            lambda a, b: _compare_approximate(index, cats, a, b)
        ),
    )
    i = 0
    while i < len(ordered) - 1:
        if out[ordered[i]] > out[ordered[i + 1]]:
            ordered[i], ordered[i + 1] = ordered[i + 1], ordered[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return ordered


def select_range(index, out: np.ndarray, radius: float, *,
                 with_distances: bool = False):
    """Algorithm 5's result (object ranks, dataset order) on a stitched row."""
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    hits = [rank for rank in range(out.size) if out[rank] <= radius]
    if not with_distances:
        return hits
    return [(rank, float(out[rank])) for rank in hits]


def select_knn(index, out: np.ndarray, cats: np.ndarray, k: int,
               knn_type: KnnType):
    """Algorithm 6's result on a stitched row, monolith tie-breaks included.

    Buckets by category, confirms whole buckets below the boundary
    category, and resolves the boundary bucket with Algorithm 4 — the
    same selection (and the same within-bucket order for ``ORDERED``)
    as :func:`repro.core.queries.knn_query` produces.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    unreachable = index.partition.unreachable
    buckets: dict[int, list[int]] = {}
    for rank in range(out.size):
        category = int(cats[rank])
        if category == unreachable:
            continue
        buckets.setdefault(category, []).append(rank)

    confirmed: list[list[int]] = []
    taken = 0
    boundary_bucket: list[int] = []
    needed_from_boundary = 0
    for category in sorted(buckets):
        bucket = buckets[category]
        if taken + len(bucket) <= k:
            confirmed.append(bucket)
            taken += len(bucket)
            if taken == k:
                break
        else:
            boundary_bucket = bucket
            needed_from_boundary = k - taken
            break

    if needed_from_boundary:
        ordered_boundary = _sort_ranks(index, out, cats, boundary_bucket)
        boundary_take = ordered_boundary[:needed_from_boundary]
    else:
        boundary_take = []

    if knn_type is KnnType.SET:
        return [rank for bucket in confirmed for rank in bucket] + boundary_take

    if knn_type is KnnType.ORDERED:
        ordered: list[int] = []
        for bucket in confirmed:
            ordered.extend(_sort_ranks(index, out, cats, bucket))
        ordered.extend(boundary_take)
        return ordered

    results = [rank for bucket in confirmed for rank in bucket] + boundary_take
    with_distances = [(rank, float(out[rank])) for rank in results]
    with_distances.sort(key=lambda pair: (pair[1], pair[0]))
    return with_distances


def select_knn_approximate(index, out: np.ndarray, cats: np.ndarray,
                           k: int) -> list[int]:
    """The approximate kNN (observer voting only) on a stitched row,
    mirroring :func:`repro.core.queries.approximate_knn_query`."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    unreachable = index.partition.unreachable
    buckets: dict[int, list[int]] = {}
    for rank in range(out.size):
        category = int(cats[rank])
        if category == unreachable:
            continue
        buckets.setdefault(category, []).append(rank)
    result: list[int] = []
    for category in sorted(buckets):
        bucket = buckets[category]
        remaining = k - len(result)
        if remaining <= 0:
            break
        if len(bucket) <= remaining:
            result.extend(bucket)
            continue
        ordered = sorted(
            bucket,
            key=functools.cmp_to_key(
                lambda a, b: _compare_approximate(index, cats, a, b)
            ),
        )
        result.extend(ordered[:remaining])
        break
    return result


def select_aggregate(index, out: np.ndarray, radius: float,
                     aggregate: str) -> float:
    """§4.3 aggregation on a stitched row (same reducers as the monolith)."""
    try:
        reducer = _AGGREGATES[aggregate]
    except KeyError:
        raise QueryError(
            f"unknown aggregate {aggregate!r}; pick one of "
            f"{sorted(_AGGREGATES)}"
        ) from None
    if aggregate == "count":
        return float(len(select_range(index, out, radius)))
    pairs = select_range(index, out, radius, with_distances=True)
    return reducer([distance for _, distance in pairs])


# ----------------------------------------------------------------------
# the sharded index
# ----------------------------------------------------------------------


class ShardedSignatureIndex:
    """K per-partition signature indexes answering global queries exactly.

    Satisfies the :class:`~repro.core.interface.DistanceIndex` protocol;
    build with :meth:`build`.  Not thread-safe, for the same reasons as
    the monolith (shared counters, caches, and tracer).
    """

    def __init__(
        self,
        network: RoadNetwork,
        dataset: ObjectDataset,
        partition: CategoryPartition,
        node_partition: NetworkPartition,
        shards: list[ShardState],
        *,
        cut_pairs: set[tuple[int, int]] | None = None,
        drop_last_category_pairs: bool = True,
        stored_kind: str = "compressed",
        query_engine: str = "vectorized",
        knn_refine: str = "pruned",
        page_size: int = DEFAULT_PAGE_SIZE,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if knn_refine not in _KNN_REFINE_MODES:
            raise IndexError_(
                f"knn_refine must be one of {_KNN_REFINE_MODES}, "
                f"got {knn_refine!r}"
            )
        self.network = network
        self.dataset = dataset
        self.partition = partition
        self.node_partition = node_partition
        self.assignment = node_partition.assignment
        self.shards = shards
        self.stored_kind = stored_kind
        self.query_engine = query_engine
        #: "pruned" stitches remote shards lazily per kNN query (lower-
        #: bound skipping); "legacy" always stitches the full row.
        self.knn_refine = knn_refine
        self.page_size = page_size
        self._drop_last = drop_last_category_pairs
        self.counter = PageAccessCounter()
        self.tracer: Tracer | None = None
        self.compression_stats = None
        # local id of every global node within its shard
        self.local_index = np.zeros(network.num_nodes, dtype=np.int64)
        for shard in shards:
            self.local_index[shard.global_nodes] = np.arange(
                shard.global_nodes.size
            )
        if cut_pairs is None:
            cut_pairs = {
                (u, v) if u < v else (v, u)
                for u, v, _w in node_partition.cut_edges(network)
            }
        self._cut_pairs = cut_pairs
        self.use_metrics(metrics if metrics is not None else MetricsRegistry())
        self._refresh_overlay()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        dataset: ObjectDataset,
        partition: CategoryPartition | str | None = None,
        *,
        num_shards: int = 2,
        node_partition: NetworkPartition | None = None,
        refine_passes: int = 2,
        backend: str = "auto",
        compress: bool = True,
        drop_last_category_pairs: bool = True,
        page_size: int = DEFAULT_PAGE_SIZE,
        storage_strategy: str = "ccam",
        storage_schema: str = "separate",
        query_engine: str = "vectorized",
        knn_refine: str = "pruned",
        metrics: MetricsRegistry | None = None,
    ) -> "ShardedSignatureIndex":
        """Partition, sweep each shard once, stitch, and assemble.

        ``partition`` accepts the same policies as the monolith's
        :meth:`~repro.core.index.SignatureIndex.build` (``None`` /
        ``"optimal"`` / ``"paper"`` / explicit).  The named policies are
        resolved against the *stitched global* distance matrix, which is
        bitwise equal to the monolith's construction sweep — so the
        resulting category partition (and therefore every signature) is
        the partition the monolith would have chosen.
        """
        registry = metrics if metrics is not None else MetricsRegistry()
        build_start = time.perf_counter()
        dataset.validate_against(network)
        if len(dataset) == 0:
            raise IndexError_(
                "cannot build a sharded index over an empty dataset"
            )
        if node_partition is None:
            node_partition = partition_network(
                network, num_shards, refine_passes=refine_passes
            )
        assignment = node_partition.assignment
        boundary_mask = node_partition.boundary_mask(network)
        num_objects = len(dataset)

        shards: list[ShardState] = []
        for s in range(node_partition.num_parts):
            global_nodes = node_partition.part_nodes(s)
            local_of = {int(g): i for i, g in enumerate(global_nodes)}
            coords = [network.coordinates(int(g)) for g in global_nodes]
            adjacency = []
            for g in global_nodes:
                adjacency.append(
                    [
                        (local_of[nbr], w)
                        for nbr, w in network.neighbors(int(g))
                        if assignment[nbr] == s
                    ]
                )
            subnet = RoadNetwork.from_adjacency(coords, adjacency)
            obj_pairs = [
                (rank, node)
                for rank, node in enumerate(dataset)
                if assignment[node] == s
            ]
            boundary_global = [
                int(b)
                for b in np.flatnonzero(boundary_mask & (assignment == s))
            ]
            pseudo_global = [node for _, node in obj_pairs]
            object_set = set(pseudo_global)
            pseudo_global += [b for b in boundary_global if b not in object_set]
            pseudo_rank = {g: p for p, g in enumerate(pseudo_global)}
            shard = ShardState(
                shard_id=s,
                global_nodes=global_nodes,
                local_of=local_of,
                pseudo_global=pseudo_global,
                pseudo_rank=pseudo_rank,
                obj_global_ranks=np.array(
                    [rank for rank, _ in obj_pairs], dtype=np.int64
                ),
                obj_pseudo_ranks=np.arange(len(obj_pairs), dtype=np.int64),
                obj_local_nodes=np.array(
                    [local_of[node] for _, node in obj_pairs], dtype=np.int64
                ),
                boundary_global=boundary_global,
                boundary_set=set(boundary_global),
                boundary_pseudo=np.array(
                    [pseudo_rank[g] for g in boundary_global], dtype=np.int64
                ),
            )
            shard.registry = LabelledRegistry(registry, f"shard{s}")
            if pseudo_global:
                pseudo_dataset = ObjectDataset(
                    [local_of[g] for g in pseudo_global]
                )
                shard._sweep = run_construction_sweep(
                    subnet,
                    pseudo_dataset,
                    backend=backend,
                    registry=shard.registry,
                )
                shard._subnet = subnet
                shard._pseudo_dataset = pseudo_dataset
            shards.append(shard)

        cut_pairs = {
            (u, v) if u < v else (v, u)
            for u, v, _w in node_partition.cut_edges(network)
        }
        boundary, b_index, D = _compute_overlay(network, shards, cut_pairs)
        G = _compute_G(shards, D, b_index, num_objects)

        # Stitch the full (object, node) matrix shard by shard: it is the
        # matrix the monolith's construction sweep computes, so the named
        # partition policies resolve identically, and its object columns
        # are the global object-to-object distance table.
        max_finite = 0.0
        object_matrix = np.full((num_objects, num_objects), np.inf)
        for shard in shards:
            block = _stitched_block(shard, G, b_index, num_objects)
            finite = block[np.isfinite(block)]
            if finite.size:
                max_finite = max(max_finite, float(finite.max()))
            if shard.obj_global_ranks.size:
                object_matrix[:, shard.obj_global_ranks] = block[
                    :, shard.obj_local_nodes
                ]

        if partition is None or isinstance(partition, str):
            max_distance = max(max_finite, 1.0)
            if partition in (None, "optimal"):
                partition = optimal_partition(max_distance)
            elif partition == "paper":
                partition = paper_evaluation_partition(max_distance)
            else:
                raise IndexError_(
                    f"unknown partition policy {partition!r}; use 'optimal' "
                    f"or 'paper'"
                )

        # Assemble each shard's signature index — the same pipeline as the
        # monolith's build(), on the shard subgraph and pseudo dataset.
        for shard in shards:
            if shard._sweep is None:
                continue
            subnet = shard._subnet
            pseudo_dataset = shard._pseudo_dataset
            tree_distances, tree_parents = shard._sweep
            data = assemble_signature_data(
                subnet, pseudo_dataset, partition, tree_distances, tree_parents
            )
            table = SignatureTable(
                partition,
                data.categories,
                data.links,
                max_degree=max(subnet.max_degree(), 1),
            )
            object_table = ObjectDistanceTable(
                data.object_distances,
                partition,
                drop_last_category=drop_last_category_pairs,
            )
            stats = compress_table(table, object_table) if compress else None
            trees = ObjectSpanningTrees(
                pseudo_dataset, data.tree_distances, data.tree_parents
            )
            shard.index = SignatureIndex(
                subnet,
                pseudo_dataset,
                partition,
                table,
                object_table,
                trees=trees,
                page_size=page_size,
                storage_strategy=storage_strategy,
                storage_schema=storage_schema,
                stored_kind="compressed" if compress else "encoded",
                query_engine=query_engine,
                knn_refine=knn_refine,
                metrics=shard.registry,
            )
            shard.index.compression_stats = stats
            shard._sweep = None
            del shard._subnet, shard._pseudo_dataset

        index = cls(
            network,
            dataset,
            partition,
            node_partition,
            shards,
            cut_pairs=cut_pairs,
            drop_last_category_pairs=drop_last_category_pairs,
            stored_kind="compressed" if compress else "encoded",
            query_engine=query_engine,
            knn_refine=knn_refine,
            page_size=page_size,
            metrics=registry,
        )
        registry.gauge("construction.total_seconds").set(
            time.perf_counter() - build_start
        )
        return index

    # ------------------------------------------------------------------
    # overlay maintenance
    # ------------------------------------------------------------------
    def _refresh_overlay(self) -> None:
        """Rebuild boundary order, ``D``, ``G``, and the global object
        table from the current shard trees and cut set."""
        self.boundary, self._b_index, self.D = _compute_overlay(
            self.network, self.shards, self._cut_pairs
        )
        for shard in self.shards:
            shard.overlay_idx = np.array(
                [self._b_index[g] for g in shard.boundary_global],
                dtype=np.int64,
            )
        num_objects = len(self.dataset)
        self.G = _compute_G(self.shards, self.D, self._b_index, num_objects)
        # Gmin[b, s]: the closest any of shard s's objects gets to boundary
        # node b — the per-shard lower bounds driving kNN shard skipping.
        self.Gmin = np.full((self.G.shape[0], len(self.shards)), np.inf)
        for shard in self.shards:
            if shard.obj_global_ranks.size:
                self.Gmin[:, shard.shard_id] = self.G[
                    :, shard.obj_global_ranks
                ].min(axis=1)
        matrix = np.full((num_objects, num_objects), np.inf)
        for shard in self.shards:
            if not shard.obj_global_ranks.size:
                continue
            block = _stitched_block(shard, self.G, self._b_index, num_objects)
            matrix[:, shard.obj_global_ranks] = block[:, shard.obj_local_nodes]
        self.object_table = ObjectDistanceTable(
            matrix, self.partition, drop_last_category=self._drop_last
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def use_metrics(self, registry: MetricsRegistry) -> None:
        """Swap the registry; each shard gets a ``shard{i}``-labelled view."""
        self.metrics = registry
        for shard in self.shards:
            shard.registry = LabelledRegistry(registry, f"shard{shard.shard_id}")
            if shard.index is not None:
                shard.index.use_metrics(shard.registry)

    @contextmanager
    def trace(self):
        """Record one span tree across the coordinator and all shards.

        The same :class:`~repro.obs.Tracer` is installed on this index
        and every shard index, so per-shard work (signature touches,
        refinements) nests under the coordinator's query root span.
        """
        tracer = Tracer(self.counter)
        previous = self.tracer
        shard_previous = [
            shard.index.tracer if shard.index is not None else None
            for shard in self.shards
        ]
        self.tracer = tracer
        for shard in self.shards:
            if shard.index is not None:
                shard.index.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = previous
            for shard, prev in zip(self.shards, shard_previous):
                if shard.index is not None:
                    shard.index.tracer = prev

    def _scope(self, kind: str, *, count: int = 1, counter=None, **attrs):
        if self.tracer is None and not self.metrics.enabled:
            return _NULL_SCOPE
        return self._observed(kind, count=count, counter=counter, attrs=attrs)

    @contextmanager
    def _observed(self, kind: str, *, count: int, counter, attrs: dict):
        counter = self.counter if counter is None else counter
        snap = counter.snapshot()
        start = time.perf_counter()
        with span_of(self, kind, **attrs) as span:
            yield span
            elapsed = time.perf_counter() - start
            delta = counter.delta(snap)
        metrics = self.metrics
        metrics.counter(f"{kind}.count").inc(count)
        if count > 0:
            metrics.histogram(f"{kind}.seconds").observe(elapsed / count)
            metrics.histogram(f"{kind}.pages").observe(delta.logical / count)

    # ------------------------------------------------------------------
    # the stitched distance vector
    # ------------------------------------------------------------------
    def _exact_row(self, node: int) -> tuple[int, np.ndarray]:
        """(owning shard, exact global distance vector) for ``node``."""
        shard_id = int(self.assignment[node])
        shard = self.shards[shard_id]
        if shard.index is None:
            return shard_id, np.full(len(self.dataset), np.inf)
        local = int(self.local_index[node])
        with span_of(self, "shard.row", shard=shard_id, node=node):
            shard.index.touch_signature(local)
            shard.registry.counter("query.routed").inc()
            row = shard.index.trees.distances[:, local]
            out = stitch_row(self, shard_id, row)
        return shard_id, out

    def _knn_row(self, node: int, k: int) -> tuple[int, np.ndarray]:
        """:meth:`_exact_row` for kNN: remote shards whose best lower
        bound loses to the current k-th upper bound are never stitched."""
        if self.knn_refine != "pruned":
            return self._exact_row(node)
        shard_id = int(self.assignment[node])
        shard = self.shards[shard_id]
        if shard.index is None:
            return shard_id, np.full(len(self.dataset), np.inf)
        local = int(self.local_index[node])
        with span_of(self, "shard.row", shard=shard_id, node=node) as span:
            shard.index.touch_signature(local)
            shard.registry.counter("query.routed").inc()
            row = shard.index.trees.distances[:, local]
            out, skipped = stitched_knn_row(self, shard_id, row, k)
            span.set("shards_skipped", skipped)
        if skipped and self.metrics.enabled:
            self.metrics.counter("knn_refine.shards_skipped").inc(skipped)
        return shard_id, out

    def _require_objects(self) -> None:
        if len(self.dataset) == 0:
            raise QueryError("kNN query requires a non-empty object dataset")

    def _row_counter(self, node: int):
        shard = self.shards[int(self.assignment[node])]
        return shard.index.counter if shard.index is not None else None

    # ------------------------------------------------------------------
    # queries (§4) — DistanceIndex surface
    # ------------------------------------------------------------------
    def rank_of(self, object_node: int) -> int:
        return self.dataset.rank(object_node)

    def distance(self, node: int, object_node: int) -> float:
        """Exact global distance to an object; raises
        :class:`~repro.errors.DisconnectedError` when unreachable."""
        with self._scope(
            "query.distance", node=node, counter=self._row_counter(node)
        ):
            rank = self.rank_of(object_node)
            _, out = self._exact_row(node)
            value = float(out[rank])
            if math.isinf(value):
                raise DisconnectedError(node, rank)
            return value

    def distance_batch(self, nodes, object_nodes) -> list[float]:
        """One distance per aligned ``(nodes[i], object_nodes[i])`` pair.

        Per the ``DistanceIndex`` batch contract, disconnected pairs
        yield ``math.inf`` instead of the scalar path's
        :class:`~repro.errors.DisconnectedError`.
        """
        nodes = _coerce_batch_nodes(nodes)
        object_nodes = _coerce_batch_nodes(object_nodes)
        if len(nodes) != len(object_nodes):
            raise QueryError(
                f"distance_batch needs aligned inputs: {len(nodes)} nodes "
                f"vs {len(object_nodes)} objects"
            )
        ranks = [self.rank_of(object_node) for object_node in object_nodes]
        with self._scope("query.distance_batch", count=len(nodes)):
            out = []
            for node, rank in zip(nodes, ranks):
                _, row = self._exact_row(node)
                out.append(float(row[rank]))
            return out

    def range_query(self, node: int, radius: float, *,
                    with_distances: bool = False):
        with self._scope(
            "query.range", node=node, radius=radius,
            counter=self._row_counter(node),
        ) as span:
            _, out = self._exact_row(node)
            result = select_range(
                self, out, radius, with_distances=with_distances
            )
            span.set("results", len(result))
        if with_distances:
            return [(self.dataset[rank], d) for rank, d in result]
        return [self.dataset[rank] for rank in result]

    def range_query_batch(self, nodes, radius: float, *,
                          with_distances: bool = False):
        nodes = _coerce_batch_nodes(nodes)
        radius = _coerce_radius(radius)
        with self._scope(
            "query.range_batch", count=len(nodes), radius=radius
        ) as span:
            batched = []
            for node in nodes:
                _, out = self._exact_row(node)
                batched.append(
                    select_range(self, out, radius,
                                 with_distances=with_distances)
                )
            span.set("queries", len(batched))
        if with_distances:
            return [
                [(self.dataset[rank], d) for rank, d in result]
                for result in batched
            ]
        return [[self.dataset[rank] for rank in result] for result in batched]

    def knn(self, node: int, k: int, *, knn_type: KnnType = KnnType.SET):
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self._require_objects()
        with self._scope(
            "query.knn", node=node, k=k, knn_type=knn_type.name,
            counter=self._row_counter(node),
        ) as span:
            _, out = self._knn_row(node, k)
            cats = categorize_array(self.partition, out)
            result = select_knn(self, out, cats, k, knn_type)
            span.set("results", len(result))
        if knn_type is KnnType.EXACT_DISTANCES:
            return [(self.dataset[rank], d) for rank, d in result]
        return [self.dataset[rank] for rank in result]

    def knn_batch(self, nodes, k: int, *, knn_type: KnnType = KnnType.SET):
        nodes = _coerce_batch_nodes(nodes)
        k = _coerce_k(k)
        self._require_objects()
        with self._scope("query.knn_batch", count=len(nodes), k=k) as span:
            batched = []
            for node in nodes:
                _, out = self._knn_row(node, k)
                cats = categorize_array(self.partition, out)
                batched.append(select_knn(self, out, cats, k, knn_type))
            span.set("queries", len(batched))
        if knn_type is KnnType.EXACT_DISTANCES:
            return [
                [(self.dataset[rank], d) for rank, d in result]
                for result in batched
            ]
        return [[self.dataset[rank] for rank in result] for result in batched]

    def knn_approximate(self, node: int, k: int) -> list[int]:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self._require_objects()
        with self._scope(
            "query.knn_approximate", node=node, k=k,
            counter=self._row_counter(node),
        ) as span:
            _, out = self._knn_row(node, k)
            cats = categorize_array(self.partition, out)
            result = select_knn_approximate(self, out, cats, k)
            span.set("results", len(result))
        return [self.dataset[rank] for rank in result]

    def approximate_range(self, node: int, radius: float) -> list[int]:
        """Category-only range answer (the degraded serving mode):
        objects whose category lower bound fits inside ``radius``."""
        _, out = self._exact_row(node)
        cats = categorize_array(self.partition, out)
        lower_bounds, _ = category_bound_arrays(self.partition)
        hits = np.flatnonzero(
            lower_bounds[np.asarray(cats, dtype=np.int64)] <= radius
        )
        return [self.dataset[int(rank)] for rank in hits]

    def aggregate_range(self, node: int, radius: float,
                        aggregate: str = "count") -> float:
        with self._scope(
            "query.aggregate_range", node=node, radius=radius,
            aggregate=aggregate, counter=self._row_counter(node),
        ):
            _, out = self._exact_row(node)
            return select_aggregate(self, out, radius, aggregate)

    # ------------------------------------------------------------------
    # updates (§5.4)
    # ------------------------------------------------------------------
    def _promote_boundary(self, node: int) -> None:
        """Make ``node`` a boundary node of its shard (cut-edge insertion).

        If it is not yet a pseudo object, it is added to the shard index
        (one Dijkstra, appended at the end — the same order every replica
        applying the same update log arrives at).
        """
        shard = self.shards[int(self.assignment[node])]
        if node in shard.boundary_set:
            return
        if node not in shard.pseudo_rank:
            if shard.index is None:
                raise UpdateError(
                    f"cannot promote node {node} to a boundary node: shard "
                    f"{shard.shard_id} has no signature index (no objects or "
                    f"boundary nodes at build time)"
                )
            shard.index.add_object(int(self.local_index[node]))
            shard.pseudo_rank[node] = len(shard.pseudo_global)
            shard.pseudo_global.append(node)
        shard.boundary_global.append(node)
        shard.boundary_set.add(node)
        shard.boundary_pseudo = np.append(
            shard.boundary_pseudo, shard.pseudo_rank[node]
        ).astype(np.int64)

    def _apply_update(self, op: str, u: int, v: int,
                      weight: float | None, *,
                      refresh: bool = True) -> UpdateReport:
        su, sv = int(self.assignment[u]), int(self.assignment[v])
        if su == sv:
            shard = self.shards[su]
            if shard.index is None:
                raise UpdateError(
                    f"shard {su} has no signature index to update"
                )
            lu = int(self.local_index[u])
            lv = int(self.local_index[v])
            if op == "add":
                report = shard.index.add_edge(lu, lv, weight)
                self.network.add_edge(u, v, weight)
            elif op == "remove":
                report = shard.index.remove_edge(lu, lv)
                self.network.remove_edge(u, v)
            else:
                report = shard.index.set_edge_weight(lu, lv, weight)
                self.network.set_edge_weight(u, v, weight)
        else:
            pair = (u, v) if u < v else (v, u)
            if op == "add":
                self.network.add_edge(u, v, weight)
                self._cut_pairs.add(pair)
                self._promote_boundary(u)
                self._promote_boundary(v)
            elif op == "remove":
                self.network.remove_edge(u, v)
                self._cut_pairs.discard(pair)
            else:
                self.network.set_edge_weight(u, v, weight)
            report = UpdateReport()
        # Either way the overlay is stale: intra updates moved shard trees
        # (boundary-to-boundary distances), cut updates changed the cut.
        # Batched applies defer the refresh to one pass per changeset.
        if refresh:
            self._refresh_overlay()
        return report

    def apply_updates(self, changeset):
        """Route each delta to its owning shard(s), refresh the overlay
        once.

        Same validation contract as every other implementation
        (structural → :class:`~repro.errors.QueryError`, unknown node /
        edge → :class:`~repro.errors.DatasetError`, all before any
        mutation); the boundary-to-boundary overlay — stale after every
        delta — is recomputed once per changeset instead of once per
        edge, which is where batching pays on the sharded index.
        """
        from repro.core.changeset import ApplyResult, as_changeset

        changeset = as_changeset(changeset)
        changeset.validate(self.network)
        result = ApplyResult(applied=len(changeset))
        touched: set[int] = set()
        with self._scope("update.apply", deltas=len(changeset)):
            for delta in changeset:
                su = int(self.assignment[delta.u])
                sv = int(self.assignment[delta.v])
                touched.update((su, sv))
                report = self._apply_update(
                    delta.op, delta.u, delta.v, delta.weight,
                    refresh=False,
                )
                result.report.merge(report)
            if changeset:
                self._refresh_overlay()
        result.touched_shards = tuple(sorted(touched))
        result.bump("incremental", len(changeset))
        self.metrics.counter("shard.update.applied").inc(len(changeset))
        return result

    def add_edge(self, u: int, v: int, weight: float) -> UpdateReport:
        with self._scope("update.add_edge", u=u, v=v):
            return self._apply_update("add", u, v, weight)

    def remove_edge(self, u: int, v: int) -> UpdateReport:
        with self._scope("update.remove_edge", u=u, v=v):
            return self._apply_update("remove", u, v, None)

    def set_edge_weight(self, u: int, v: int, weight: float) -> UpdateReport:
        with self._scope("update.set_edge_weight", u=u, v=v):
            return self._apply_update("set_weight", u, v, weight)

    # ------------------------------------------------------------------
    # reporting / verification
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Structural summary with the per-shard breakdown."""
        per_shard = []
        for shard in self.shards:
            entry = {
                "shard": shard.shard_id,
                "nodes": shard.num_nodes,
                "objects": int(shard.obj_global_ranks.size),
                "boundary": len(shard.boundary_global),
                "pseudo_objects": len(shard.pseudo_global),
            }
            if shard.index is not None:
                report = shard.index.storage_report()
                entry["signature_pages"] = report.signature_pages
                entry["adjacency_pages"] = report.adjacency_pages
            per_shard.append(entry)
        return {
            "type": "sharded",
            "shards": self.num_shards,
            "nodes": self.network.num_nodes,
            "edges": self.network.num_edges,
            "objects": len(self.dataset),
            "categories": self.partition.num_categories,
            "stored": self.stored_kind,
            "query_engine": self.query_engine,
            "knn_refine": self.knn_refine,
            "boundary_nodes": int(self.boundary.size),
            "cut_edges": len(self._cut_pairs),
            "per_shard": per_shard,
        }

    def verify(self, *, sample_nodes: int = 16, seed: int = 0) -> None:
        """Self-check stitched distances against global Dijkstra runs."""
        from repro.network.dijkstra import shortest_path_tree

        rng = np.random.default_rng(seed)
        nodes = rng.choice(
            self.network.num_nodes,
            size=min(sample_nodes, self.network.num_nodes),
            replace=False,
        )
        rows = {int(node): self._exact_row(int(node))[1] for node in nodes}
        for rank, object_node in enumerate(self.dataset):
            tree = shortest_path_tree(self.network, object_node)
            for node, out in rows.items():
                truth = tree.distance[node]
                got = float(out[rank])
                if math.isinf(truth) != math.isinf(got) or (
                    math.isfinite(truth) and got != truth
                ):
                    raise IndexError_(
                        f"node {node} object {rank}: stitched distance "
                        f"{got} != Dijkstra {truth}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSignatureIndex(shards={self.num_shards}, "
            f"nodes={self.network.num_nodes}, objects={len(self.dataset)}, "
            f"boundary={int(self.boundary.size)})"
        )
