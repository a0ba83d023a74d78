"""Signature construction (§5.2).

"To construct the signature for a node n, the distance from n to any object
must be obtained.  However, instead of building the shortest path spanning
tree from n, ... we build the shortest path spanning tree for every object
o by the Dijkstra's algorithm, so that all the distances computed are
necessary for the signatures."

Two interchangeable backends run those per-object Dijkstra sweeps:

* ``"python"`` — the reference implementation on
  :func:`repro.network.dijkstra.shortest_path_tree`; transparent, used by
  the correctness tests;
* ``"scipy"`` — ``scipy.sparse.csgraph.dijkstra`` over a CSR adjacency
  matrix, computing all D trees in one vectorized call; used by the
  benchmarks so the paper-scale sweeps finish in Python.

Both produce bit-identical categories; shortest-path *trees* may differ in
tie-breaking, which every consumer tolerates (any shortest-path tree is a
valid backtracking structure).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from repro.core.categories import CategoryPartition
from repro.core.signature import LINK_HERE, LINK_NONE
from repro.core.spanning_tree import NO_PARENT
from repro.errors import IndexError_
from repro.network.datasets import ObjectDataset
from repro.network.dijkstra import shortest_path_tree
from repro.network.graph import RoadNetwork
from repro.obs.metrics import NULL_REGISTRY, get_default_registry

logger = logging.getLogger("repro.core.builder")

__all__ = [
    "RawSignatureData",
    "build_raw_signature_data",
    "run_construction_sweep",
    "assemble_signature_data",
    "categorize_array",
]


@dataclass(slots=True)
class RawSignatureData:
    """Everything one pass of per-object Dijkstra sweeps yields.

    Attributes
    ----------
    categories:
        ``(N, D)`` int16: category of object ``i`` at node ``n``
        (``partition.unreachable`` when no path exists).
    links:
        ``(N, D)`` int32: backtracking link — the adjacency position of the
        next hop toward the object (:data:`~repro.core.signature.LINK_HERE`
        at the object's own node,
        :data:`~repro.core.signature.LINK_NONE` when unreachable).
    object_distances:
        ``(D, D)`` float: exact network distances between objects, feeding
        the in-memory table of §3.2.2.
    tree_distances / tree_parents:
        ``(D, N)`` arrays for :class:`~repro.core.spanning_tree.\
ObjectSpanningTrees` — always produced (the builder already paid for them).
    """

    categories: np.ndarray
    links: np.ndarray
    object_distances: np.ndarray
    tree_distances: np.ndarray
    tree_parents: np.ndarray


def categorize_array(
    partition: CategoryPartition, distances: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`CategoryPartition.categorize` over an array.

    ``inf`` entries map to the unreachable sentinel.  Matches the scalar
    method exactly (``searchsorted(side="right")`` is ``bisect_right``).
    """
    boundaries = np.asarray(partition.boundaries, dtype=float)
    cats = np.searchsorted(boundaries, distances, side="right").astype(np.int16)
    cats[np.isinf(distances)] = partition.unreachable
    return cats


def _neighbor_position_matrix(network: RoadNetwork):
    """CSR matrix P with ``P[n, nbr] = position_in_adjacency + 1``.

    The +1 keeps positions distinguishable from the sparse zero; callers
    subtract it back.  Built array-at-a-time from the network's CSR-form
    adjacency snapshot.
    """
    from scipy.sparse import csr_matrix

    n = network.num_nodes
    indptr, neighbors, _ = network.adjacency_arrays()
    positions = (
        np.arange(1, len(neighbors) + 1, dtype=np.int32)
        - indptr[:-1].repeat(np.diff(indptr))
    )
    return csr_matrix(
        (positions, neighbors, indptr), shape=(n, n), dtype=np.int32
    )


def _links_from_parents(
    network: RoadNetwork,
    dataset: ObjectDataset,
    tree_distances: np.ndarray,
    tree_parents: np.ndarray,
) -> np.ndarray:
    """Translate per-tree parents into adjacency-position links.

    ``links[n, i]`` is the position of ``tree_parents[i, n]`` in node
    ``n``'s adjacency list — the §3.1 backtracking link.  The lookup is
    one ``searchsorted`` over ``(node, neighbor)`` keys for all D trees at
    once, instead of D rounds of CSR fancy indexing.
    """
    num_objects, num_nodes = tree_parents.shape
    indptr, neighbors, _ = network.adjacency_arrays()
    entry_node = np.arange(num_nodes, dtype=np.int64).repeat(np.diff(indptr))
    keys = entry_node * num_nodes + neighbors
    order = np.argsort(keys)
    sorted_keys = keys[order]

    links = np.full((num_nodes, num_objects), LINK_NONE, dtype=np.int32)
    reached = np.isfinite(tree_distances) & (tree_parents != NO_PARENT)
    rank_idx, node_idx = np.nonzero(reached)
    if rank_idx.size:
        wanted = node_idx * num_nodes + tree_parents[reached].astype(np.int64)
        pos = np.searchsorted(sorted_keys, wanted)
        found = pos < sorted_keys.size
        found[found] = sorted_keys[pos[found]] == wanted[found]
        if not found.all():
            rank = int(rank_idx[~found][0])
            raise IndexError_(
                f"tree of object {rank} references a non-adjacent parent"
            )
        entries = order[pos]
        links[node_idx, rank_idx] = (entries - indptr[node_idx]).astype(
            np.int32
        )
    links[list(dataset), np.arange(num_objects)] = LINK_HERE
    return links


def _sweep_python(
    network: RoadNetwork,
    dataset: ObjectDataset,
    registry=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-object Dijkstra via the reference implementation."""
    num_nodes = network.num_nodes
    num_objects = len(dataset)
    tree_distances = np.full((num_objects, num_nodes), np.inf)
    tree_parents = np.full((num_objects, num_nodes), NO_PARENT, dtype=np.int32)
    per_object = (registry or NULL_REGISTRY).histogram(
        "construction.dijkstra_seconds"
    )
    for rank, object_node in enumerate(dataset):
        started = time.perf_counter()
        tree = shortest_path_tree(network, object_node)
        per_object.observe(time.perf_counter() - started)
        tree_distances[rank] = tree.distance
        tree_parents[rank] = tree.parent
    return tree_distances, tree_parents


def _sweep_scipy(
    network: RoadNetwork, dataset: ObjectDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Per-object Dijkstra via scipy's vectorized csgraph implementation."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    n = network.num_nodes
    indptr, neighbors, weights = network.adjacency_arrays()
    graph = csr_matrix((weights, neighbors, indptr), shape=(n, n))
    tree_distances, predecessors = csgraph_dijkstra(
        graph,
        directed=False,
        indices=list(dataset),
        return_predecessors=True,
    )
    tree_distances = np.atleast_2d(tree_distances)
    predecessors = np.atleast_2d(predecessors)
    tree_parents = predecessors.astype(np.int32)
    tree_parents[tree_parents < 0] = NO_PARENT  # scipy uses -9999
    return tree_distances, tree_parents


def run_construction_sweep(
    network: RoadNetwork,
    dataset: ObjectDataset,
    *,
    backend: str = "auto",
    registry=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The §5.2 per-object Dijkstra sweep: ``(distances, parents)``.

    Both arrays are ``(D, N)``.  ``backend`` is ``"python"``,
    ``"scipy"``, or ``"auto"`` (scipy when importable, else python).
    ``registry`` receives ``construction.*`` profiling metrics (the
    process-wide default registry when omitted).
    """
    dataset.validate_against(network)
    if len(dataset) == 0:
        raise IndexError_("cannot build signatures for an empty dataset")
    if registry is None:
        registry = get_default_registry()
    if backend == "auto":
        try:
            import scipy  # noqa: F401
        except ImportError:  # pragma: no cover - scipy is a test dependency
            backend = "python"
        else:
            backend = "scipy"
    started = time.perf_counter()
    if backend == "scipy":
        swept = _sweep_scipy(network, dataset)
    elif backend == "python":
        swept = _sweep_python(network, dataset, registry)
    else:
        raise IndexError_(f"unknown construction backend {backend!r}")
    elapsed = time.perf_counter() - started
    registry.counter("construction.sweeps").inc()
    registry.gauge("construction.sweep_seconds").set(elapsed)
    registry.gauge("construction.objects").set(len(dataset))
    logger.info(
        "construction sweep (%s backend): %d objects over %d nodes in %.3fs",
        backend,
        len(dataset),
        network.num_nodes,
        elapsed,
    )
    return swept


def assemble_signature_data(
    network: RoadNetwork,
    dataset: ObjectDataset,
    partition: CategoryPartition,
    tree_distances: np.ndarray,
    tree_parents: np.ndarray,
) -> RawSignatureData:
    """Categorize a sweep's output and derive the backtracking links."""
    categories = categorize_array(partition, tree_distances.T)
    links = _links_from_parents(network, dataset, tree_distances, tree_parents)
    object_distances = tree_distances[:, list(dataset)]
    return RawSignatureData(
        categories=categories,
        links=links,
        object_distances=object_distances,
        tree_distances=tree_distances,
        tree_parents=tree_parents,
    )


def build_raw_signature_data(
    network: RoadNetwork,
    dataset: ObjectDataset,
    partition: CategoryPartition,
    *,
    backend: str = "auto",
) -> RawSignatureData:
    """Run the §5.2 construction sweep and categorize its output."""
    tree_distances, tree_parents = run_construction_sweep(
        network, dataset, backend=backend
    )
    return assemble_signature_data(
        network, dataset, partition, tree_distances, tree_parents
    )
