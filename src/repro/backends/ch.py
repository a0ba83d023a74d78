"""Contraction hierarchies: the preprocessing and the upward search.

The second index family (see ``docs/BACKENDS.md``): instead of
precomputing per-object distance *signatures*, preprocess the network
itself.  Nodes are contracted one by one in importance order; each
contraction inserts *shortcut* edges between the removed node's
neighbors whenever the two-hop path through it was a shortest path
(checked by a bounded *witness search*).  The surviving structure — the
original edges plus the shortcuts, each directed from its lower-ranked
to its higher-ranked endpoint — is the *upward graph*, stored here as a
CSR over contiguous numpy arrays so it can be persisted and mmapped
verbatim.

Two query primitives come out of it:

* :meth:`ContractionHierarchy.distance` — a bidirectional Dijkstra that
  only relaxes upward edges from both endpoints; the exact distance is
  the best meeting point (Geisberger et al.'s CH query, engineered as in
  Zhu et al., "Shortest Path and Distance Queries on Road Networks:
  Towards Bridging Theory and Practice");
* :meth:`ContractionHierarchy.search_space` — one upward sweep with
  stall-on-demand, the building block for hub labels and for the
  object-bucket lists both backends use for range/kNN
  (:mod:`repro.backends.base`).

Node ordering is *edge difference over independent-set rounds*: the
priority of a node is (shortcuts its contraction would insert) − (edges
it removes) + (already-contracted former neighbors, which spreads the
contraction evenly).  Each round selects every live node that is the
strict minimum of ``priority`` (ties broken by node id) over its closed
two-hop neighborhood — a set whose members provably have pairwise
disjoint closed neighborhoods, so their witness searches read the same
frozen round-start graph and their contractions commute; the set is
contracted in ascending priority order.

Everything is exact: witness searches are *bounded* (settle cap) which
may only insert redundant shortcuts, never miss a needed one, and
stall-on-demand only suppresses settled entries whose upward distance is
provably not a shortest path.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from repro.backends.base import (
    BucketLists,
    HierarchyIndexBase,
    pairwise_label_distances,
)
from repro.core.signature import ObjectDistanceTable
from repro.core.update import UpdateReport
from repro.network.graph import RoadNetwork
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.tracing import Tracer

__all__ = ["CHIndex", "ContractionHierarchy"]

#: Witness searches give up after settling this many nodes.  A missed
#: witness only costs one redundant shortcut (correctness is unaffected),
#: so the cap trades preprocessing time against upward-graph size.  It is
#: a build parameter — ``build(settle_cap=...)``, surfaced through
#: ``repro build --settle-cap`` — persisted with the index so rebuilds
#: keep the choice.
WITNESS_SETTLE_CAP = 60

_INT64_MAX = np.iinfo(np.int64).max


def _witness_distances(
    adj: list[dict[int, float]],
    contracted: np.ndarray,
    source: int,
    excluded: int,
    targets: set[int],
    bound: float,
    settle_cap: int = WITNESS_SETTLE_CAP,
    visited: set[int] | None = None,
) -> dict[int, float]:
    """Bounded Dijkstra over the *uncontracted* graph minus ``excluded``.

    Returns the exact distances found to ``targets`` (missing targets
    were not proven reachable within ``bound`` under the settle cap —
    the caller must then insert a shortcut).  When ``visited`` is given,
    every node the search assigned a tentative distance is added to it —
    the witness-dependency set incremental repair records (the search's
    outcome depends only on edges among those nodes).
    """
    dist: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    found: dict[int, float] = {}
    remaining = set(targets)
    settled = 0
    while heap and remaining and settled < settle_cap:
        d, u = heappop(heap)
        if d > dist.get(u, math.inf):
            continue  # stale heap entry
        if d > bound:
            break
        settled += 1
        if u in remaining:
            found[u] = d
            remaining.discard(u)
        for w, weight in adj[u].items():
            if w == excluded or contracted[w]:
                continue
            nd = d + weight
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heappush(heap, (nd, w))
    if visited is not None:
        visited.update(dist)
    return found


def _shortcuts_for(
    adj: list[dict[int, float]],
    contracted: np.ndarray,
    v: int,
    settle_cap: int,
    record: bool = False,
):
    """Shortcuts contraction of ``v`` needs (u < w, both live), plus
    ``v``'s live degree (the witness work already enumerates it).

    With ``record``, also returns ``v``'s witness-dependency set: ``v``
    itself, its live neighbors, and every node any witness search
    touched — the complete read set of this contraction decision.  An
    edge none of those nodes is an endpoint of cannot change the
    decision (witness paths lie entirely inside the touched set, and
    weight *decreases* elsewhere only make kept shortcuts redundant,
    never incorrect).
    """
    neighbors = [
        (u, weight) for u, weight in adj[v].items() if not contracted[u]
    ]
    visited: set[int] | None = None
    if record:
        visited = {v}
        visited.update(u for u, _ in neighbors)
    needed: list[tuple[int, int, float]] = []
    for i, (u, wu) in enumerate(neighbors):
        targets = {w for w, _ in neighbors[i + 1:]}
        if not targets:
            continue
        bound = wu + max(ww for w, ww in neighbors[i + 1:])
        witness = _witness_distances(
            adj, contracted, u, v, targets, bound, settle_cap,
            visited=visited,
        )
        for w, ww in neighbors[i + 1:]:
            through = wu + ww
            if witness.get(w, math.inf) > through:
                needed.append((u, w, through))
    if record:
        return needed, len(neighbors), sorted(visited)
    return needed, len(neighbors)


def _shortcuts_of(adj, contracted, settle_cap, record, nodes):
    """Witness searches for ``nodes``, one
    ``(v, shortcuts, live_degree, visited)`` tuple per node."""
    out = []
    for v in nodes:
        v = int(v)
        if record:
            shortcuts, live_degree, visited = _shortcuts_for(
                adj, contracted, v, settle_cap, record=True
            )
        else:
            shortcuts, live_degree = _shortcuts_for(
                adj, contracted, v, settle_cap
            )
            visited = None
        out.append((v, shortcuts, live_degree, visited))
    return out


class RepairState:
    """What incremental repair needs to replay a contraction.

    Recorded during a ``record_repair=True`` build: for every node, the
    shortcut pairs its contraction decided on (with weights) and its
    witness-dependency set (see :func:`_shortcuts_for`).  The inverted
    *dependency index* — for node ``x``, which contractions read ``x`` —
    is derived lazily as a CSR and cached until a repair re-records
    nodes.
    """

    __slots__ = ("pairs", "visited", "_deps")

    def __init__(
        self,
        pairs: list[list[tuple[int, int, float]]],
        visited: list[list[int]],
    ) -> None:
        self.pairs = pairs
        self.visited = visited
        self._deps: tuple[np.ndarray, np.ndarray] | None = None

    def nbytes(self) -> int:
        """Approximate footprint (ints assumed 8 bytes, pairs 24)."""
        return 8 * sum(len(s) for s in self.visited) + 24 * sum(
            len(p) for p in self.pairs
        )

    def invalidate_deps(self) -> None:
        self._deps = None

    def deps_csr(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, contractors)``: who read node ``x``, as a CSR."""
        if self._deps is not None:
            return self._deps
        total = sum(len(seen) for seen in self.visited)
        read = np.empty(total, dtype=np.int64)
        contractor = np.empty(total, dtype=np.int64)
        pos = 0
        for v, seen in enumerate(self.visited):
            k = len(seen)
            read[pos:pos + k] = seen
            contractor[pos:pos + k] = v
            pos += k
        by_read = np.argsort(read, kind="stable")
        read = read[by_read]
        contractor = contractor[by_read]
        indptr = np.searchsorted(read, np.arange(n + 1))
        self._deps = (indptr, contractor)
        return self._deps


class RepairOutcome:
    """What one :meth:`ContractionHierarchy.repair` pass changed."""

    __slots__ = (
        "changed_up", "damaged", "repaired", "old_indptr", "old_targets",
    )

    def __init__(self, changed_up, damaged, repaired, old_indptr,
                 old_targets) -> None:
        #: Nodes whose upward edge list (targets or weights) changed.
        self.changed_up = changed_up
        #: Size of the final damage set (re-contracted nodes).
        self.damaged = damaged
        #: Damaged nodes whose witness searches actually re-ran.
        self.repaired = repaired
        #: The pre-repair upward CSR (for downward-closure computation).
        self.old_indptr = old_indptr
        self.old_targets = old_targets


def downward_closure(
    old_indptr: np.ndarray,
    old_targets: np.ndarray,
    new_indptr: np.ndarray,
    new_targets: np.ndarray,
    seeds,
    n: int,
) -> np.ndarray:
    """Nodes whose stalled upward search space may differ after repair.

    A node's upward sweep reads only the upward edges of nodes it
    reaches, so its search space can change only if it reaches — in the
    old upward graph or the new one — a node whose upward edges changed.
    Returns a boolean mask of that reverse-reachable closure over the
    union of both graphs (seeds included).
    """
    reverse: list[list[int]] = [[] for _ in range(n)]
    for indptr, targets in (
        (old_indptr, old_targets), (new_indptr, new_targets),
    ):
        for v in range(n):
            for pos in range(int(indptr[v]), int(indptr[v + 1])):
                reverse[int(targets[pos])].append(v)
    affected = np.zeros(n, dtype=bool)
    stack = [int(s) for s in seeds]
    for s in stack:
        affected[s] = True
    while stack:
        x = stack.pop()
        for v in reverse[x]:
            if not affected[v]:
                affected[v] = True
                stack.append(v)
    return affected


class ContractionHierarchy:
    """The preprocessed hierarchy: contraction order plus upward CSR.

    Attributes
    ----------
    order:
        ``order[node]`` is the node's contraction rank (0 = contracted
        first = least important).
    up_indptr / up_targets / up_weights:
        CSR of the upward graph: node ``v``'s upward edges are
        ``up_targets[up_indptr[v]:up_indptr[v+1]]`` (all higher-ranked)
        with weights ``up_weights[...]``.  Because the network is
        undirected the same CSR serves both search directions.
    num_shortcuts:
        Shortcut edges inserted during contraction (the preprocessing
        cost the §6-style bench reports).
    """

    def __init__(
        self,
        order: np.ndarray,
        up_indptr: np.ndarray,
        up_targets: np.ndarray,
        up_weights: np.ndarray,
        num_shortcuts: int,
        *,
        metrics=None,
    ) -> None:
        self.order = order
        self.up_indptr = up_indptr
        self.up_targets = up_targets
        self.up_weights = up_weights
        self.num_shortcuts = int(num_shortcuts)
        # Build provenance; overwritten by build(), defaults for
        # hierarchies restored from disk.
        self.settle_cap = WITNESS_SETTLE_CAP
        self.rounds: int | None = None
        #: Witness-dependency recording (``build(record_repair=True)``);
        #: ``None`` for plain builds and hierarchies restored from disk —
        #: :meth:`repair` then declines and the caller must rebuild.
        self.repair_state: RepairState | None = None
        self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Bind (or rebind) the ``backend.ch.settled`` counter."""
        if metrics is None:
            metrics = NULL_REGISTRY
        self._metric_settled = metrics.counter("backend.ch.settled")

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        record_repair: bool = False,
        metrics=None,
    ) -> "ContractionHierarchy":
        """Contract every node of ``network`` and assemble the upward CSR.

        Round-based edge-difference ordering: every round (1) refreshes
        priority + shortcut candidates for nodes whose neighborhood
        changed, (2) selects the independent set of strict two-hop
        priority minima with one vectorized pass over the live edge
        list, (3) recomputes witnesses for any selected node whose
        candidates predate this round (an old witness path may route
        through since-contracted nodes), and (4) contracts the whole set
        in ascending priority order.  Selected nodes have pairwise
        disjoint closed neighborhoods, so steps (1) and (3) read a
        frozen round-start snapshot.

        Witness searches are bounded by ``settle_cap``.  Parallel edges
        (possible when a shortcut doubles an original edge) keep the
        minimum weight, so the upward graph stays simple.

        With ``record_repair``, each node's final shortcut decision and
        witness-dependency set are retained on ``hierarchy.repair_state``
        so :meth:`repair` can later replay the contraction incrementally.
        Recording is opt-in: it adds memory proportional to the total
        witness work and a little bookkeeping time, which plain builds
        (and the build-time benchmarks) should not pay.
        """
        registry = metrics if metrics is not None else NULL_REGISTRY
        round_sizes = registry.histogram("backend.ch.contract.round_size")

        n = network.num_nodes
        adj: list[dict[int, float]] = [dict() for _ in range(n)]
        for node in range(n):
            for neighbor, weight in network.neighbors(node):
                current = adj[node].get(neighbor)
                if current is None or weight < current:
                    adj[node][neighbor] = weight
        # Live undirected edges, one row per edge; compacted every round
        # so the vectorized independent-set pass scans only live pairs.
        edge_u = np.array(
            [v for v in range(n) for u in adj[v] if v < u], dtype=np.int64
        )
        edge_v = np.array(
            [u for v in range(n) for u in adj[v] if v < u], dtype=np.int64
        )
        contracted = np.zeros(n, dtype=bool)
        deleted_neighbors = np.zeros(n, dtype=np.int64)
        order = np.zeros(n, dtype=np.int32)
        up_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        num_shortcuts = 0
        priorities = np.zeros(n, dtype=np.int64)
        cached: list[list[tuple[int, int, float]] | None] = [None] * n
        visited_sets: list[list[int] | None] = (
            [None] * n if record_repair else []
        )
        stamp = np.full(n, -1, dtype=np.int64)
        dirty = np.ones(n, dtype=bool)
        node_ids = np.arange(n, dtype=np.int64)

        rank = 0
        rounds = 0
        while rank < n:
            rounds += 1
            # Phase A: refresh candidates for nodes whose neighborhood
            # changed since their last evaluation.
            evaluate = np.flatnonzero(dirty & ~contracted)
            for v, shortcuts, live_degree, visited in _shortcuts_of(
                adj, contracted, settle_cap, record_repair, evaluate.tolist()
            ):
                cached[v] = shortcuts
                if record_repair:
                    visited_sets[v] = visited
                stamp[v] = rounds
                priorities[v] = (
                    len(shortcuts) - live_degree + int(deleted_neighbors[v])
                )
            # Vectorized independent-set selection.  key encodes
            # (priority, node id) in one int64; a node is selected iff
            # its key is the minimum over its *closed two-hop*
            # neighborhood, which two minimum-scatter passes over the
            # live edge list compute exactly.  Keys are unique, so two
            # selected nodes can never be adjacent or share a neighbor:
            # their closed neighborhoods are disjoint and their
            # contractions commute.
            key = priorities * np.int64(n + 1) + node_ids
            key[contracted] = _INT64_MAX
            n2 = np.full(n, _INT64_MAX, dtype=np.int64)
            if edge_u.size:
                n1 = np.full(n, _INT64_MAX, dtype=np.int64)
                np.minimum.at(n1, edge_u, key[edge_v])
                np.minimum.at(n1, edge_v, key[edge_u])
                best1 = np.minimum(key, n1)
                np.minimum.at(n2, edge_u, best1[edge_v])
                np.minimum.at(n2, edge_v, best1[edge_u])
            sel = np.flatnonzero(~contracted & (key <= n2))
            sel = sel[np.argsort(key[sel], kind="stable")]
            round_sizes.observe(len(sel))
            # Phase B: selected nodes carrying candidates from an
            # earlier round must recompute them against this round's
            # graph — an old witness may have routed through a node
            # contracted since, whose replacement path uses v itself.
            stale = [int(v) for v in sel if stamp[v] != rounds]
            if stale:
                for v, shortcuts, _, visited in _shortcuts_of(
                    adj, contracted, settle_cap, record_repair, stale
                ):
                    cached[v] = shortcuts
                    if record_repair:
                        visited_sets[v] = visited
                    stamp[v] = rounds
            # Merge: contract in ascending key order.  Disjoint closed
            # neighborhoods mean nothing below reads state another
            # selected node wrote, so the result is order-independent —
            # the fixed order only pins the rank numbering.
            dirty[:] = False
            new_u: list[int] = []
            new_v: list[int] = []
            for v in sel:
                v = int(v)
                live = [
                    (u, weight)
                    for u, weight in adj[v].items()
                    if not contracted[u]
                ]
                up_edges[v] = live
                for u, _ in live:
                    deleted_neighbors[u] += 1
                    dirty[u] = True
                for u, w, weight in cached[v]:
                    existing = adj[u].get(w)
                    if existing is None or weight < existing:
                        adj[u][w] = weight
                        adj[w][u] = weight
                        if existing is None:
                            num_shortcuts += 1
                            new_u.append(u)
                            new_v.append(w)
                contracted[v] = True
                order[v] = rank
                rank += 1
            if edge_u.size:
                keep = ~(contracted[edge_u] | contracted[edge_v])
                edge_u = edge_u[keep]
                edge_v = edge_v[keep]
            if new_u:
                edge_u = np.concatenate(
                    [edge_u, np.asarray(new_u, dtype=np.int64)]
                )
                edge_v = np.concatenate(
                    [edge_v, np.asarray(new_v, dtype=np.int64)]
                )

        indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            indptr[v + 1] = indptr[v] + len(up_edges[v])
        targets = np.zeros(int(indptr[-1]), dtype=np.int32)
        weights = np.zeros(int(indptr[-1]), dtype=np.float64)
        for v in range(n):
            start = int(indptr[v])
            for offset, (u, weight) in enumerate(up_edges[v]):
                targets[start + offset] = u
                weights[start + offset] = weight
        hierarchy = cls(
            order, indptr, targets, weights, num_shortcuts, metrics=metrics
        )
        hierarchy.settle_cap = int(settle_cap)
        hierarchy.rounds = rounds
        if record_repair:
            hierarchy.repair_state = RepairState(cached, visited_sets)
        registry.gauge("backend.ch.contract.rounds").set(rounds)
        return hierarchy

    # ------------------------------------------------------------------
    # incremental repair (§5.4 for hierarchies)
    # ------------------------------------------------------------------
    def repair(
        self,
        network: RoadNetwork,
        changed_edges,
        *,
        damage_limit: int | None = None,
    ) -> RepairOutcome | None:
        """Replay the recorded contraction against the *updated* network.

        ``network`` must already carry the mutations; ``changed_edges``
        are the canonical endpoint pairs of every added / removed /
        re-weighted edge.  Keeps the node order fixed and re-derives the
        upward CSR by replaying contractions in rank order over a fresh
        overlay of the updated graph:

        * a node is *damaged* if any witness search it ran (or its own
          neighborhood) touched a changed edge's endpoint — the inverted
          dependency index answers that in one slice per endpoint.
          Damaged nodes re-run their witness searches against the
          replayed overlay; any difference between the new shortcut
          decision and the recorded one propagates damage to the
          higher-ranked contractions that read either endpoint;
        * an *undamaged* node's local overlay is bit-identical to what
          the original build saw (every incident edge change damages it
          directly, and every incoming-shortcut change is a recorded
          pair diff of a damaged lower node), so its recorded shortcut
          pairs — weights included — are replayed verbatim.

        Replayed decisions keep the CH invariant (witness paths lie in
        the recorded dependency sets; unseen weight decreases only make
        kept shortcuts redundant), so queries stay exact.  Returns a
        :class:`RepairOutcome`, or ``None`` — without committing
        anything — when no recording exists, the node count changed, or
        the damage set exceeds ``damage_limit`` (the caller should then
        rebuild from scratch, recording).
        """
        state = self.repair_state
        n = self.num_nodes
        if state is None or network.num_nodes != n:
            return None
        if damage_limit is None:
            damage_limit = n
        order = self.order
        dep_indptr, dep_contractor = state.deps_csr(n)
        damaged = np.zeros(n, dtype=bool)
        for edge in changed_edges:
            for x in edge:
                damaged[dep_contractor[dep_indptr[x]:dep_indptr[x + 1]]] = (
                    True
                )
        damage_count = int(damaged.sum())
        if damage_count > damage_limit:
            return None
        # Fresh overlay of the updated base graph; replay grows it with
        # shortcuts exactly the way build() did.
        adj: list[dict[int, float]] = [dict() for _ in range(n)]
        for node in range(n):
            for neighbor, weight in network.neighbors(node):
                current = adj[node].get(neighbor)
                if current is None or weight < current:
                    adj[node][neighbor] = weight
        by_rank = np.argsort(order, kind="stable")
        contracted = np.zeros(n, dtype=bool)
        settle_cap = self.settle_cap
        new_pairs: dict[int, list[tuple[int, int, float]]] = {}
        new_visited: dict[int, list[int]] = {}
        up_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        num_shortcuts = 0
        for r in range(n):
            v = int(by_rank[r])
            if damaged[v]:
                pairs, _, visited = _shortcuts_for(
                    adj, contracted, v, settle_cap, record=True
                )
                old_map = {(a, b): w for a, b, w in state.pairs[v]}
                cur_map = {(a, b): w for a, b, w in pairs}
                for pair in old_map.keys() | cur_map.keys():
                    if old_map.get(pair) == cur_map.get(pair):
                        continue
                    for x in pair:
                        cand = dep_contractor[
                            dep_indptr[x]:dep_indptr[x + 1]
                        ]
                        cand = cand[order[cand] > r]
                        fresh = cand[~damaged[cand]]
                        if fresh.size:
                            damaged[fresh] = True
                            damage_count += int(fresh.size)
                if damage_count > damage_limit:
                    return None
                new_pairs[v] = pairs
                new_visited[v] = visited
            else:
                pairs = state.pairs[v]
            up_edges[v] = [
                (u, weight)
                for u, weight in adj[v].items()
                if not contracted[u]
            ]
            for a, b, weight in pairs:
                existing = adj[a].get(b)
                if existing is None or weight < existing:
                    adj[a][b] = weight
                    adj[b][a] = weight
                    if existing is None:
                        num_shortcuts += 1
            contracted[v] = True
        # Commit: recorded state, then the upward CSR.
        for v, pairs in new_pairs.items():
            state.pairs[v] = pairs
            state.visited[v] = new_visited[v]
        if new_pairs:
            state.invalidate_deps()
        indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            indptr[v + 1] = indptr[v] + len(up_edges[v])
        targets = np.zeros(int(indptr[-1]), dtype=np.int32)
        weights = np.zeros(int(indptr[-1]), dtype=np.float64)
        for v in range(n):
            start = int(indptr[v])
            for offset, (u, weight) in enumerate(up_edges[v]):
                targets[start + offset] = u
                weights[start + offset] = weight
        old_indptr = self.up_indptr
        old_targets = self.up_targets
        old_weights = self.up_weights
        changed_up: list[int] = []
        for v in range(n):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            olo, ohi = int(old_indptr[v]), int(old_indptr[v + 1])
            if (
                hi - lo != ohi - olo
                or not np.array_equal(
                    targets[lo:hi], old_targets[olo:ohi]
                )
                or not np.array_equal(
                    weights[lo:hi], old_weights[olo:ohi]
                )
            ):
                changed_up.append(v)
        self.up_indptr = indptr
        self.up_targets = targets
        self.up_weights = weights
        self.num_shortcuts = num_shortcuts
        return RepairOutcome(
            changed_up=changed_up,
            damaged=damage_count,
            repaired=len(new_pairs),
            old_indptr=old_indptr,
            old_targets=old_targets,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.order)

    @property
    def num_upward_edges(self) -> int:
        return len(self.up_targets)

    def nbytes(self) -> int:
        """In-memory footprint of the hierarchy arrays."""
        return (
            self.order.nbytes
            + self.up_indptr.nbytes
            + self.up_targets.nbytes
            + self.up_weights.nbytes
        )

    def _upward_dijkstra(self, source: int, *, stall: bool) -> dict[int, float]:
        """All settled upward distances from ``source`` (possibly > exact).

        With ``stall`` (stall-on-demand), a popped node whose tentative
        distance is beaten by a settled neighbor plus the connecting
        edge is suppressed: that entry provably is not a shortest path,
        and — because an exact entry can never be beaten by a real path
        — every exact-distance entry survives.  The settled map is
        therefore still a valid hub label for ``source``.
        """
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        dist: dict[int, float] = {source: 0.0}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if u in settled or d > dist.get(u, math.inf):
                continue
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            if stall:
                stalled = False
                for pos in range(lo, hi):
                    w = int(targets[pos])
                    if settled.get(w, math.inf) + weights[pos] < d:
                        stalled = True
                        break
                if stalled:
                    continue
            settled[u] = d
            for pos in range(lo, hi):
                w = int(targets[pos])
                nd = d + weights[pos]
                if nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heappush(heap, (nd, w))
        self._metric_settled.inc(len(settled))
        return settled

    def search_space(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """The stalled upward search space, sorted by node id.

        Returns ``(nodes, distances)`` — a valid (unpruned) hub label
        for ``source``: for every target ``t`` the minimum of
        ``d_s(m) + d_t(m)`` over shared entries ``m`` is the exact
        network distance.
        """
        settled = self._upward_dijkstra(source, stall=True)
        nodes = np.fromiter(settled.keys(), dtype=np.int64, count=len(settled))
        dists = np.fromiter(
            settled.values(), dtype=np.float64, count=len(settled)
        )
        ordered = np.argsort(nodes, kind="stable")
        return nodes[ordered].astype(np.int32), dists[ordered]

    def batch_search_spaces(
        self,
        mask: np.ndarray | None = None,
        base: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """*Unstalled* upward search spaces for every node, as one CSR.

        Every upward path is strictly rank-ascending, so node ``v``'s
        full settled set is ``{v: 0}`` merged with each upward
        neighbor's set shifted by the edge weight — a dynamic program
        in descending rank order that matches the non-stalling upward
        Dijkstra bit for bit without running ``n`` heap searches.

        Unstalled spaces are supersets of the stalled ones, but only by
        entries whose settled distance exceeds the true network
        distance (stalling suppresses an entry only when a real
        witness path beats it), so exactness pruning produces the
        *same* labels from either — which is why the incremental hub
        maintenance can diff and re-prune these cheaply.

        With ``mask`` and ``base`` (a prior CSR from this method), only
        masked nodes are recomputed; unmasked nodes' slices are carried
        over from ``base`` — valid whenever the unmasked nodes' spaces
        are known to be unchanged (the downward-closure guarantee).
        """
        n = self.num_nodes
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        if base is not None:
            base_indptr, base_hubs, base_dists = base
        nodes_out: list = [None] * n
        dists_out: list = [None] * n
        for v in np.argsort(self.order)[::-1]:
            v = int(v)
            if mask is not None and not mask[v]:
                lo, hi = int(base_indptr[v]), int(base_indptr[v + 1])
                nodes_out[v] = base_hubs[lo:hi]
                dists_out[v] = base_dists[lo:hi]
                continue
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            parts_nodes = [np.array([v], dtype=np.int32)]
            parts_dists = [np.zeros(1, dtype=np.float64)]
            for pos in range(lo, hi):
                w = int(targets[pos])
                parts_nodes.append(nodes_out[w])
                parts_dists.append(dists_out[w] + weights[pos])
            cat_nodes = np.concatenate(parts_nodes)
            cat_dists = np.concatenate(parts_dists)
            by_node = np.argsort(cat_nodes, kind="stable")
            cat_nodes = cat_nodes[by_node]
            cat_dists = cat_dists[by_node]
            starts = np.flatnonzero(
                np.r_[True, cat_nodes[1:] != cat_nodes[:-1]]
            )
            nodes_out[v] = cat_nodes[starts]
            dists_out[v] = np.minimum.reduceat(cat_dists, starts)
        sp_indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([len(x) for x in nodes_out], out=sp_indptr[1:])
            sp_hubs = np.concatenate(nodes_out).astype(np.int32)
            sp_dists = np.concatenate(dists_out)
        else:
            sp_hubs = np.zeros(0, dtype=np.int32)
            sp_dists = np.zeros(0, dtype=np.float64)
        return sp_indptr, sp_hubs, sp_dists

    def distance(self, source: int, target: int) -> float:
        """Exact point-to-point distance (bidirectional upward Dijkstra).

        Both directions relax only upward edges; every shortest path has
        a unique highest-ranked node, reached upward from both ends, so
        the best meeting point is exact.  A direction stops once its
        queue head can no longer improve the incumbent.
        """
        if source == target:
            return 0.0
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        dist_f: dict[int, float] = {source: 0.0}
        dist_b: dict[int, float] = {target: 0.0}
        heap_f: list[tuple[float, int]] = [(0.0, source)]
        heap_b: list[tuple[float, int]] = [(0.0, target)]
        done_f: set[int] = set()
        done_b: set[int] = set()
        best = math.inf
        settled = 0
        while heap_f or heap_b:
            if heap_f and (not heap_b or heap_f[0][0] <= heap_b[0][0]):
                heap, dist, done, other = heap_f, dist_f, done_f, dist_b
            else:
                heap, dist, done, other = heap_b, dist_b, done_b, dist_f
            d, u = heappop(heap)
            if d >= best:
                # Nothing on this side can improve the incumbent; drain it.
                heap.clear()
                continue
            if u in done or d > dist.get(u, math.inf):
                continue
            done.add(u)
            settled += 1
            if u in other:
                total = d + other[u]
                if total < best:
                    best = total
            for pos in range(int(indptr[u]), int(indptr[u + 1])):
                w = int(targets[pos])
                nd = d + weights[pos]
                if nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heappush(heap, (nd, w))
        self._metric_settled.inc(settled)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContractionHierarchy(nodes={self.num_nodes}, "
            f"upward_edges={self.num_upward_edges}, "
            f"shortcuts={self.num_shortcuts})"
        )


class CHIndex(HierarchyIndexBase):
    """The contraction-hierarchy backend behind ``DistanceIndex``.

    Point-to-point ``distance()`` is the bidirectional upward Dijkstra.
    Range/kNN use the shared bucket lists of :mod:`repro.backends.base`,
    fed from each *object's* stalled upward search space; the query side
    runs one upward sweep per query (its search space is computed on the
    fly, not stored), which keeps the index small at the cost of per-
    query settle work — the trade-off the hub-label backend flips.

    Bucket entries taken from raw search spaces may overestimate
    individual hub distances, but for every object the minimum over
    shared hubs is exact (a search space is a valid hub label), which is
    all the bucket algorithms rely on.
    """

    backend_name = "ch"

    #: ``apply_updates`` falls back to a full rebuild once the repair
    #: damage set exceeds this fraction of the network's nodes.
    repair_threshold = 0.25

    def __init__(
        self,
        network,
        dataset,
        hierarchy: ContractionHierarchy,
        partition,
        object_table,
        buckets,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        object_entries=None,
        metrics=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.settle_cap = int(settle_cap)
        # Per-object search spaces, aligned with dataset rank — kept so
        # incremental repair recomputes only the affected objects'
        # bucket entries.  ``None`` for indexes restored from disk (the
        # first apply_updates then rebuilds, recording).
        self._object_entries = object_entries
        super().__init__(
            network, dataset, partition, object_table, buckets,
            metrics=metrics,
        )

    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        dataset,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        record_repair: bool = False,
        metrics=None,
    ) -> "CHIndex":
        """Contract the network, then bucket the object search spaces.

        ``settle_cap`` bounds each witness search; it is persisted with
        the index and reused on §5.4 rebuilds.

        The build trace (``index.build_trace``) carries one span per
        phase — ``build.contract``, ``build.buckets``,
        ``build.object_table`` — and each phase's wall time also lands
        on a ``backend.ch.build.<phase>_seconds`` gauge when metrics are
        enabled.
        """
        trace = Tracer()
        with trace.span("build.ch", nodes=network.num_nodes):
            with trace.span("build.contract") as span:
                hierarchy = ContractionHierarchy.build(
                    network,
                    settle_cap=settle_cap,
                    record_repair=record_repair,
                    metrics=metrics,
                )
                span.set("shortcuts", hierarchy.num_shortcuts)
            with trace.span("build.buckets") as span:
                entries = [
                    hierarchy.search_space(object_node)
                    for object_node in dataset
                ]
                buckets = BucketLists.build(network.num_nodes, entries)
                span.set("entries", buckets.num_entries)
            with trace.span("build.object_table"):
                distances = pairwise_label_distances(entries)
                partition = cls._derive_partition(distances)
                object_table = ObjectDistanceTable(
                    distances, partition, drop_last_category=False
                )
        index = cls(
            network, dataset, hierarchy, partition, object_table, buckets,
            settle_cap=settle_cap, object_entries=entries, metrics=metrics,
        )
        index._record_build_trace(trace)
        return index

    def _record_build_trace(self, trace: Tracer) -> None:
        self.build_trace = trace
        for span in trace.walk():
            if span.name.startswith("build.") and span.name != "build.ch":
                phase = span.name.removeprefix("build.")
                self.metrics.gauge(
                    f"backend.ch.build.{phase}_seconds"
                ).set(span.seconds)

    # ------------------------------------------------------------------
    # HierarchyIndexBase hooks
    # ------------------------------------------------------------------
    def _bind_backend_metrics(self, registry) -> None:
        self.hierarchy.bind_metrics(registry)

    def _forward_entries(self, node: int):
        return self.hierarchy.search_space(node)

    def _point_distance(self, node: int, target: int) -> float:
        return self.hierarchy.distance(node, target)

    def _rebuild(self, *, record_repair: bool = False) -> None:
        rebuilt = type(self).build(
            self.network,
            self.dataset,
            settle_cap=self.settle_cap,
            record_repair=record_repair,
            metrics=self.metrics,
        )
        self.hierarchy = rebuilt.hierarchy
        self.buckets = rebuilt.buckets
        self.partition = rebuilt.partition
        self.object_table = rebuilt.object_table
        self.build_trace = rebuilt.build_trace
        self._object_entries = rebuilt._object_entries

    def _rebuild_for_update(self) -> None:
        # Record while rebuilding so the *next* changeset can repair.
        self._rebuild(record_repair=True)

    def _refresh_object_structures(self) -> None:
        """Re-derive buckets / object table / partition from the (partly
        recomputed) per-object search spaces — identical to what a fresh
        build would produce from the same entries."""
        entries = self._object_entries
        self.buckets = BucketLists.build(self.network.num_nodes, entries)
        distances = pairwise_label_distances(entries)
        self.partition = self._derive_partition(distances)
        self.object_table = ObjectDistanceTable(
            distances, self.partition, drop_last_category=False
        )

    def _apply_changeset(self, changeset, result) -> None:
        """Incremental §5.4 maintenance: repair the hierarchy, then
        recompute search spaces only for objects the repair may have
        moved.

        Falls back to a full (recording) rebuild when no repair
        recording exists, or the contraction damage exceeds
        ``repair_threshold`` × nodes.  Either way the resulting
        structures are bit-identical to a fresh build on the mutated
        network's repaired hierarchy — queries stay exact.
        """
        from repro.core.changeset import apply_changeset_to_network

        changed_edges = changeset.edges()
        apply_changeset_to_network(self.network, changeset)
        n = self.network.num_nodes
        outcome = None
        if self._object_entries is not None:
            limit = max(1, int(self.repair_threshold * n))
            outcome = self.hierarchy.repair(
                self.network, changed_edges, damage_limit=limit
            )
        if outcome is None:
            self._note_rebuilt(result)
            return
        hierarchy = self.hierarchy
        affected = downward_closure(
            outcome.old_indptr,
            outcome.old_targets,
            hierarchy.up_indptr,
            hierarchy.up_targets,
            outcome.changed_up,
            n,
        )
        affected_ranks = [
            rank
            for rank, object_node in enumerate(self.dataset)
            if affected[int(object_node)]
        ]
        for rank in affected_ranks:
            self._object_entries[rank] = hierarchy.search_space(
                int(self.dataset[rank])
            )
        if affected_ranks:
            self._refresh_object_structures()
        self.metrics.counter("backend.ch.update.repaired").inc()
        self.metrics.counter("backend.ch.update.damaged_nodes").inc(
            outcome.damaged
        )
        result.bump("repaired")
        result.bump("damaged_nodes", outcome.damaged)
        result.report.merge(
            UpdateReport(
                affected_objects=set(affected_ranks),
                changed_components=0,
                touched_nodes=int(affected.sum()),
                recompressed_nodes=0,
            )
        )

    def _structure_bytes(self) -> int:
        return self.hierarchy.nbytes() + self.buckets.nbytes()

    def stats(self) -> dict:
        report = super().stats()
        report["shortcuts"] = self.hierarchy.num_shortcuts
        report["upward_edges"] = self.hierarchy.num_upward_edges
        report["settle_cap"] = self.settle_cap
        if self.hierarchy.rounds is not None:
            report["contraction_rounds"] = self.hierarchy.rounds
        return report
