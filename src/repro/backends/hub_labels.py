"""Hub labels distilled from CH search spaces (2-hop distance labels).

The third index family: where the CH backend runs an upward search per
query, this one runs *all* the searches at preprocessing time and stores
the result.  Every node ``v`` gets a label ``L(v)`` — hub ids and exact
distances, sorted by hub id in one contiguous CSR — such that for any
``s, t`` the minimum of ``d_s(h) + d_t(h)`` over hubs shared by
``L(s)`` and ``L(t)`` is the exact network distance (the 2-hop cover
property, cf. "Hop Doubling Label Indexing" in PAPERS.md; the
construction here is the CH-based one of Abraham et al. as engineered by
Zhu et al.).

Construction: labels are the *stalled upward search spaces* of
:class:`~repro.backends.ch.ContractionHierarchy`, pruned of
overestimates.  Once ranks are fixed the distillation runs in two
phases: (1) every node's search space — independent upward sweeps,
concatenated into one CSR in node order; (2) per-entry pruning, where
``(h, d)`` survives iff joining ``v``'s space against ``h``'s *space*
cannot beat ``d``.  A search space is itself a valid hub label, so that
join already equals the exact distance ``d(v, h)`` — the keep rule is
"the entry is exact", the same set the classic
prune-against-finished-labels recurrence keeps — which removes the
rank-order data dependency between nodes: phase (2) is a few
:func:`~repro.backends.base.batch_label_join_csr` kernel calls against
the shared phase-(1) CSR.  Pruning only removes entries that were never
shortest-path witnesses, so the cover property is inherited from the
search spaces.

``distance()`` is then a sorted-merge intersection of two label slices —
no graph traversal at all — and ``distance_batch()`` runs the same join
for a whole batch in one vectorized kernel pass, which is what buys the
order-of-magnitude qps gap over both other backends
(``BENCH_backends.json``, ``BENCH_scale.json``).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import (
    BucketLists,
    HierarchyIndexBase,
    batch_label_join_csr,
    label_join,
    pairwise_label_distances,
)
from repro.backends.ch import (
    WITNESS_SETTLE_CAP,
    ContractionHierarchy,
    downward_closure,
)
from repro.core.signature import ObjectDistanceTable
from repro.core.update import UpdateReport
from repro.network.graph import RoadNetwork
from repro.obs.tracing import Tracer

__all__ = ["HubLabelIndex", "build_labels"]


#: Per-call pair budget for the pruning joins: large enough to amortize
#: the batch kernel's setup, small enough to keep its gather workspace
#: (each pair drags in both label slices) cache- and memory-friendly.
_PRUNE_BLOCK_PAIRS = 32768


def _prune_spaces(indptr, hubs, dists):
    """Exactness pruning of every node's search space.

    ``(indptr, hubs, dists)`` is the phase-(1) search-space CSR.  Each
    node's entries are kept iff the vectorized join of its space against
    every hub's space cannot beat the stored distance — i.e. the
    distance is exact.  All (node, hub) pairs go through
    :func:`batch_label_join_csr` in node-aligned blocks rather than one
    call per node; the joins — and therefore the kept entries — are
    bit-identical either way.
    """
    nodes_arr = np.arange(len(indptr) - 1, dtype=np.int64)
    out = []
    start = 0
    while start < len(nodes_arr):
        stop = start
        pairs = 0
        while stop < len(nodes_arr):
            v = int(nodes_arr[stop])
            count = int(indptr[v + 1] - indptr[v])
            if pairs and pairs + count > _PRUNE_BLOCK_PAIRS:
                break
            pairs += count
            stop += 1
        block = nodes_arr[start:stop]
        counts = indptr[block + 1] - indptr[block]
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        positions = (
            np.repeat(indptr[block], counts)
            + np.arange(total)
            - np.repeat(offsets, counts)
        )
        entry_hubs = hubs[positions]
        entry_dists = dists[positions]
        exact = batch_label_join_csr(
            indptr,
            hubs,
            dists,
            np.repeat(block, counts),
            entry_hubs.astype(np.int64),
        )
        keep = ~(exact < entry_dists)
        for i in range(len(block)):
            lo = int(offsets[i])
            hi = lo + int(counts[i])
            kept = keep[lo:hi]
            out.append((entry_hubs[lo:hi][kept], entry_dists[lo:hi][kept]))
        start = stop
    return out


def build_labels(
    hierarchy: ContractionHierarchy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pruned hub labels for every node, as one CSR.

    Returns ``(label_indptr, label_hubs, label_dists)``; node ``v``'s
    label is the slice ``label_indptr[v]:label_indptr[v+1]``, sorted by
    hub id with exact distances.
    """
    n = hierarchy.num_nodes
    # Phase 1: every search space, concatenated into one CSR in node
    # order (per-node sweeps are independent once ranks are fixed).
    spaces = [hierarchy.search_space(v) for v in range(n)]
    sp_indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum([len(hubs) for hubs, _ in spaces], out=sp_indptr[1:])
        sp_hubs = np.concatenate([hubs for hubs, _ in spaces])
        sp_dists = np.concatenate([dists for _, dists in spaces])
    else:
        sp_hubs = np.zeros(0, dtype=np.int32)
        sp_dists = np.zeros(0, dtype=np.float64)
    del spaces
    # Phase 2: per-node exactness pruning against the shared CSR.
    pruned = _prune_spaces(sp_indptr, sp_hubs, sp_dists)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum([len(hubs) for hubs, _ in pruned], out=indptr[1:])
        label_hubs = np.concatenate([hubs for hubs, _ in pruned])
        label_dists = np.concatenate([dists for _, dists in pruned])
    else:
        label_hubs = np.zeros(0, dtype=np.int32)
        label_dists = np.zeros(0, dtype=np.float64)
    return indptr, label_hubs.astype(np.int32), label_dists


class HubLabelIndex(HierarchyIndexBase):
    """The hub-label backend behind ``DistanceIndex``.

    Queries touch only label arrays: ``distance()`` joins two label
    slices; range/kNN join the query label against the shared bucket
    lists (built from the *object labels*, so every bucket entry is an
    exact distance).  The price is paid up front — labels for all n
    nodes dominate the index size — which is exactly the trade the
    head-to-head benchmark quantifies against CH and the signature
    index.
    """

    backend_name = "hub"

    #: ``apply_updates`` falls back to a full rebuild once the
    #: hierarchy repair's damage set exceeds this fraction of the
    #: network's nodes (replaying a mostly-damaged contraction costs as
    #: much as contracting afresh).
    repair_threshold = 0.25

    #: Separate fallback for the *redistillation* phase: rebuild only
    #: when more than this fraction of labels needs recomputation.
    #: Defaults to 1.0 — never — because redistillation on a repaired
    #: hierarchy is vectorized CSR work that measures several times
    #: cheaper than a full rebuild even when every label is affected
    #: (the rebuild's contraction dominates); the knob exists for
    #: deployments that would rather re-derive the contraction order
    #: than serve from an aging one.
    relabel_threshold = 1.0

    def __init__(
        self,
        network,
        dataset,
        order: np.ndarray,
        label_indptr: np.ndarray,
        label_hubs: np.ndarray,
        label_dists: np.ndarray,
        partition,
        object_table,
        buckets,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        hierarchy: ContractionHierarchy | None = None,
        metrics=None,
    ) -> None:
        self.order = order
        self.label_indptr = label_indptr
        self.label_hubs = label_hubs
        self.label_dists = label_dists
        self.settle_cap = int(settle_cap)
        # The hierarchy the labels were distilled from — kept (when
        # available) so incremental repair can replay contractions and
        # recompute only the affected labels.  ``None`` for indexes
        # restored from disk; the first apply_updates then rebuilds.
        self.hierarchy = hierarchy
        # Unstalled search-space CSR (indptr, hubs, dists), computed
        # lazily by the first incremental apply and maintained across
        # repairs.  Diffing old-vs-new spaces is what lets updates
        # re-prune only the labels that actually changed.
        self._spaces: tuple[np.ndarray, np.ndarray, np.ndarray] | None = (
            None
        )
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
    ) -> "HubLabelIndex":
        """Contract, distill labels, bucket the object labels.

        ``settle_cap`` bounds each witness search; it persists with the
        index and is reused on §5.4 rebuilds.

        Build phases — ``build.contract``, ``build.labels``,
        ``build.buckets``, ``build.object_table`` — land on
        ``index.build_trace`` spans and ``backend.hub.build.*_seconds``
        gauges.
        """
        trace = Tracer()
        with trace.span("build.hub", nodes=network.num_nodes):
            with trace.span("build.contract") as span:
                hierarchy = ContractionHierarchy.build(
                    network,
                    settle_cap=settle_cap,
                    record_repair=record_repair,
                    metrics=metrics,
                )
                span.set("shortcuts", hierarchy.num_shortcuts)
            with trace.span("build.labels") as span:
                indptr, hubs, dists = build_labels(hierarchy)
                span.set("entries", len(hubs))
            with trace.span("build.buckets") as span:
                entries = [
                    (
                        hubs[indptr[obj]:indptr[obj + 1]],
                        dists[indptr[obj]:indptr[obj + 1]],
                    )
                    for obj in dataset
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
            network, dataset, hierarchy.order, indptr, hubs, dists,
            partition, object_table, buckets,
            settle_cap=settle_cap, hierarchy=hierarchy, metrics=metrics,
        )
        index._record_build_trace(trace)
        return index

    def _record_build_trace(self, trace: Tracer) -> None:
        self.build_trace = trace
        for span in trace.walk():
            if span.name.startswith("build.") and span.name != "build.hub":
                phase = span.name.removeprefix("build.")
                self.metrics.gauge(
                    f"backend.hub.build.{phase}_seconds"
                ).set(span.seconds)

    # ------------------------------------------------------------------
    # HierarchyIndexBase hooks
    # ------------------------------------------------------------------
    @property
    def num_label_entries(self) -> int:
        return len(self.label_hubs)

    def _bind_backend_metrics(self, registry) -> None:
        registry.gauge("backend.hub.label_entries").set(
            self.num_label_entries
        )

    def _forward_entries(self, node: int):
        lo = int(self.label_indptr[node])
        hi = int(self.label_indptr[node + 1])
        return self.label_hubs[lo:hi], self.label_dists[lo:hi]

    def _point_distance(self, node: int, target: int) -> float:
        hubs_a, dists_a = self._forward_entries(node)
        hubs_b, dists_b = self._forward_entries(target)
        return label_join(hubs_a, dists_a, hubs_b, dists_b)

    def _distance_batch_values(
        self, nodes: list[int], object_nodes: list[int]
    ) -> list[float]:
        # The whole batch in one vectorized label-join pass — the same
        # minimum over the same shared-hub sums the scalar sorted-merge
        # computes, so answers are bit-identical.
        self.metrics.counter("query.distance_batch.kernel_pairs").inc(
            len(nodes)
        )
        joined = batch_label_join_csr(
            self.label_indptr,
            self.label_hubs,
            self.label_dists,
            np.asarray(nodes, dtype=np.int64),
            np.asarray(object_nodes, dtype=np.int64),
        )
        return [float(value) for value in joined]

    def _rebuild(self, *, record_repair: bool = False) -> None:
        rebuilt = type(self).build(
            self.network,
            self.dataset,
            settle_cap=self.settle_cap,
            record_repair=record_repair,
            metrics=self.metrics,
        )
        self.order = rebuilt.order
        self.label_indptr = rebuilt.label_indptr
        self.label_hubs = rebuilt.label_hubs
        self.label_dists = rebuilt.label_dists
        self.buckets = rebuilt.buckets
        self.partition = rebuilt.partition
        self.object_table = rebuilt.object_table
        self.build_trace = rebuilt.build_trace
        self.hierarchy = rebuilt.hierarchy
        self._spaces = None
        self._bind_backend_metrics(self.metrics)

    def _rebuild_for_update(self) -> None:
        # Record while rebuilding so the *next* changeset can repair.
        self._rebuild(record_repair=True)

    def _refresh_object_structures(self) -> None:
        """Re-derive buckets / object table / partition from the label
        CSR — the same pure function of the labels the build runs."""
        indptr, hubs, dists = (
            self.label_indptr, self.label_hubs, self.label_dists,
        )
        entries = [
            (hubs[indptr[obj]:indptr[obj + 1]],
             dists[indptr[obj]:indptr[obj + 1]])
            for obj in self.dataset
        ]
        self.buckets = BucketLists.build(self.network.num_nodes, entries)
        distances = pairwise_label_distances(entries)
        self.partition = self._derive_partition(distances)
        self.object_table = ObjectDistanceTable(
            distances, self.partition, drop_last_category=False
        )

    def _apply_changeset(self, changeset, result) -> None:
        """Incremental §5.4 maintenance: repair the hierarchy, then
        redistill only the labels the changeset actually invalidated.

        A node ``x``'s pruned label is a pure function of two things —
        its upward search space and the true network distances from
        ``x`` (the keep rule retains exactly the space entries whose
        settled distance is exact).  So ``x`` needs redistillation iff
        (a) its search space changed, or (b) some exact distance from
        ``x`` changed, which can flip a keep decision even when the
        space is intact.

        (a) is decided by *recomputing* spaces, cheaply: only nodes
        that reach — in the old or repaired upward graph — a node whose
        upward edges changed can differ (the downward closure), and the
        closure's unstalled spaces come out of one rank-descending
        dynamic program (``batch_search_spaces``) instead of per-node
        Dijkstras.  The recomputed spaces are then *diffed* against the
        stored ones; the closure is reachability-conservative, so most
        of it is usually unchanged and drops out here.

        (b) is detected per changed edge ``(a, b)`` by the classic
        subpath-optimality criterion: a weight increase / removal
        rerouted some old shortest path from ``x`` iff
        ``d(x,a) + w = d(x,b)`` (or symmetrically) held in the
        *pre-mutation* graph; a decrease / insertion attracts a new
        shortest path iff the same equality holds *post-mutation*.  Two
        Dijkstras per changed edge decide that for every node at once,
        and both equalities are bit-exact (each side comes from the same
        relaxation sums).

        Affected nodes are re-pruned against the updated space CSR with
        the same keep rule as ``build_labels``; because pruning an
        unstalled space keeps exactly the same entries as pruning the
        stalled one, the resulting label arrays stay bit-identical to
        ``build_labels`` on the repaired hierarchy.

        Falls back to a full (recording) rebuild when no repair
        recording exists, hierarchy damage exceeds ``repair_threshold``
        × nodes, or the affected-label count exceeds
        ``relabel_threshold`` × nodes.
        """
        from repro.core.changeset import apply_changeset_to_network
        from repro.network.dijkstra import shortest_path_tree

        hierarchy = self.hierarchy
        n = self.network.num_nodes
        if hierarchy is None or hierarchy.repair_state is None:
            apply_changeset_to_network(self.network, changeset)
            self._note_rebuilt(result)
            return
        if self._spaces is None:
            self._spaces = hierarchy.batch_search_spaces()
        limit = max(1, int(self.repair_threshold * n))
        # Classify deltas: increases are checked against the
        # pre-mutation graph, decreases against the post-mutation one.
        increases: list[tuple[int, int, float]] = []
        decreases: list[tuple[int, int, float]] = []
        for delta in changeset:
            if delta.op == "add":
                decreases.append((delta.u, delta.v, delta.weight))
            elif delta.op == "remove":
                increases.append(
                    (delta.u, delta.v,
                     self.network.edge_weight(delta.u, delta.v))
                )
            else:
                old = self.network.edge_weight(delta.u, delta.v)
                if delta.weight < old:
                    decreases.append((delta.u, delta.v, delta.weight))
                elif delta.weight > old:
                    increases.append((delta.u, delta.v, old))
        # Each changed edge contributes a *pair* of directional masks:
        # ``toward_b[x]`` — some shortest path from ``x`` to ``b``
        # crosses the edge via ``a`` — and symmetrically ``toward_a``.
        # A pairwise distance d(v, u) can change only when the
        # realizing path crosses a changed edge, which by subpath
        # optimality means v and u sit on *opposite* masks of it; nodes
        # on the same side keep every mutual distance bit-identical.
        pair_masks: list[tuple[np.ndarray, np.ndarray]] = []
        for a, b, w in increases:
            da = np.asarray(shortest_path_tree(self.network, a).distance)
            db = np.asarray(shortest_path_tree(self.network, b).distance)
            pair_masks.append((da + w == db, db + w == da))
        apply_changeset_to_network(self.network, changeset)
        outcome = hierarchy.repair(
            self.network, changeset.edges(), damage_limit=limit
        )
        if outcome is None:
            self._note_rebuilt(result)
            return
        for a, b, w in decreases:
            da = np.asarray(shortest_path_tree(self.network, a).distance)
            db = np.asarray(shortest_path_tree(self.network, b).distance)
            pair_masks.append((da + w == db, db + w == da))
        dist_affected = np.zeros(n, dtype=bool)
        for toward_b, toward_a in pair_masks:
            dist_affected |= toward_b | toward_a
        closure = downward_closure(
            outcome.old_indptr,
            outcome.old_targets,
            hierarchy.up_indptr,
            hierarchy.up_targets,
            outcome.changed_up,
            n,
        )
        old_indptr, old_hubs, old_dists = self._spaces
        spaces = hierarchy.batch_search_spaces(
            mask=closure, base=self._spaces
        )
        new_indptr, new_hubs, new_dists = spaces
        space_affected = np.zeros(n, dtype=bool)
        for v in np.flatnonzero(closure):
            v = int(v)
            olo, ohi = int(old_indptr[v]), int(old_indptr[v + 1])
            nlo, nhi = int(new_indptr[v]), int(new_indptr[v + 1])
            if not (
                np.array_equal(old_hubs[olo:ohi], new_hubs[nlo:nhi])
                and np.array_equal(old_dists[olo:ohi], new_dists[nlo:nhi])
            ):
                space_affected[v] = True
        affected = dist_affected | space_affected
        affected_nodes = np.flatnonzero(affected)
        if len(affected_nodes) > self.relabel_threshold * n:
            self._note_rebuilt(result)
            return
        self._spaces = spaces
        if len(affected_nodes):
            self._redistill(
                affected,
                affected_nodes,
                (old_indptr, old_hubs, old_dists),
                pair_masks,
            )
            self._refresh_object_structures()
        self.metrics.counter("backend.hub.update.repaired").inc()
        self.metrics.counter("backend.hub.update.damaged_nodes").inc(
            outcome.damaged
        )
        self.metrics.counter("backend.hub.update.relabeled_nodes").inc(
            len(affected_nodes)
        )
        result.bump("repaired")
        result.bump("damaged_nodes", outcome.damaged)
        result.bump("relabeled_nodes", len(affected_nodes))
        affected_ranks = {
            rank
            for rank, object_node in enumerate(self.dataset)
            if affected[int(object_node)]
        }
        result.report.merge(
            UpdateReport(
                affected_objects=affected_ranks,
                changed_components=0,
                touched_nodes=int(len(affected_nodes)),
                recompressed_nodes=0,
            )
        )

    def _redistill(
        self,
        affected: np.ndarray,
        affected_nodes: np.ndarray,
        old_spaces: tuple[np.ndarray, np.ndarray, np.ndarray],
        pair_masks: list[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Recompute the labels of ``affected_nodes`` in place.

        The keep rule — retain a space entry iff its settled distance
        is exact — normally costs one label join per entry.  But for an
        entry ``(u, d)`` of node ``v`` whose true distance
        ``d_G(v, u)`` did not change (the pair does not straddle any
        changed edge, per ``pair_masks``), exactness is decided by
        comparing against the *old* space and label:

        * ``d`` unchanged from the old space → the old verdict stands
          (exact iff the entry survived the previous pruning);
        * ``d`` increased → it was ``≥ d_G(v, u)`` before and ``d_G``
          did not move, so it is now strictly inexact — drop;
        * ``d`` decreased, or the entry is new → it may have become
          exact; only these need a join.

        ``pair_masks`` guards those carried verdicts: ``d_G(v, u)``
        can change only if the realizing path crosses a changed edge,
        in which case its endpoints land on opposite directional masks
        of that edge.  Entries whose endpoints straddle a changed edge
        always go through the join, in blocks sized to stay on the
        batch kernel's workspace fast path.
        The joins run against the maintained unstalled space CSR with
        the exact same rule as ``build_labels`` (spaces are valid
        labels carrying exact entries), so the resulting label arrays
        match a full redistillation bit for bit.
        """
        n = self.network.num_nodes
        sp_indptr, sp_hubs, sp_dists = self._spaces
        old_sp_indptr, old_sp_hubs, old_sp_dists = old_spaces
        base = np.int64(n + 1)
        counts = sp_indptr[affected_nodes + 1] - sp_indptr[affected_nodes]
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        positions = (
            np.repeat(sp_indptr[affected_nodes], counts)
            + np.arange(total)
            - np.repeat(offsets, counts)
        )
        owner = np.repeat(affected_nodes.astype(np.int64), counts)
        entry_hubs = sp_hubs[positions]
        entry_dists = sp_dists[positions]
        # Node-prefixed keys make every lookup one global searchsorted
        # over arrays that are already sorted (CSRs are node-major and
        # hub-sorted within each node).
        keys = owner * base + entry_hubs
        old_keys = (
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(old_sp_indptr)
            ) * base
            + old_sp_hubs
        )
        at = np.minimum(
            np.searchsorted(old_keys, keys), max(len(old_keys) - 1, 0)
        )
        in_old = (
            old_keys[at] == keys if len(old_keys)
            else np.zeros(total, dtype=bool)
        )
        old_vals = np.where(in_old, old_sp_dists[at], np.nan)
        lab_keys = (
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.label_indptr)
            ) * base
            + self.label_hubs
        )
        at = np.minimum(
            np.searchsorted(lab_keys, keys), max(len(lab_keys) - 1, 0)
        )
        in_label = (
            lab_keys[at] == keys if len(lab_keys)
            else np.zeros(total, dtype=bool)
        )
        unchanged = in_old & (entry_dists == old_vals)
        pair_marked = np.zeros(total, dtype=bool)
        for toward_b, toward_a in pair_masks:
            pair_marked |= (toward_b[owner] & toward_a[entry_hubs]) | (
                toward_a[owner] & toward_b[entry_hubs]
            )
        carried = ~pair_marked & (
            unchanged | (in_old & (entry_dists > old_vals))
        )
        keep = carried & unchanged & in_label
        join_at = np.flatnonzero(~carried)
        for lo in range(0, len(join_at), _PRUNE_BLOCK_PAIRS):
            block = join_at[lo:lo + _PRUNE_BLOCK_PAIRS]
            exact = batch_label_join_csr(
                sp_indptr,
                sp_hubs,
                sp_dists,
                owner[block],
                entry_hubs[block].astype(np.int64),
            )
            keep[block] = ~(exact < entry_dists[block])
        self.metrics.counter("backend.hub.update.join_entries").inc(
            len(join_at)
        )
        kept_hubs = entry_hubs[keep]
        kept_dists = entry_dists[keep]
        bounds = np.r_[offsets, total]
        kept_counts = np.diff(np.searchsorted(np.flatnonzero(keep), bounds))
        kept_offsets = np.cumsum(kept_counts) - kept_counts
        old_indptr, old_hubs, old_dists = (
            self.label_indptr, self.label_hubs, self.label_dists,
        )
        new_counts = np.diff(old_indptr).copy()
        new_counts[affected_nodes] = kept_counts
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        label_hubs = np.empty(int(indptr[-1]), dtype=np.int32)
        label_dists = np.empty(int(indptr[-1]), dtype=np.float64)
        segment = dict(
            zip(
                (int(x) for x in affected_nodes),
                zip(kept_offsets, kept_counts),
            )
        )
        for v in range(n):
            lo = int(indptr[v])
            if affected[v]:
                klo, kn = segment[v]
                hubs = kept_hubs[klo:klo + kn]
                dists = kept_dists[klo:klo + kn]
            else:
                olo, ohi = int(old_indptr[v]), int(old_indptr[v + 1])
                hubs = old_hubs[olo:ohi]
                dists = old_dists[olo:ohi]
            label_hubs[lo:lo + len(hubs)] = hubs
            label_dists[lo:lo + len(hubs)] = dists
        self.label_indptr = indptr
        self.label_hubs = label_hubs
        self.label_dists = label_dists
        self._bind_backend_metrics(self.metrics)

    def _structure_bytes(self) -> int:
        return (
            self.order.nbytes
            + self.label_indptr.nbytes
            + self.label_hubs.nbytes
            + self.label_dists.nbytes
            + self.buckets.nbytes()
        )

    def stats(self) -> dict:
        report = super().stats()
        report["label_entries"] = self.num_label_entries
        report["mean_label_size"] = (
            self.num_label_entries / self.network.num_nodes
            if self.network.num_nodes
            else 0.0
        )
        report["settle_cap"] = self.settle_cap
        return report
