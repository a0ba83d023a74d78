"""The :class:`SignatureIndex` facade — the library's main entry point.

One object ties together everything the paper describes: the category
partition (§5.1), the signature table with backtracking links (§3.1), the
in-memory object-to-object distance table (§3.2.2), the encoding and
compression transforms (§5.2–5.3), the simulated CCAM-paged storage (§6.1),
the query algorithms (§4), and — when built with ``keep_trees=True`` — the
spanning trees and reverse edge index that power incremental updates
(§5.4).

Typical use::

    network = random_planar_network(5_000, seed=7)
    objects = uniform_dataset(network, density=0.01, seed=11)
    index = SignatureIndex.build(network, objects)

    index.knn(node=42, k=5)                      # type-3 kNN (Alg 6)
    index.range_query(node=42, radius=150.0)     # Alg 5
    index.distance(node=42, object_node=objects[0])   # Alg 1, exact
"""

from __future__ import annotations

import math
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core import operations, queries, update, vectorized
from repro.core.builder import (
    assemble_signature_data,
    run_construction_sweep,
)
from repro.core.categories import (
    CategoryPartition,
    optimal_partition,
    paper_evaluation_partition,
)
from repro.core.compression import (
    CompressionStats,
    compress_table,
    resolve_component,
)
from repro.core.queries import KnnType
from repro.core.signature import (
    DistanceRange,
    ObjectDistanceTable,
    SignatureComponent,
    SignatureTable,
)
from repro.core.spanning_tree import NO_PARENT, ObjectSpanningTrees
from repro.errors import DisconnectedError, IndexError_, QueryError
from repro.network.datasets import ObjectDataset
from repro.network.graph import RoadNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer, span_of
from repro.storage.buffer import LRUBufferPool
from repro.storage.layout import adjacency_record_bits, build_node_file
from repro.storage.pager import DEFAULT_PAGE_SIZE, PageAccessCounter

__all__ = ["SignatureIndex", "IndexStorageReport"]


class _NullScope:
    """The fast path of :meth:`SignatureIndex._scope`: nothing recorded."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SCOPE = _NullScope()

_SIZE_KINDS = ("raw", "encoded", "compressed")
_QUERY_ENGINES = ("vectorized", "scalar")
_KNN_REFINE_MODES = ("pruned", "legacy")


def _coerce_batch_nodes(nodes) -> list[int]:
    """Normalize a batch node argument to a plain ``list[int]``.

    Accepts any iterable of integers — lists, tuples, generators, numpy
    integer arrays (any width), numpy scalars — including the empty
    batch.  Rejects floats (even integral ones: a silently truncated
    node id is a wrong answer, not a convenience), multi-dimensional
    arrays, and non-numeric values with a :class:`QueryError`, which is
    also a :class:`ValueError` so service layers can map it to a 400.
    """
    if isinstance(nodes, np.ndarray):
        arr = nodes
    else:
        try:
            arr = np.asarray(list(nodes))
        except TypeError:
            raise QueryError(
                f"batch nodes must be an iterable of integers, got "
                f"{type(nodes).__name__}"
            ) from None
    if arr.ndim != 1:
        raise QueryError(
            f"batch nodes must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size == 0:
        return []
    if not np.issubdtype(arr.dtype, np.integer):
        raise QueryError(
            f"batch nodes must be integers, got dtype {arr.dtype}"
        )
    return [int(node) for node in arr]


def _coerce_radius(radius) -> float:
    """Validate a range radius: a finite, non-negative number."""
    try:
        radius = float(radius)
    except (TypeError, ValueError):
        raise QueryError(
            f"radius must be a number, got {radius!r}"
        ) from None
    if not math.isfinite(radius) or radius < 0:
        raise QueryError(
            f"range radius must be finite and non-negative, got {radius}"
        )
    return radius


def _coerce_k(k) -> int:
    """Validate a kNN ``k``: an integer >= 1 (floats are rejected)."""
    try:
        k = int(operator.index(k))
    except TypeError:
        raise QueryError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    return k


@dataclass(frozen=True, slots=True)
class IndexStorageReport:
    """On-disk and in-memory footprint of a signature index.

    All `*_bits` figures are signature payload sizes under the three
    §5.2/§5.3 representations; `signature_pages` reflects the
    representation the index actually stores (:attr:`stored_kind`).
    """

    raw_bits: int
    encoded_bits: int
    compressed_bits: int
    compressed_paper_bits: int
    stored_kind: str
    signature_pages: int
    adjacency_pages: int
    page_size: int
    object_table_bytes: int

    @property
    def encoded_ratio(self) -> float:
        """Encoded / raw size — Table 1 reports ≈ 0.74."""
        return self.encoded_bits / self.raw_bits if self.raw_bits else 0.0

    @property
    def compressed_ratio(self) -> float:
        """Compressed / encoded size for the self-delimiting flag layout."""
        return (
            self.compressed_bits / self.encoded_bits if self.encoded_bits else 0.0
        )

    @property
    def compressed_paper_ratio(self) -> float:
        """Compressed / encoded size under Table 1's accounting (0.75–0.90
        in the paper)."""
        return (
            self.compressed_paper_bits / self.encoded_bits
            if self.encoded_bits
            else 0.0
        )

    @property
    def total_bytes(self) -> int:
        """Index footprint: signature pages + adjacency pages."""
        return (self.signature_pages + self.adjacency_pages) * self.page_size


class SignatureIndex:
    """A distance-signature index over one network and one object dataset.

    Build with :meth:`build`; the constructor wires pre-assembled pieces
    and is mostly useful to tests.

    Concurrency
    -----------
    The facade is **not** thread-safe — even read-only queries mutate
    shared state: the page-access :attr:`counter`, the
    :attr:`decompressions` tally, the buffer pool, every metrics
    instrument, and the active tracer.
    Two constraints follow, and :mod:`repro.serve` is built around them:

    * concurrent *queries* must be serialized onto one thread (an asyncio
      event loop qualifies: facade calls are synchronous and never yield,
      so interleaving happens only at call boundaries) — this is exactly
      what makes request *coalescing* attractive: many logical clients,
      one ``range_query_batch`` sweep;
    * *updates* (§5.4) must additionally be ordered against in-flight
      query batches, because they rewrite signature rows and spanning
      trees non-atomically; :class:`repro.serve.UpdateCoordinator`
      provides the readers-writer lock for that.
    """

    def __init__(
        self,
        network: RoadNetwork,
        dataset: ObjectDataset,
        partition: CategoryPartition,
        table: SignatureTable,
        object_table: ObjectDistanceTable,
        *,
        trees: ObjectSpanningTrees | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        storage_strategy: str = "ccam",
        storage_schema: str = "separate",
        stored_kind: str = "compressed",
        buffer_pool: LRUBufferPool | None = None,
        query_engine: str = "vectorized",
        knn_refine: str = "pruned",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if stored_kind not in _SIZE_KINDS:
            raise IndexError_(
                f"stored_kind must be one of {_SIZE_KINDS}, got {stored_kind!r}"
            )
        if query_engine not in _QUERY_ENGINES:
            raise IndexError_(
                f"query_engine must be one of {_QUERY_ENGINES}, got "
                f"{query_engine!r}"
            )
        if knn_refine not in _KNN_REFINE_MODES:
            raise IndexError_(
                f"knn_refine must be one of {_KNN_REFINE_MODES}, got "
                f"{knn_refine!r}"
            )
        self.network = network
        self.dataset = dataset
        self.partition = partition
        self.table = table
        self.object_table = object_table
        self.trees = trees
        self.page_size = page_size
        self.storage_strategy = storage_strategy
        self.storage_schema = storage_schema
        self.stored_kind = stored_kind
        self.counter = PageAccessCounter()
        self.buffer_pool = buffer_pool
        self.decompressions = 0
        #: Outcome of §5.3 compression at build time; ``None`` when the
        #: index was assembled or loaded rather than built.
        self.compression_stats: CompressionStats | None = None
        self.query_engine = query_engine
        #: kNN boundary resolution: "pruned" routes through the
        #: bound-pruned shared-frontier core (repro.core.knn_refine),
        #: "legacy" keeps the pairwise Algorithm 2/4 resolution.  Results
        #: are bit-identical either way; only the I/O profile differs.
        self.knn_refine = knn_refine
        # Observability: an own registry (cheap, on by default — swap in
        # repro.obs.NULL_REGISTRY to disable), no tracer until trace().
        self.tracer: Tracer | None = None
        self.use_metrics(metrics if metrics is not None else MetricsRegistry())
        self._build_storage()

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
        backend: str = "auto",
        compress: bool = True,
        drop_last_category_pairs: bool = True,
        keep_trees: bool = False,
        page_size: int = DEFAULT_PAGE_SIZE,
        storage_strategy: str = "ccam",
        storage_schema: str = "separate",
        buffer_pool: LRUBufferPool | None = None,
        query_engine: str = "vectorized",
        knn_refine: str = "pruned",
        metrics: MetricsRegistry | None = None,
    ) -> "SignatureIndex":
        """Construct the index per §5.2 (+ §5.3 compression by default).

        ``partition`` may be an explicit :class:`CategoryPartition`, or a
        named policy derived from the construction sweep itself:

        * ``None`` / ``"optimal"`` — the §5.1-optimal exponential
          partition, with ``SP`` taken as the largest finite
          node-to-object distance observed (the widest query the network
          could pose);
        * ``"paper"`` — the §6.1 evaluation configuration (``c = e``,
          first boundary scaled so the spectrum is ~1000 boundaries deep,
          the regime where the Table 1 encoding gains appear).

        ``keep_trees`` retains the spanning trees and reverse edge index
        needed for §5.4 incremental updates.
        """
        registry = metrics if metrics is not None else MetricsRegistry()
        build_start = time.perf_counter()
        tree_distances, tree_parents = run_construction_sweep(
            network, dataset, backend=backend, registry=registry,
        )
        if partition is None or isinstance(partition, str):
            finite = tree_distances[np.isfinite(tree_distances)]
            max_distance = max(float(finite.max()) if finite.size else 1.0, 1.0)
            if partition in (None, "optimal"):
                partition = optimal_partition(max_distance)
            elif partition == "paper":
                partition = paper_evaluation_partition(max_distance)
            else:
                raise IndexError_(
                    f"unknown partition policy {partition!r}; use 'optimal' "
                    f"or 'paper'"
                )
        data = assemble_signature_data(
            network, dataset, partition, tree_distances, tree_parents
        )
        table = SignatureTable(
            partition,
            data.categories,
            data.links,
            max_degree=max(network.max_degree(), 1),
        )
        object_table = ObjectDistanceTable(
            data.object_distances,
            partition,
            drop_last_category=drop_last_category_pairs,
        )
        stats: CompressionStats | None = None
        if compress:
            stats = compress_table(table, object_table)
        trees = None
        if keep_trees:
            trees = ObjectSpanningTrees(
                dataset, data.tree_distances, data.tree_parents
            )
        index = cls(
            network,
            dataset,
            partition,
            table,
            object_table,
            trees=trees,
            page_size=page_size,
            storage_strategy=storage_strategy,
            storage_schema=storage_schema,
            stored_kind="compressed" if compress else "encoded",
            buffer_pool=buffer_pool,
            query_engine=query_engine,
            knn_refine=knn_refine,
            metrics=registry,
        )
        index.compression_stats = stats
        registry.gauge("construction.total_seconds").set(
            time.perf_counter() - build_start
        )
        return index

    def _build_storage(self) -> None:
        """(Re)place signature and adjacency records into paged files.

        §3.1 describes two schemas: the signature "can either be merged
        with the adjacency list, or stored separately".  ``storage_schema``
        selects between them:

        * ``"separate"`` (default) — two files; the adjacency list
          carries "a link physically pointing to the signature" so the
          signature stays "randomly accessible" (the figure 3.1 layout);
        * ``"merged"`` — one record per node holding both, "preferable"
          when "the signature is usually accessed together with the
          adjacency list": a backtracking hop then touches a single
          record.
        """
        sizer = {
            "raw": self.table.raw_record_bits,
            "encoded": self.table.encoded_record_bits,
            "compressed": self.table.compressed_record_bits,
        }[self.stored_kind]
        if self.storage_schema == "merged":
            merged = build_node_file(
                self.network,
                "merged",
                lambda node: sizer(node)
                + adjacency_record_bits(self.network.degree(node)),
                counter=self.counter,
                page_size=self.page_size,
                spanning=True,
                strategy=self.storage_strategy,
                buffer_pool=self.buffer_pool,
            )
            self._signature_layout = merged
            self._adjacency_layout = merged
        elif self.storage_schema == "separate":
            self._signature_layout = build_node_file(
                self.network,
                "signatures",
                sizer,
                counter=self.counter,
                page_size=self.page_size,
                spanning=True,
                strategy=self.storage_strategy,
                buffer_pool=self.buffer_pool,
            )
            self._adjacency_layout = build_node_file(
                self.network,
                "adjacency",
                lambda node: adjacency_record_bits(self.network.degree(node)),
                counter=self.counter,
                page_size=self.page_size,
                spanning=False,
                strategy=self.storage_strategy,
                buffer_pool=self.buffer_pool,
            )
        else:
            raise IndexError_(
                f"unknown storage schema {self.storage_schema!r}; use "
                f"'separate' or 'merged'"
            )

    def refresh_storage(self) -> None:
        """Re-pack the paged files after incremental updates changed sizes."""
        self._build_storage()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @contextmanager
    def trace(self):
        """Record a span tree for everything run inside the block.

        Yields a :class:`repro.obs.Tracer` bound to this index's page
        counter; every query/update issued while the block is open adds a
        root span (with per-phase child spans from the engines).  The
        tracer stays readable after the block closes::

            with index.trace() as tracer:
                index.knn(42, 5)
            print(repro.obs.render_trace(tracer))
        """
        tracer = Tracer(self.counter)
        previous = self.tracer
        self.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = previous

    def use_metrics(self, registry: MetricsRegistry) -> None:
        """Swap the metrics registry and rebind every cached instrument.

        Pass :data:`repro.obs.NULL_REGISTRY` to disable metric recording
        entirely (the hot paths then reduce to one attribute check).
        """
        self.metrics = registry
        self._metric_backtrack_hops = registry.counter("backtrack.hops")
        self._metric_compare_rounds = registry.counter("compare.rounds")
        self._metric_refine_pruned = registry.counter("knn_refine.pruned")
        self._metric_refine_refined = registry.counter("knn_refine.refined")
        self._metric_refine_reuse = registry.counter(
            "knn_refine.frontier_hits"
        )

    def _scope(self, kind: str, *, count: int = 1, counter=None, **attrs):
        """One instrumented region: a ``kind``-named span plus metrics.

        The returned context manager yields the span (a shared no-op when
        neither a tracer nor an enabled registry is present, so untraced
        hot paths pay one attribute check).  ``count`` divides the
        recorded time/pages for batch entry points, keeping every
        histogram in per-query units.
        """
        if self.tracer is None and not self.metrics.enabled:
            return _NULL_SCOPE
        return self._observed(kind, count=count, counter=counter, attrs=attrs)

    @contextmanager
    def _observed(self, kind: str, *, count: int, counter, attrs: dict):
        counter = self.counter if counter is None else counter
        pool = self.buffer_pool
        pool_snap = pool.snapshot() if pool is not None else None
        snap = counter.snapshot()
        start = time.perf_counter()
        with span_of(self, kind, **attrs) as span:
            yield span
            elapsed = time.perf_counter() - start
            delta = counter.delta(snap)
            if pool_snap is not None and span is not NULL_SPAN:
                pool_delta = pool.delta(pool_snap)
                span.set("buffer_hits", pool_delta.hits)
                span.set("buffer_misses", pool_delta.misses)
        metrics = self.metrics
        metrics.counter(f"{kind}.count").inc(count)
        if count > 0:
            metrics.histogram(f"{kind}.seconds").observe(elapsed / count)
            metrics.histogram(f"{kind}.pages").observe(delta.logical / count)

    def _record_update(self, span, report: update.UpdateReport):
        """Fold an update report into metrics and the active span."""
        metrics = self.metrics
        metrics.counter("update.changed_components").inc(
            report.changed_components
        )
        metrics.counter("update.touched_nodes").inc(report.touched_nodes)
        metrics.counter("update.recompressed_nodes").inc(
            report.recompressed_nodes
        )
        if span is not NULL_SPAN:
            span.set("affected_objects", len(report.affected_objects))
            span.set("changed_components", report.changed_components)
            span.set("touched_nodes", report.touched_nodes)
            span.set("recompressed_nodes", report.recompressed_nodes)
        return report

    # ------------------------------------------------------------------
    # SignatureIndexProtocol (I/O-charged primitives)
    # ------------------------------------------------------------------
    def component(self, node: int, rank: int) -> SignatureComponent:
        """Logical component of object ``rank`` at ``node`` (CPU only)."""
        if self.table.compressed[node, rank]:
            self.decompressions += 1
        return resolve_component(self.table, self.object_table, node, rank)

    def touch_signature(self, node: int) -> None:
        """Charge the pages of ``node``'s signature record."""
        self._signature_layout.file.read(node)

    def touch_adjacency(self, node: int) -> None:
        """Charge the pages of ``node``'s adjacency record."""
        self._adjacency_layout.file.read(node)

    # ------------------------------------------------------------------
    # distances (§3.2)
    # ------------------------------------------------------------------
    def rank_of(self, object_node: int) -> int:
        """Dataset rank of the object living on ``object_node``."""
        return self.dataset.rank(object_node)

    def distance(self, node: int, object_node: int) -> float:
        """Exact network distance from ``node`` to the object at
        ``object_node`` (Algorithm 1)."""
        with self._scope("query.distance", node=node):
            return operations.retrieve_distance(
                self, node, self.rank_of(object_node)
            )

    def distance_batch(self, nodes, object_nodes) -> list[float]:
        """One distance per aligned ``(nodes[i], object_nodes[i])`` pair.

        Unlike scalar :meth:`distance` — which raises
        :class:`~repro.errors.DisconnectedError` — a disconnected pair
        yields ``math.inf``, so one unreachable element cannot poison a
        coalesced batch (the ``DistanceIndex`` batch contract).
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
                try:
                    out.append(operations.retrieve_distance(self, node, rank))
                except DisconnectedError:
                    out.append(math.inf)
            return out

    def distance_range(
        self, node: int, object_node: int, delta: tuple[float, float]
    ) -> DistanceRange:
        """Approximate retrieval (Algorithm 1 with ∆ = ``delta``)."""
        lo, hi = delta
        return operations.retrieve_distance_range(
            self, node, self.rank_of(object_node), DistanceRange(lo, hi)
        )

    def compare(
        self, node: int, object_a: int, object_b: int, *, exact: bool = True
    ) -> int:
        """Compare ``d(node, a)`` with ``d(node, b)`` (Algorithms 2/3).

        Returns −1/0/1.  The approximate variant (``exact=False``) may
        return 0 for "no decision".
        """
        rank_a, rank_b = self.rank_of(object_a), self.rank_of(object_b)
        if exact:
            return operations.compare_exact(self, node, rank_a, rank_b)
        return operations.compare_approximate(self, node, rank_a, rank_b)

    def sort_objects(self, node: int, object_nodes: list[int]) -> list[int]:
        """The objects sorted by distance from ``node`` (Algorithm 4)."""
        ranks = [self.rank_of(obj) for obj in object_nodes]
        ordered = operations.sort_by_distance(self, node, ranks)
        return [self.dataset[rank] for rank in ordered]

    # ------------------------------------------------------------------
    # queries (§4)
    # ------------------------------------------------------------------
    @property
    def _queries(self):
        """The active query implementation module (engine dispatch)."""
        return queries if self.query_engine == "scalar" else vectorized

    def range_query(
        self, node: int, radius: float, *, with_distances: bool = False
    ):
        """Objects within ``radius`` of ``node`` (Algorithm 5), as nodes.

        Returns object node ids — or ``(object_node, distance)`` pairs
        with ``with_distances``.
        """
        with self._scope("query.range", node=node, radius=radius) as span:
            result = self._queries.range_query(
                self, node, radius, with_distances=with_distances
            )
            span.set("results", len(result))
        if with_distances:
            return [(self.dataset[rank], d) for rank, d in result]
        return [self.dataset[rank] for rank in result]

    def range_query_batch(
        self, nodes, radius: float, *, with_distances: bool = False
    ):
        """One range query per node of ``nodes``, in one vectorized pass.

        Returns a list (aligned with ``nodes``) of per-query results in
        the same shape :meth:`range_query` produces.  Available on either
        engine; the scalar engine simply loops.

        ``nodes`` may be any iterable of integers (list, tuple, numpy
        integer array), including empty; ``radius`` must be a finite
        number >= 0.  Violations raise :class:`~repro.errors.QueryError`
        (a :class:`ValueError`).
        """
        nodes = _coerce_batch_nodes(nodes)
        radius = _coerce_radius(radius)
        with self._scope(
            "query.range_batch", count=len(nodes), radius=radius
        ) as span:
            if self.query_engine != "scalar":
                batched = vectorized.range_query_batch(
                    self, nodes, radius, with_distances=with_distances
                )
            else:
                batched = [
                    queries.range_query(
                        self, int(node), radius, with_distances=with_distances
                    )
                    for node in nodes
                ]
            span.set("queries", len(batched))
        if with_distances:
            return [
                [(self.dataset[rank], d) for rank, d in result]
                for result in batched
            ]
        return [
            [self.dataset[rank] for rank in result] for result in batched
        ]

    def knn(self, node: int, k: int, *, knn_type: KnnType = KnnType.SET):
        """The k nearest objects to ``node`` (Algorithm 6), as nodes.

        Type 1 returns ``(object_node, distance)`` pairs in ascending
        order; types 2/3 return object node lists (ordered / unordered).
        """
        with self._scope(
            "query.knn", node=node, k=k, knn_type=knn_type.name
        ) as span:
            result = self._queries.knn_query(self, node, k, knn_type=knn_type)
            span.set("results", len(result))
        if knn_type is KnnType.EXACT_DISTANCES:
            return [(self.dataset[rank], d) for rank, d in result]
        return [self.dataset[rank] for rank in result]

    def knn_batch(self, nodes, k: int, *, knn_type: KnnType = KnnType.SET):
        """One kNN query per node of ``nodes``, in one vectorized pass.

        Input handling matches :meth:`range_query_batch`: any iterable of
        integers (including empty) for ``nodes``; ``k`` must be an
        integer >= 1, enforced with a :class:`~repro.errors.QueryError`
        (a :class:`ValueError`).
        """
        nodes = _coerce_batch_nodes(nodes)
        k = _coerce_k(k)
        with self._scope("query.knn_batch", count=len(nodes), k=k) as span:
            if self.query_engine != "scalar":
                batched = vectorized.knn_query_batch(
                    self, nodes, k, knn_type=knn_type
                )
            else:
                batched = [
                    queries.knn_query(self, node, k, knn_type=knn_type)
                    for node in nodes
                ]
            span.set("queries", len(batched))
        if knn_type is KnnType.EXACT_DISTANCES:
            return [
                [(self.dataset[rank], d) for rank, d in result]
                for result in batched
            ]
        return [
            [self.dataset[rank] for rank in result] for result in batched
        ]

    def knn_approximate(self, node: int, k: int) -> list[int]:
        """Approximate kNN from the signature alone — one record of I/O.

        Boundary-category ties are resolved by observer voting instead of
        exact backtracking; see
        :func:`repro.core.queries.approximate_knn_query`.
        """
        with self._scope("query.knn_approximate", node=node, k=k) as span:
            result = queries.approximate_knn_query(self, node, k)
            span.set("results", len(result))
        return [self.dataset[rank] for rank in result]

    def aggregate_range(
        self, node: int, radius: float, aggregate: str = "count"
    ) -> float:
        """Aggregate over the objects within ``radius`` of ``node`` (§4.3)."""
        with self._scope(
            "query.aggregate_range", node=node, radius=radius,
            aggregate=aggregate,
        ):
            return self._queries.aggregate_range(self, node, radius, aggregate)

    def epsilon_join(
        self, other: "SignatureIndex", epsilon: float
    ) -> list[tuple[int, int]]:
        """ε-join with another dataset's index on the same network (§4.3).

        Returns ``(node_a, node_b)`` object-node pairs.
        """
        # The join's page charges land on ``other``'s counter (range
        # queries run against index_b), so meter that one.
        with self._scope(
            "query.epsilon_join", epsilon=epsilon, counter=other.counter
        ) as span:
            pairs = self._queries.epsilon_join(self, other, epsilon)
            span.set("pairs", len(pairs))
        return [
            (self.dataset[rank_a], other.dataset[rank_b])
            for rank_a, rank_b in pairs
        ]

    def knn_join(
        self, other: "SignatureIndex", k: int
    ) -> list[tuple[int, list[int]]]:
        """kNN-join with another dataset's index on the same network (§4.3).

        Returns ``(node_a, [node_b, ...])`` pairs: each of this dataset's
        objects with its k nearest objects of ``other``.
        """
        with self._scope(
            "query.knn_join", k=k, counter=other.counter
        ) as span:
            joined = self._queries.knn_join(self, other, k)
            span.set("pairs", len(joined))
        return [
            (self.dataset[rank_a], [other.dataset[r] for r in ranks])
            for rank_a, ranks in joined
        ]

    # ------------------------------------------------------------------
    # updates (§5.4)
    # ------------------------------------------------------------------
    def apply_updates(self, changeset):
        """Apply a validated :class:`~repro.core.changeset.ChangeSet`.

        The batch entry point of the unified update pipeline: the whole
        changeset is validated against the network *before* any tree or
        signature mutates, then each delta runs the §5.4 incremental
        machinery in canonical order.  Both query engines share this
        path — they read the same signature arrays the §5.4 functions
        maintain.
        """
        from repro.core.changeset import ApplyResult, as_changeset

        changeset = as_changeset(changeset)
        changeset.validate(self.network)
        result = ApplyResult()
        with self._scope("update.apply", deltas=len(changeset)) as span:
            for delta in changeset:
                if delta.op == "add":
                    report = update.add_edge(
                        self, delta.u, delta.v, delta.weight
                    )
                elif delta.op == "remove":
                    report = update.remove_edge(self, delta.u, delta.v)
                else:
                    report = update.set_edge_weight(
                        self, delta.u, delta.v, delta.weight
                    )
                self._record_update(span, report)
                result.report.merge(report)
                result.applied += 1
        result.bump("incremental", len(changeset))
        self.metrics.counter("core.update.applied").inc(len(changeset))
        return result

    def add_edge(self, u: int, v: int, weight: float) -> update.UpdateReport:
        """Insert an edge and incrementally maintain the index (§5.4.1)."""
        with self._scope("update.add_edge", u=u, v=v) as span:
            return self._record_update(span, update.add_edge(self, u, v, weight))

    def remove_edge(self, u: int, v: int) -> update.UpdateReport:
        """Remove an edge and incrementally maintain the index (§5.4.2)."""
        with self._scope("update.remove_edge", u=u, v=v) as span:
            return self._record_update(span, update.remove_edge(self, u, v))

    def set_edge_weight(self, u: int, v: int, weight: float) -> update.UpdateReport:
        """Re-weight an edge; dispatches to §5.4.1 or §5.4.2 as needed."""
        with self._scope("update.set_edge_weight", u=u, v=v) as span:
            return self._record_update(
                span, update.set_edge_weight(self, u, v, weight)
            )

    def add_node(
        self, x: float, y: float, edges: list[tuple[int, float]]
    ) -> tuple[int, update.UpdateReport]:
        """Insert a node with incident edges (§5.4's reduction)."""
        with self._scope("update.add_node") as span:
            node, report = update.add_node(self, x, y, edges)
            self._record_update(span, report)
            return node, report

    def remove_node(self, node: int) -> update.UpdateReport:
        """Remove a (non-object) node by deleting its edges (§5.4)."""
        with self._scope("update.remove_node", node=node) as span:
            return self._record_update(span, update.remove_node(self, node))

    def add_object(self, node: int) -> update.UpdateReport:
        """Insert a new dataset object at ``node`` (one Dijkstra sweep)."""
        with self._scope("update.add_object", node=node) as span:
            return self._record_update(span, update.add_object(self, node))

    def remove_object(self, node: int) -> update.UpdateReport:
        """Remove the dataset object at ``node``."""
        with self._scope("update.remove_object", node=node) as span:
            return self._record_update(span, update.remove_object(self, node))

    def knn_at(self, location, k: int):
        """kNN from a position on an edge (§1's on-segment decomposition).

        ``location`` is a :class:`repro.core.edge_queries.EdgeLocation`;
        returns ``(object_node, distance)`` pairs, ascending.
        """
        from repro.core.edge_queries import knn_at

        with self._scope("query.knn_at", k=k):
            result = knn_at(self, location, k)
        return [(self.dataset[rank], d) for rank, d in result]

    def range_query_at(self, location, radius: float):
        """Range query from a position on an edge; ``(node, distance)``."""
        from repro.core.edge_queries import range_query_at

        with self._scope("query.range_at", radius=radius):
            result = range_query_at(self, location, radius)
        return [(self.dataset[rank], d) for rank, d in result]

    def _grow_for_node(self, node: int) -> None:
        """Extend every per-node / per-tree array for a freshly added node."""
        if node != self.table.categories.shape[0]:
            raise IndexError_(
                f"new node id {node} does not extend the signature table "
                f"(expected {self.table.categories.shape[0]})"
            )
        num_objects = self.table.categories.shape[1]
        unreachable = self.partition.unreachable
        self.table.categories = np.vstack(
            [
                self.table.categories,
                np.full((1, num_objects), unreachable, dtype=self.table.categories.dtype),
            ]
        )
        self.table.links = np.vstack(
            [self.table.links, np.full((1, num_objects), -2, dtype=self.table.links.dtype)]
        )
        self.table.compressed = np.vstack(
            [self.table.compressed, np.zeros((1, num_objects), dtype=bool)]
        )
        if self.table.bases is not None:
            self.table.bases = np.vstack(
                [self.table.bases, np.full((1, num_objects), -1, dtype=np.int32)]
            )
        if self.trees is not None:
            self.trees.distances = np.hstack(
                [self.trees.distances, np.full((len(self.dataset), 1), np.inf)]
            )
            self.trees.parents = np.hstack(
                [
                    self.trees.parents,
                    np.full((len(self.dataset), 1), NO_PARENT, dtype=np.int32),
                ]
            )
        # The fresh node has no storage record yet; re-pack so that queries
        # touching it can be charged.
        self.refresh_storage()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def storage_report(self) -> IndexStorageReport:
        """Sizes under all three representations plus page footprints."""
        return IndexStorageReport(
            raw_bits=self.table.total_bits("raw"),
            encoded_bits=self.table.total_bits("encoded"),
            compressed_bits=self.table.total_bits("compressed"),
            compressed_paper_bits=self.table.total_bits("compressed-paper"),
            stored_kind=self.stored_kind,
            signature_pages=self._signature_layout.file.num_pages,
            adjacency_pages=(
                0
                if self._adjacency_layout is self._signature_layout
                else self._adjacency_layout.file.num_pages
            ),
            page_size=self.page_size,
            object_table_bytes=self.object_table.size_bytes(),
        )

    def stats(self) -> dict:
        """Structural summary as plain data (CLI ``stats``, dashboards).

        The same shape :meth:`~repro.shard.sharded.ShardedSignatureIndex.stats`
        returns, with ``type="monolithic"`` and a single implicit shard.
        """
        report = self.storage_report()
        return {
            "type": "monolithic",
            "shards": 1,
            "nodes": self.network.num_nodes,
            "edges": self.network.num_edges,
            "objects": len(self.dataset),
            "categories": self.partition.num_categories,
            "stored": self.stored_kind,
            "query_engine": self.query_engine,
            "knn_refine": self.knn_refine,
            "signature_pages": report.signature_pages,
            "adjacency_pages": report.adjacency_pages,
            "object_table_bytes": report.object_table_bytes,
        }

    def reset_counters(self) -> None:
        """Zero the page-access counter and decompression tally."""
        self.counter.reset()
        self.decompressions = 0
        if self.buffer_pool is not None:
            self.buffer_pool.clear()

    def verify(self, *, sample_nodes: int = 16, seed: int = 0) -> None:
        """Self-check: signature distances agree with fresh Dijkstra runs.

        Samples ``sample_nodes`` nodes and asserts the exact retrieval of
        every object's distance matches ground truth.  Raises
        :class:`~repro.errors.IndexError_` on mismatch.  Intended for
        tests and post-update sanity checks, not hot paths.
        """
        from repro.network.dijkstra import shortest_path_tree

        rng = np.random.default_rng(seed)
        nodes = rng.choice(
            self.network.num_nodes,
            size=min(sample_nodes, self.network.num_nodes),
            replace=False,
        )
        for rank, object_node in enumerate(self.dataset):
            tree = shortest_path_tree(self.network, object_node)
            for node in nodes:
                node = int(node)
                truth = tree.distance[node]
                if math.isinf(truth):
                    if self.component(node, rank).category != self.partition.unreachable:
                        raise IndexError_(
                            f"node {node} object {rank}: expected unreachable"
                        )
                    continue
                got = operations.retrieve_distance(self, node, rank)
                if got != truth:
                    raise IndexError_(
                        f"node {node} object {rank}: signature distance "
                        f"{got} != Dijkstra {truth}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SignatureIndex(nodes={self.network.num_nodes}, "
            f"objects={len(self.dataset)}, "
            f"categories={self.partition.num_categories}, "
            f"stored={self.stored_kind!r})"
        )
