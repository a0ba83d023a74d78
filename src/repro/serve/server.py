"""The asyncio JSON-over-HTTP query service.

Pure stdlib: ``asyncio.start_server`` plus a minimal HTTP/1.1
request/response implementation (keep-alive, Content-Length framing — the
subset a JSON API and a load generator need).  One process serves one
:class:`~repro.core.index.SignatureIndex`; everything runs on one event
loop, which is what makes inline index calls safe (see the facade's
"Concurrency" section) and request coalescing effective.

Endpoints (GET with query-string parameters or POST with a JSON body;
the body wins where both supply a key):

======================  ====================================================
``GET/POST /v1/range``      ``node, radius, with_distances?`` → objects
``GET/POST /v1/knn``        ``node, k, with_distances?`` → objects
``GET/POST /v1/distance``   ``node, object`` → exact network distance
``GET/POST /v1/aggregate``  ``node, radius, aggregate?`` → scalar
``POST /v1/edges``          ``op(add|remove|set_weight), u, v, weight?``
``GET /healthz``            liveness + admission state + worker epochs
``GET /metrics``            Prometheus text exposition (PR-2 exporter)
``GET /v1/debug``           recent slow queries + per-worker health
======================  ====================================================

Every query answer carries ``"approximate"``: ``false`` on the exact
path, ``true`` when admission control degraded the request to the §3.2
category-only answer, and ``"request_id"`` — the identity assigned at
ingress (or supplied by the client via ``X-Request-Id``), echoed in the
``X-Request-Id`` response header next to a ``Server-Timing`` header
whose ``queue``/``coalesce``/``execute``/``stitch`` durations partition
the request's wall time.  Shed requests get 429 (queue full) or 503
(overload / deadline) with a ``Retry-After`` header.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import multiprocessing
import signal
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.core.queries import KnnType
from repro.core.vectorized import category_bound_arrays, decode_signature_row
from repro.errors import QueryError, ReproError
from repro.obs.export import metrics_to_prometheus
from repro.serve import workers as worker_mod
from repro.serve.admission import AdmissionController, Rejected, deadline_scope
from repro.serve.batching import BatchKey, Coalescer
from repro.serve.config import ServeConfig
from repro.serve.coordinator import UpdateCoordinator
from repro.serve.telemetry import (
    RequestContext,
    SlowQueryLog,
    TelemetryCollector,
)

logger = logging.getLogger("repro.serve")

__all__ = ["QueryServer", "approximate_range", "run_server"]

#: Largest accepted request body; a query is a handful of scalars.
_MAX_BODY = 1 << 20


# ----------------------------------------------------------------------
# degraded-mode answers (§3.2 category-only)
# ----------------------------------------------------------------------
def approximate_range(index, node: int, radius: float) -> list[int]:
    """Category-only range answer: one signature record, no backtracking.

    Returns the object nodes whose category *could* lie within
    ``radius`` (lower bound <= radius) — exactly the §3.2 approximate
    semantics: the answer errs only inside the boundary category, every
    returned object is at most one category band beyond the radius, and
    no closer object is missed.
    """
    index.touch_signature(node)
    row = decode_signature_row(index, node)
    lbs, _ = category_bound_arrays(index.partition)
    hits = np.flatnonzero(lbs[row] <= radius)
    return [index.dataset[int(rank)] for rank in hits]


# ----------------------------------------------------------------------
# parameter extraction
# ----------------------------------------------------------------------
class _BadRequest(Exception):
    """Maps to HTTP 400 with its message."""


class _FramingError(Exception):
    """A request whose body cannot be framed: answered with ``status``,
    then the connection closes (the stream position is unknown)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _require(params: dict, name: str):
    try:
        return params[name]
    except KeyError:
        raise _BadRequest(f"missing required parameter {name!r}") from None


def _as_int(value, name: str) -> int:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, float) and value != int(value):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise _BadRequest(f"parameter {name!r} must be an integer") from None


def _as_float(value, name: str) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError
        result = float(value)
    except (TypeError, ValueError):
        raise _BadRequest(f"parameter {name!r} must be a number") from None
    if math.isnan(result):
        raise _BadRequest(f"parameter {name!r} must not be NaN")
    return result


def _as_bool(value, name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "1", "yes"):
        return True
    if isinstance(value, str) and value.lower() in ("false", "0", "no"):
        return False
    raise _BadRequest(f"parameter {name!r} must be a boolean")


def _json_safe(value: float):
    """JSON has no inf/nan: unreachable distances serialize as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class QueryServer:
    """One served index: HTTP front end, coalescer, admission, updates.

    Lifecycle::

        server = QueryServer(index, ServeConfig(port=0))
        await server.start()          # server.port now holds the real port
        ...
        await server.shutdown()       # graceful: drains in-flight requests

    or, blocking until SIGTERM/SIGINT: ``await server.serve_forever()``.
    """

    def __init__(self, index, config: ServeConfig | None = None) -> None:
        self.index = index
        self.config = config or ServeConfig()
        registry = index.metrics
        self.admission = AdmissionController(self.config, registry=registry)
        self.coordinator = UpdateCoordinator(index, registry=registry)
        self.coalescer = Coalescer(
            self._dispatch_batch,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            gate=self.coordinator.read,
            registry=registry,
        )
        self.telemetry = TelemetryCollector(registry)
        self.slow_log = SlowQueryLog(
            self.config.slow_query_ms,
            path=self.config.slow_query_log,
            capacity=self.config.debug_ring,
        )
        self._metric_requests = registry.counter("serve.requests")
        self._metric_errors = registry.counter("serve.errors")
        self._registry = registry
        from repro.backends import backend_of

        # Build-info gauge: the exporter has no labels, so the backend
        # name rides in the metric name (repro_serve_build_info_backend_*).
        self.backend = backend_of(index)
        registry.gauge(f"serve.build_info.backend.{self.backend}").set(1)
        self._server: asyncio.AbstractServer | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._shard_pools: list[ProcessPoolExecutor | None] | None = None
        self._snapshot_tmp: tempfile.TemporaryDirectory | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self.host = self.config.host
        self.port = self.config.port

    # -- batched dispatch ----------------------------------------------
    def _dispatch_batch(self, key: BatchKey, nodes, batch=None):
        """Fan one coalesced batch out to the engine.

        Single-process (the default): calls the vectorized batch entry
        points inline and returns the list.  With a worker pool or shard
        pools: returns a coroutine the coalescer awaits while still
        holding the coordinator's read gate, so the ``(epoch, log)``
        pair captured at dispatch stays consistent until the answer
        lands.  ``batch`` (the coalescer's bucket, when provided) gets
        execution telemetry attached — page counts, span trees, worker
        identity — for the member requests' slow-query records.
        """
        if key.kind == "distance":
            # Distance batches always execute on the coordinator index
            # (the scalar path never used the pools either): the hub
            # backend answers the whole batch in one vectorized
            # label-join kernel pass, and every other index loops its
            # scalar primitive.
            return self._execute_local_batch(key, nodes, batch)
        if self._shard_pools is not None:
            return self._dispatch_shard_batch(key, list(nodes), batch)
        if self._pool is not None:
            return self._dispatch_pool_batch(key, list(nodes), batch)
        return self._execute_local_batch(key, nodes, batch)

    def _execute_local_batch(self, key: BatchKey, nodes, batch=None) -> list:
        """Single-process execution with inline telemetry capture.

        Tracing is scoped to the batch only when slow-query capture is
        on; the page-counter snapshot pair is two integer reads, cheap
        enough to take unconditionally.
        """
        index = self.index
        snap = index.counter.snapshot()
        trace_cm = (
            index.trace()
            if (batch is not None and self.slow_log.enabled)
            else None
        )
        tracer = trace_cm.__enter__() if trace_cm is not None else None
        try:
            if key.kind == "range":
                radius, with_distances = key.params
                results = index.range_query_batch(
                    nodes, radius, with_distances=with_distances
                )
            elif key.kind == "distance":
                # Batch members are (node, object_node) pairs; the
                # batch contract maps disconnected pairs to inf, so one
                # unreachable pair cannot fail the whole batch.
                pairs = list(nodes)
                results = index.distance_batch(
                    [pair[0] for pair in pairs],
                    [pair[1] for pair in pairs],
                )
            else:
                k, with_distances = key.params
                knn_type = (
                    KnnType.EXACT_DISTANCES if with_distances else KnnType.SET
                )
                results = index.knn_batch(nodes, k, knn_type=knn_type)
        finally:
            if trace_cm is not None:
                trace_cm.__exit__(None, None, None)
        if batch is not None:
            delta = index.counter.delta(snap)
            batch.attach_execution(
                pages_logical=delta.logical,
                pages_physical=delta.physical,
                spans=tracer.to_dicts() if tracer is not None else None,
                worker_label="local",
                epoch=self.coordinator.epoch,
            )
        return results

    async def _dispatch_pool_batch(
        self, key: BatchKey, nodes: list, batch=None
    ) -> list:
        """Flat-pool execution: one worker process answers the batch.

        The worker returns ``(results, telemetry)``; the telemetry delta
        folds into the server registry under the ``worker`` label —
        additive across the pool, so summed worker counters equal the
        single-process ground truth (per-process identity inside a
        ``ProcessPoolExecutor`` is deliberately not exposed).
        """
        epoch = self.coordinator.epoch
        loop = asyncio.get_running_loop()
        results, telemetry = await loop.run_in_executor(
            self._pool,
            worker_mod.run_batch,
            epoch,
            tuple(self.coordinator.update_log),
            key.kind,
            nodes,
            key.params,
        )
        self.telemetry.fold("worker", telemetry, coordinator_epoch=epoch)
        self._maybe_compact()
        if batch is not None:
            pages = telemetry.get("pages", {})
            batch.attach_execution(
                pages_logical=pages.get("logical", 0),
                pages_physical=pages.get("physical", 0),
                spans=telemetry.get("spans"),
                worker_label="worker",
                epoch=telemetry.get("epoch"),
            )
        return results

    async def _dispatch_shard_batch(
        self, key: BatchKey, nodes: list, batch=None
    ) -> list:
        """Shard-routed execution of one coalesced batch.

        Nodes are grouped by owning shard and each group goes to that
        shard's worker process, which answers exact local spanning-tree
        rows at the batch's epoch.  Stitching across shards and result
        selection run here on the coordinator — identical math to
        :meth:`ShardedSignatureIndex._exact_row`, so answers are exactly
        the monolithic ones.  Each shard's telemetry payload folds into
        the registry under ``shard{N}``, so ``/metrics`` breaks worker
        cost down per shard.
        """
        from repro.core.builder import categorize_array
        from repro.shard.sharded import (
            select_knn,
            select_range,
            stitch_row,
            stitched_knn_row,
        )

        index = self.index
        epoch = self.coordinator.epoch
        log = tuple(self.coordinator.update_log)
        loop = asyncio.get_running_loop()
        by_shard: dict[int, list[int]] = {}
        for node in nodes:
            by_shard.setdefault(int(index.assignment[node]), []).append(node)
        futures = {}
        for shard_id, members in by_shard.items():
            pool = self._shard_pools[shard_id]
            if pool is None:  # empty shard: no index, every row is inf
                continue
            locals_ = [int(index.local_index[node]) for node in members]
            futures[shard_id] = loop.run_in_executor(
                pool, worker_mod.run_shard_rows, epoch, log, locals_
            )
        # kNN batches skip remote shards whose lower bound loses to the
        # k-th upper bound (same rule as ShardedSignatureIndex._knn_row);
        # skipped objects can never reach the answer, so it stays exact.
        prune_k = None
        if key.kind != "range" and index.knn_refine == "pruned":
            prune_k = key.params[0]
        shards_skipped = 0
        pages_logical = pages_physical = 0
        spans: list = []
        labels: list[str] = []
        worker_epoch: int | None = None
        stitched: dict[int, np.ndarray] = {}
        for shard_id, members in by_shard.items():
            future = futures.get(shard_id)
            if future is None:
                for node in members:
                    stitched[node] = np.full(len(index.dataset), np.inf)
                continue
            rows, telemetry = await future
            label = f"shard{shard_id}"
            self.telemetry.fold(label, telemetry, coordinator_epoch=epoch)
            pages = telemetry.get("pages", {})
            pages_logical += int(pages.get("logical", 0))
            pages_physical += int(pages.get("physical", 0))
            spans.extend(telemetry.get("spans") or ())
            labels.append(label)
            shard_epoch = telemetry.get("epoch")
            if shard_epoch is not None and (
                worker_epoch is None or shard_epoch < worker_epoch
            ):
                worker_epoch = shard_epoch
            for node, row in zip(members, rows):
                if prune_k is not None:
                    out, skipped = stitched_knn_row(
                        index, shard_id, row, prune_k
                    )
                    stitched[node] = out
                    shards_skipped += skipped
                else:
                    stitched[node] = stitch_row(index, shard_id, row)
        self._maybe_compact()
        if shards_skipped and self._registry.enabled:
            self._registry.counter("knn_refine.shards_skipped").inc(
                shards_skipped
            )
        if batch is not None:
            batch.attach_execution(
                pages_logical=pages_logical,
                pages_physical=pages_physical,
                spans=spans or None,
                worker_label="+".join(sorted(labels)) if labels else None,
                epoch=worker_epoch,
            )
        results = []
        if key.kind == "range":
            radius, with_distances = key.params
            for node in nodes:
                hits = select_range(
                    index, stitched[node], radius,
                    with_distances=with_distances,
                )
                if with_distances:
                    results.append(
                        [(index.dataset[rank], d) for rank, d in hits]
                    )
                else:
                    results.append([index.dataset[rank] for rank in hits])
            return results
        k, with_distances = key.params
        knn_type = KnnType.EXACT_DISTANCES if with_distances else KnnType.SET
        for node in nodes:
            out = stitched[node]
            cats = categorize_array(index.partition, out)
            hits = select_knn(index, out, cats, k, knn_type)
            if with_distances:
                results.append([(index.dataset[rank], d) for rank, d in hits])
            else:
                results.append([index.dataset[rank] for rank in hits])
        return results

    def _approx_range(self, node: int, radius: float) -> list[int]:
        """Degraded range answer for whichever index type is served."""
        if hasattr(self.index, "approximate_range"):
            return self.index.approximate_range(node, radius)
        return approximate_range(self.index, node, radius)

    def _check_node(self, node: int) -> int:
        """Per-request node validation, *before* batching.

        A bad node must 400 its own request — never poison the shared
        batch it would have joined.
        """
        if not 0 <= node < self.index.network.num_nodes:
            raise _BadRequest(
                f"node {node} does not exist "
                f"(network has {self.index.network.num_nodes} nodes)"
            )
        return node

    # -- endpoint handlers ---------------------------------------------
    async def _serve_coalesced(
        self, key: BatchKey, node: int, degradable_payload, ctx=None
    ) -> tuple[int, dict]:
        """Admission → (degraded | coalesced exact) → response payload.

        ``degradable_payload()`` computes the category-only answer under
        the read lock when admission control asks for degraded service.
        ``ctx`` (the request's :class:`RequestContext`) rides into the
        coalescer so the batch records its membership and stage marks.
        """
        degraded = self.admission.admit(degradable=True)
        with self.admission.slot():
            if degraded:
                if ctx is not None:
                    ctx.mark_submit()
                async with self.coordinator.read():
                    if ctx is not None:
                        ctx.mark_dispatch()
                    payload = degradable_payload()
                if ctx is not None:
                    ctx.mark_execute()
                payload["approximate"] = True
                return 200, payload
            try:
                async with deadline_scope(self.config.deadline_ms / 1_000.0):
                    result = await self.coalescer.submit(key, node, ctx)
            except TimeoutError:
                raise self.admission.timed_out() from None
            return 200, {"result": result, "approximate": False}

    async def _handle_range(self, params: dict, ctx=None) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        radius = _as_float(_require(params, "radius"), "radius")
        with_distances = _as_bool(
            params.get("with_distances", False), "with_distances"
        )
        if radius < 0:
            raise _BadRequest(f"radius must be >= 0, got {radius}")
        key = BatchKey("range", (radius, with_distances))
        status, payload = await self._serve_coalesced(
            key,
            node,
            lambda: {"objects": self._approx_range(node, radius)},
            ctx,
        )
        if "result" in payload:
            result = payload.pop("result")
            if with_distances:
                result = [[obj, _json_safe(d)] for obj, d in result]
            payload["objects"] = result
        payload.update(node=node, radius=radius)
        return status, payload

    async def _handle_knn(self, params: dict, ctx=None) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        k = _as_int(_require(params, "k"), "k")
        with_distances = _as_bool(
            params.get("with_distances", False), "with_distances"
        )
        if k < 1:
            raise _BadRequest(f"k must be >= 1, got {k}")
        key = BatchKey("knn", (k, with_distances))
        status, payload = await self._serve_coalesced(
            key,
            node,
            lambda: {"objects": self.index.knn_approximate(node, k)},
            ctx,
        )
        if "result" in payload:
            result = payload.pop("result")
            if with_distances:
                result = [[obj, _json_safe(d)] for obj, d in result]
            payload["objects"] = result
        payload.update(node=node, k=k)
        return status, payload

    async def _handle_distance(
        self, params: dict, ctx=None
    ) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        object_node = _as_int(_require(params, "object"), "object")
        # Validate the object *before* joining a shared batch: a bad
        # object must 400 its own request (DatasetError -> 400), never
        # poison the batch it would have joined.
        self.index.dataset.rank(object_node)
        self.admission.admit()
        with self.admission.slot():
            try:
                async with deadline_scope(self.config.deadline_ms / 1_000.0):
                    distance = await self.coalescer.submit(
                        BatchKey("distance", ()), (node, object_node), ctx
                    )
                    if isinstance(distance, float) and math.isinf(distance):
                        # The batch contract maps disconnected pairs to
                        # inf; re-ask the scalar path so each backend
                        # keeps its established semantics (signature
                        # family: DisconnectedError -> 400; hierarchy
                        # backends: inf -> JSON null).
                        async with self.coordinator.read():
                            distance = self.index.distance(
                                node, object_node
                            )
            except TimeoutError:
                raise self.admission.timed_out() from None
        return 200, {
            "node": node,
            "object": object_node,
            "distance": _json_safe(distance),
            "approximate": False,
        }

    async def _handle_aggregate(
        self, params: dict, ctx=None
    ) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        radius = _as_float(_require(params, "radius"), "radius")
        aggregate = str(params.get("aggregate", "count"))
        if radius < 0:
            raise _BadRequest(f"radius must be >= 0, got {radius}")
        self.admission.admit()
        with self.admission.slot():
            if ctx is not None:
                ctx.mark_submit()
            try:
                async with deadline_scope(self.config.deadline_ms / 1_000.0):
                    async with self.coordinator.read():
                        if ctx is not None:
                            ctx.mark_dispatch()
                        value = self.index.aggregate_range(
                            node, radius, aggregate
                        )
                    if ctx is not None:
                        ctx.mark_execute()
            except TimeoutError:
                raise self.admission.timed_out() from None
        return 200, {
            "node": node,
            "radius": radius,
            "aggregate": aggregate,
            "value": _json_safe(value),
            "approximate": False,
        }

    async def _handle_edges(self, params: dict) -> tuple[int, dict]:
        op = str(_require(params, "op"))
        u = _as_int(_require(params, "u"), "u")
        v = _as_int(_require(params, "v"), "v")
        weight = params.get("weight")
        if weight is not None:
            weight = _as_float(weight, "weight")
        result = await self.coordinator.apply(op, u, v, weight)
        self._maybe_compact()
        report = result.report
        return 200, {
            "op": op,
            "u": u,
            "v": v,
            "epoch": result.epoch,
            "applied": result.applied,
            "counters": dict(result.counters),
            "affected_objects": sorted(report.affected_objects),
            "changed_components": report.changed_components,
            "touched_nodes": report.touched_nodes,
            "recompressed_nodes": report.recompressed_nodes,
        }

    async def _handle_edges_sample(self, params: dict) -> tuple[int, dict]:
        """``GET /v1/edges`` — a deterministic sample of live edges.

        Write-mode load generation needs edge identities to perturb
        without shipping the whole network; ``seed`` makes the sample
        reproducible across runs and ``limit`` bounds the payload.  The
        sample is taken under the read lock so it never observes a
        half-applied update.
        """
        limit = _as_int(params.get("limit", 256), "limit")
        seed = _as_int(params.get("seed", 0), "seed")
        if limit < 1:
            raise _BadRequest(f"limit must be >= 1, got {limit}")
        async with self.coordinator.read():
            edges = [
                (int(e.u), int(e.v), float(e.weight))
                for e in self.index.network.edges()
            ]
        if limit < len(edges):
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(edges), size=limit, replace=False)
            edges = [edges[int(i)] for i in np.sort(picks)]
        return 200, {
            "edges": [[u, v, w] for u, v, w in edges],
            "count": len(edges),
            "epoch": self.coordinator.epoch,
        }

    def _maybe_compact(self) -> None:
        """Drop update-log entries every worker has acknowledged.

        Single-process serving keeps no replaying workers, so the log
        compacts to the current epoch outright.  With pools, the bound
        is the minimum epoch over every expected worker *process*
        (:meth:`TelemetryCollector.min_acknowledged_epoch`) — ``None``
        (a worker that has not reported yet) defers compaction, and
        :func:`repro.serve.workers._catch_up` raising on a truncated
        log is the backstop if this invariant is ever broken.
        """
        if not self.coordinator.update_log:
            return
        if self._shard_pools is not None:
            expected = {
                f"shard{shard_id}": 1
                for shard_id, pool in enumerate(self._shard_pools)
                if pool is not None
            }
        elif self._pool is not None:
            expected = {"worker": self.config.workers}
        else:
            self.coordinator.compact(self.coordinator.epoch)
            return
        acknowledged = self.telemetry.min_acknowledged_epoch(expected)
        if acknowledged is not None:
            self.coordinator.compact(acknowledged)

    def _handle_healthz(self) -> tuple[int, dict]:
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "pending": self.admission.pending,
            "coalescer_buffered": self.coalescer.pending,
            "latency_ewma_ms": round(self.admission.ewma_ms, 3),
            "degraded": self.admission.ewma_ms
            > self.config.degrade_latency_ms,
            "nodes": self.index.network.num_nodes,
            "objects": len(self.index.dataset),
            "backend": self.backend,
            "workers": self.config.workers,
            "shards": getattr(self.index, "num_shards", 1),
            # §5.4 staleness at a glance: the coordinator's update epoch
            # and, per worker label, the epoch each worker last replayed
            # (populated lazily — a worker appears after its first batch).
            "epoch": self.coordinator.epoch,
            "epochs": dict(sorted(self.telemetry.epochs.items())),
            # Distance scale of the served index: remote clients (the
            # load generator in particular) need it to form radii that
            # land in a chosen category band.
            "partition_boundaries": [
                float(b) for b in self.index.partition.boundaries
            ],
        }
        return (503 if self._draining else 200), payload

    def _handle_debug(self) -> tuple[int, dict]:
        """Recent slow queries + per-worker health (``GET /v1/debug``)."""
        epoch = self.coordinator.epoch
        payload = {
            "epoch": epoch,
            "slow_query_threshold_ms": self.slow_log.threshold_ms,
            "slow_queries_recorded": self.slow_log.recorded,
            "slow_queries": self.slow_log.recent(),
            "workers": self.telemetry.health(epoch),
            "pending": self.admission.pending,
            "coalescer_buffered": self.coalescer.pending,
        }
        return 200, payload

    # -- HTTP plumbing -------------------------------------------------
    async def _route(
        self, method: str, path: str, params: dict, ctx=None
    ) -> tuple[int, dict | str, str]:
        """Dispatch one parsed request; returns (status, body, content_type)."""
        self._metric_requests.inc()
        try:
            if path == "/healthz":
                status, payload = self._handle_healthz()
                return status, payload, "application/json"
            if path == "/metrics":
                return 200, metrics_to_prometheus(self._registry), "text/plain"
            if path == "/v1/debug":
                status, payload = self._handle_debug()
                return status, payload, "application/json"
            if self._draining:
                return (
                    503,
                    {"error": "draining"},
                    "application/json",
                )
            if path == "/v1/range":
                status, payload = await self._handle_range(params, ctx)
            elif path == "/v1/knn":
                status, payload = await self._handle_knn(params, ctx)
            elif path == "/v1/distance":
                status, payload = await self._handle_distance(params, ctx)
            elif path == "/v1/aggregate":
                status, payload = await self._handle_aggregate(params, ctx)
            elif path == "/v1/edges":
                if method == "GET":
                    status, payload = await self._handle_edges_sample(params)
                elif method == "POST":
                    status, payload = await self._handle_edges(params)
                else:
                    return (
                        405,
                        {"error": "GET or POST required"},
                        "application/json",
                    )
            else:
                return 404, {"error": f"no route {path!r}"}, "application/json"
            return status, payload, "application/json"
        except Rejected as exc:
            return exc.status, {"error": exc.reason}, "application/json"
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, "application/json"
        except (ReproError, ValueError) as exc:
            return 400, {"error": str(exc)}, "application/json"
        except asyncio.CancelledError:
            raise
        except Exception:
            logger.exception("internal error handling %s %s", method, path)
            self._metric_errors.inc()
            return 500, {"error": "internal error"}, "application/json"

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; None at EOF / on a broken header block.

        A ``Content-Length`` that is not a non-negative integer raises
        :class:`_FramingError` (400), one above ``_MAX_BODY`` raises it
        with 413, so the client gets a reply instead of a dropped
        connection.

        The whole header block is consumed with a single ``readuntil``
        (one await on a warm keep-alive connection) — this path runs for
        every request, and line-by-line reads measurably cap served
        throughput.
        """
        try:
            block = await reader.readuntil(b"\r\n\r\n")
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            return None
        lines = block.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _FramingError(
                400, f"invalid Content-Length {raw_length!r}"
            )
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _FramingError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    @staticmethod
    def _parse_params(target: str, body: bytes) -> tuple[str, dict]:
        """Merge query-string and JSON-body parameters (body wins)."""
        if "?" in target:
            split = urlsplit(target)
            path = split.path
            params: dict = dict(parse_qsl(split.query))
        else:
            path = target
            params = {}
        if body:
            try:
                decoded = json.loads(body)
            except json.JSONDecodeError:
                raise _BadRequest("request body is not valid JSON") from None
            if not isinstance(decoded, dict):
                raise _BadRequest("request body must be a JSON object")
            params.update(decoded)
        return path, params

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as exc:
                    await self._write_response(
                        writer,
                        exc.status,
                        {"error": str(exc)},
                        "application/json",
                        close=True,
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                ctx = RequestContext(
                    target.partition("?")[0],
                    request_id=headers.get("x-request-id") or None,
                )
                params: dict = {}
                try:
                    path, params = self._parse_params(target, body)
                    ctx.path = path
                    self._active_requests += 1
                    try:
                        status, payload, content_type = await self._route(
                            method, path, params, ctx
                        )
                    finally:
                        self._active_requests -= 1
                except _BadRequest as exc:
                    status, payload, content_type = (
                        400,
                        {"error": str(exc)},
                        "application/json",
                    )
                if isinstance(payload, dict):
                    payload.setdefault("request_id", ctx.request_id)
                close = (
                    headers.get("connection", "").lower() == "close"
                    or self._draining
                )
                ctx.mark_done()
                await self._write_response(
                    writer,
                    status,
                    payload,
                    content_type,
                    close=close,
                    extra_headers=(
                        f"X-Request-Id: {ctx.request_id}\r\n"
                        f"Server-Timing: {ctx.server_timing_header()}\r\n"
                    ),
                )
                if ctx.path.startswith("/v1/"):
                    self.slow_log.maybe_record(
                        ctx, status=status, params=params
                    )
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    _REASONS = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        413: "Content Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    #: Pre-rendered status lines (shed responses carry Retry-After).
    _STATUS_LINES = {
        status: (
            f"HTTP/1.1 {status} {reason}\r\n"
            + ("Retry-After: 1\r\n" if status in (429, 503) else "")
        ).encode()
        for status, reason in _REASONS.items()
    }

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        content_type: str,
        *,
        close: bool,
        extra_headers: str = "",
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode()
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
        head = self._STATUS_LINES.get(
            status, f"HTTP/1.1 {status} Unknown\r\n".encode()
        )
        writer.write(
            head
            + (
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra_headers}"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()

    # -- lifecycle -----------------------------------------------------
    def _start_pool(self) -> None:
        """Snapshot the index (its natural format) and fork the worker pool.

        Every worker memory-maps the one snapshot (copy-on-write), so
        N workers cost one page-cache copy of the index and zero pickle
        traffic.  The primary keeps its in-memory index for the
        non-batched endpoints (``/v1/distance``, ``/v1/aggregate``,
        degraded answers) and for applying §5.4 updates.
        """
        snapshot = self._snapshot_path()
        from repro.core.persistence import save_index

        # Natural-format dispatch: v2 for a monolithic signature index,
        # the backend's own registered format for repro.backends indexes
        # — workers load whatever magic the snapshot declares.
        save_index(self.index, snapshot)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=ctx,
            initializer=worker_mod.init_worker,
            initargs=(str(snapshot),),
        )
        # Startup barrier: fail fast (and not on the first query) if the
        # snapshot cannot be mapped.
        for future in [
            self._pool.submit(worker_mod.warm)
            for _ in range(self.config.workers)
        ]:
            future.result()
        logger.info(
            "worker pool up: %d processes mapping %s",
            self.config.workers,
            snapshot,
        )

    def _snapshot_path(self) -> Path:
        if self.config.snapshot_dir is not None:
            snapshot = Path(self.config.snapshot_dir)
            snapshot.mkdir(parents=True, exist_ok=True)
            return snapshot
        self._snapshot_tmp = tempfile.TemporaryDirectory(
            prefix="repro-serve-"
        )
        return Path(self._snapshot_tmp.name)

    def _start_shard_pools(self) -> None:
        """Snapshot the sharded index (format v3) and fork K shard pools.

        One single-process pool per shard: each worker maps *only* its
        own ``shard-NNNN/`` directory, so resident memory per worker is
        ~1/K of the monolithic footprint.  Batches route nodes to their
        owning shard's pool; the coordinator stitches.
        """
        num_shards = self.index.num_shards
        if self.config.workers != num_shards:
            raise QueryError(
                f"serving a {num_shards}-shard index needs exactly one "
                f"worker per shard: set workers={num_shards}, got "
                f"{self.config.workers}"
            )
        snapshot = self._snapshot_path()
        from repro.core.persistence import save_index

        save_index(self.index, snapshot, format=3)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        self._shard_pools = []
        for shard_id in range(num_shards):
            if self.index.shards[shard_id].index is None:
                self._shard_pools.append(None)
                continue
            self._shard_pools.append(
                ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=ctx,
                    initializer=worker_mod.init_shard_worker,
                    initargs=(str(snapshot), shard_id),
                )
            )
        # Startup barrier: every shard worker must map its shard now,
        # not on the first query.
        for pool in self._shard_pools:
            if pool is not None:
                pool.submit(worker_mod.warm_shard).result()
        logger.info(
            "shard pools up: %d single-process pools mapping %s",
            num_shards,
            snapshot,
        )

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        if (
            self.config.workers > 1
            and self._pool is None
            and self._shard_pools is None
        ):
            if getattr(self.index, "num_shards", 1) > 1:
                self._start_shard_pools()
            else:
                self._start_pool()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.host, self.port = sock.getsockname()[:2]
            break
        logger.info("serving on http://%s:%s", self.host, self.port)

    async def shutdown(self) -> None:
        """Graceful stop: refuse new work, drain in-flight, then close.

        The drain order matters: stop accepting connections, flush the
        coalescer so buffered requests still get answers, wait (bounded
        by ``drain_timeout_s``) for active requests, then drop idle
        keep-alive connections.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        logger.info("draining: %d active requests", self._active_requests)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.coalescer.drain()
        deadline = asyncio.get_running_loop().time() + self.config.drain_timeout_s
        while (
            self._active_requests > 0
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.005)
            await self.coalescer.drain()
        for writer in list(self._connections):
            writer.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._shard_pools is not None:
            for pool in self._shard_pools:
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
            self._shard_pools = None
        if self._snapshot_tmp is not None:
            self._snapshot_tmp.cleanup()
            self._snapshot_tmp = None
        self.slow_log.close()
        self._stopped.set()
        logger.info(
            "drained (%d requests abandoned)", max(self._active_requests, 0)
        )

    async def serve_forever(self) -> None:
        """Start, install SIGTERM/SIGINT handlers, and block until drained."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        await self.shutdown()


async def run_server(index, config: ServeConfig | None = None) -> QueryServer:
    """Start a :class:`QueryServer` and return it (tests / embedding)."""
    server = QueryServer(index, config)
    await server.start()
    return server
