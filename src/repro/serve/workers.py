"""Worker-process side of multi-process serving.

The server process owns the authoritative index.  When
``ServeConfig.workers > 1`` it snapshots that index once in the
version-2 columnar format and forks a
:class:`~concurrent.futures.ProcessPoolExecutor` whose initializer calls
:func:`init_worker` on the snapshot directory.  Because v2 loading is
``np.memmap`` in copy-on-write mode, every worker maps the *same* bytes:
the signature matrix, links, and object distance table live once in the
kernel page cache no matter how many workers serve from them, and no
index is ever pickled across the process boundary.

Consistency with §5.4 live updates uses an epoch-stamped replay log.
The coordinator bumps ``epoch`` and appends one
``(epoch, "changeset", deltas, 0, None)`` entry per applied changeset;
every batch dispatched to the pool
carries the coordinator's current epoch plus the log tail, and
:func:`run_batch` replays any entries this worker has not yet applied
before answering.  Copy-on-write mapping makes the replay private: the
snapshot file on disk is never modified.  Ordering is inherited from the
readers-writer lock on the server — a batch's ``(epoch, log)`` pair is
captured under the read side, so it can never observe a half-applied
update.

Sharded serving (``--shards K``) uses the second half of this module:
the server snapshots a
:class:`~repro.shard.sharded.ShardedSignatureIndex` once in format v3
and starts K single-process pools whose initializer
:func:`init_shard_worker` maps *only* ``shard-NNNN/`` — each worker is
resident for ~1/K of the signature payload.  Workers answer
:func:`run_shard_rows` (exact local spanning-tree distance columns for
nodes they own); the coordinator stitches those rows across shards and
runs result selection itself.  Update replay is ownership-filtered
(:func:`_catch_up_shard`): intra-shard edges apply locally, a cut-edge
insertion promotes the local endpoint to a pseudo object (§5.4), and
cut-edge reweights/removals — which only move the coordinator's
boundary overlay — advance the epoch without touching the shard.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from repro.core.queries import KnnType

__all__ = [
    "init_worker",
    "warm",
    "run_batch",
    "init_shard_worker",
    "warm_shard",
    "run_shard_rows",
]


def _collect_telemetry(index, epoch: int, page_snap, busy_s: float, tracer):
    """The per-batch telemetry payload returned alongside results.

    The cross-process half of the PR-2 observability layer: the worker's
    registry delta (:meth:`~repro.obs.metrics.MetricsRegistry.drain` —
    exact, so coordinator-side merges sum to single-process ground
    truth), the page-counter delta for this batch, the applied epoch
    (the coordinator's staleness signal), worker-side execution time,
    and the batch's compact span trees for slow-query capture.
    """
    delta = index.counter.delta(page_snap)
    return {
        "epoch": epoch,
        # Process identity: pool labels alias many processes under one
        # name, and log compaction needs the min acknowledged epoch over
        # *processes*, not labels (see TelemetryCollector).
        "pid": os.getpid(),
        "busy_s": busy_s,
        "metrics": index.metrics.drain(),
        "pages": {"logical": delta.logical, "physical": delta.physical},
        "spans": tracer.to_dicts(),
    }

#: Process-global worker state: the mmapped index and the epoch of the
#: last replayed update.  A pool initializer populates it once per
#: worker process.
_STATE: dict = {"index": None, "epoch": 0}


def init_worker(index_dir: str) -> None:
    """Pool initializer: mmap the snapshot at ``index_dir``.

    ``load_index`` dispatches on the snapshot's magic line, so workers
    come up with whatever backend the snapshot declares — signature v2
    or any ``repro.backends`` family.
    """
    from repro.core.persistence import load_index

    _STATE["index"] = load_index(index_dir)
    _STATE["epoch"] = 0


def warm() -> int:
    """Startup barrier: proves the initializer ran; returns the epoch."""
    if _STATE["index"] is None:
        raise RuntimeError("worker not initialized (init_worker did not run)")
    return _STATE["epoch"]


def _unapplied(applied: int, epoch: int, log):
    """The changesets of ``log`` that move a replica from ``applied`` to
    ``epoch``, as ``(entry_epoch, deltas)`` in log order.

    ``log`` holds ``(entry_epoch, "changeset", deltas, 0, None)`` entries
    sorted by epoch, ``deltas`` being the changeset's ``(op, u, v,
    weight)`` tuples.  Entries at or below ``applied`` are skipped,
    entries beyond the batch's target ``epoch`` are ignored (they belong
    to updates that committed after this batch was gated).  Raises when
    the log no longer reaches back to ``applied``.
    """
    reached = applied
    for entry_epoch, _, deltas, _, _ in log:
        if entry_epoch <= applied or entry_epoch > epoch:
            continue
        yield entry_epoch, deltas
        reached = entry_epoch
    if reached < epoch:
        raise RuntimeError(
            f"worker cannot reach epoch {epoch} from {reached}: "
            f"update log was truncated"
        )


def _catch_up(index, epoch: int, log) -> None:
    """Replay the changesets this worker has not applied yet, through the
    same ``apply_updates`` pipeline the coordinator used."""
    if _STATE["epoch"] >= epoch:
        return
    for entry_epoch, deltas in _unapplied(_STATE["epoch"], epoch, log):
        index.apply_updates(deltas)
        _STATE["epoch"] = entry_epoch


def run_batch(epoch: int, log, kind: str, nodes, params) -> tuple:
    """Execute one coalesced batch at ``epoch`` in this worker process.

    Mirrors ``QueryServer._dispatch_batch``: ``kind`` is ``"range"``
    (params ``(radius, with_distances)``) or ``"knn"`` (params
    ``(k, with_distances)``).  Returns ``(results, telemetry)`` —
    ``results`` aligned with ``nodes``, ``telemetry`` the payload of
    :func:`_collect_telemetry` for coordinator-side folding.
    """
    index = _STATE["index"]
    if index is None:
        raise RuntimeError("worker not initialized (init_worker did not run)")
    _catch_up(index, epoch, log)
    page_snap = index.counter.snapshot()
    start = perf_counter()
    with index.trace() as tracer:
        if kind == "range":
            radius, with_distances = params
            results = index.range_query_batch(
                nodes, radius, with_distances=with_distances
            )
        else:
            k, with_distances = params
            knn_type = (
                KnnType.EXACT_DISTANCES if with_distances else KnnType.SET
            )
            results = index.knn_batch(nodes, k, knn_type=knn_type)
    busy = perf_counter() - start
    telemetry = _collect_telemetry(
        index, _STATE["epoch"], page_snap, busy, tracer
    )
    return results, telemetry


# ----------------------------------------------------------------------
# sharded serving: one worker process per shard (format v3 snapshots)
# ----------------------------------------------------------------------

#: Process-global shard-worker state: the single mapped shard
#: (:class:`~repro.shard.persistence.ShardWorkerState`) and the epoch of
#: the last replayed update.
_SHARD_STATE: dict = {"worker": None, "epoch": 0}


def init_shard_worker(index_dir: str, shard_id: int) -> None:
    """Pool initializer: mmap shard ``shard_id`` of a v3 snapshot.

    Only the shard's own ``shard-NNNN/`` directory (plus the small
    node-to-shard assignment vector) is mapped — the worker's resident
    footprint is the shard's ~1/K slice of the index.
    """
    from repro.shard.persistence import load_shard_worker

    _SHARD_STATE["worker"] = load_shard_worker(index_dir, shard_id)
    _SHARD_STATE["epoch"] = 0


def warm_shard() -> int:
    """Startup barrier for shard pools; returns the applied epoch."""
    if _SHARD_STATE["worker"] is None:
        raise RuntimeError(
            "shard worker not initialized (init_shard_worker did not run)"
        )
    return _SHARD_STATE["epoch"]


def _apply_shard_delta(worker, op: str, u, v, weight) -> None:
    """Route one edge delta to this shard (see :func:`_catch_up_shard`)."""
    index = worker.index
    u_in, v_in = worker.in_shard(u), worker.in_shard(v)
    if u_in and v_in:
        lu, lv = worker.local_of[u], worker.local_of[v]
        if op == "add":
            index.add_edge(lu, lv, weight)
        elif op == "remove":
            index.remove_edge(lu, lv)
        else:
            index.set_edge_weight(lu, lv, weight)
    elif op == "add" and (u_in or v_in):
        node = u if u_in else v
        if node not in worker.pseudo_rank:
            index.add_object(worker.local_of[node])
            worker.pseudo_rank[node] = len(worker.pseudo_rank)


def _catch_up_shard(worker, epoch: int, log) -> None:
    """Ownership-filtered replay of the coordinator's update log.

    Same epoch window as :func:`_catch_up`, but each entry is routed:

    * both endpoints in this shard → apply to the shard index with local
      node ids (the §5.4 incremental machinery);
    * cut-edge ``add`` with one local endpoint → promote that endpoint
      to a pseudo object unless it already is one (appended last, the
      same deterministic order the coordinator used);
    * everything else (cut-edge reweight/removal, foreign edges) only
      moves the coordinator's boundary overlay — nothing to do here.

    Every entry advances the applied epoch regardless of ownership, so
    the worker stays in lockstep with the coordinator's log.
    """
    if _SHARD_STATE["epoch"] >= epoch:
        return
    for entry_epoch, deltas in _unapplied(_SHARD_STATE["epoch"], epoch, log):
        # Deltas are canonically ordered, so every replica promotes
        # pseudo objects in the same order.
        for op, u, v, weight in deltas:
            _apply_shard_delta(worker, op, u, v, weight)
        _SHARD_STATE["epoch"] = entry_epoch


def run_shard_rows(epoch: int, log, local_nodes) -> tuple:
    """Exact local distance columns for ``local_nodes`` at ``epoch``.

    Each returned row is the shard spanning-tree distance vector
    ``trees.distances[:, local]`` (pseudo-object order) — the input
    :func:`repro.shard.sharded.stitch_row` turns into the global answer
    on the coordinator.  Returns ``(rows, telemetry)`` so the
    coordinator can fold this shard's metric delta under its own label.
    """
    worker = _SHARD_STATE["worker"]
    if worker is None:
        raise RuntimeError(
            "shard worker not initialized (init_shard_worker did not run)"
        )
    _catch_up_shard(worker, epoch, log)
    index = worker.index
    page_snap = index.counter.snapshot()
    start = perf_counter()
    with index.trace() as tracer:
        rows = []
        for local in local_nodes:
            index.touch_signature(int(local))
            rows.append(
                np.array(
                    index.trees.distances[:, int(local)], dtype=np.float64
                )
            )
    busy = perf_counter() - start
    telemetry = _collect_telemetry(
        index, _SHARD_STATE["epoch"], page_snap, busy, tracer
    )
    return rows, telemetry
