"""Sharded multi-process serving: one worker per shard, exact stitching.

Mirrors :mod:`tests.test_serve_workers` for the sharded path: K shard
pools mapping one v3 snapshot must be invisible to clients, and the
coordinator's §5.4 update log must be replayed (ownership-filtered) by
every shard worker before it answers.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro.core import KnnType, SignatureIndex, save_index
from repro.errors import QueryError
from repro.network import random_planar_network, uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.serve import QueryServer, ServeClient, ServeConfig
from repro.serve import workers as worker_mod
from repro.shard import ShardedSignatureIndex

QUERY_NODES = [0, 17, 42, 128, 250, 299]


@contextlib.asynccontextmanager
async def serving(index, **overrides):
    config = ServeConfig(port=0).replace(**overrides)
    server = QueryServer(index, config)
    await server.start()
    client = ServeClient(server.host, server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.shutdown()


def _build_pair():
    network = random_planar_network(300, seed=42)
    dataset = uniform_dataset(network, density=0.04, seed=7)
    sharded = ShardedSignatureIndex.build(
        network, dataset, num_shards=4, backend="scipy"
    )
    return network, dataset, sharded


def _entry(epoch, op, u, v, weight):
    """A one-delta update-log entry, as the coordinator appends it."""
    return (epoch, "changeset", ((op, u, v, weight),), 0, None)


class TestShardWorkerModule:
    """Shard worker entry points, in-process (no fork needed)."""

    def test_uninitialized_worker_refuses(self):
        worker_mod._SHARD_STATE["worker"] = None
        with pytest.raises(RuntimeError, match="not initialized"):
            worker_mod.run_shard_rows(0, (), [0])
        with pytest.raises(RuntimeError, match="not initialized"):
            worker_mod.warm_shard()

    def test_init_rows_and_filtered_catch_up(self, tmp_path):
        network, dataset, sharded = _build_pair()
        save_index(sharded, tmp_path / "snap")
        shard_id = next(
            s.shard_id for s in sharded.shards if s.index is not None
        )
        shard = sharded.shards[shard_id]
        worker_mod.init_shard_worker(str(tmp_path / "snap"), shard_id)
        try:
            assert worker_mod.warm_shard() == 0
            worker = worker_mod._SHARD_STATE["worker"]
            locals_ = [0, 1, int(shard.global_nodes.size - 1)]
            rows, telemetry = worker_mod.run_shard_rows(0, (), locals_)
            assert telemetry["epoch"] == 0
            assert telemetry["busy_s"] >= 0.0
            assert telemetry["pages"]["logical"] >= len(locals_)
            for local, row in zip(locals_, rows):
                assert np.array_equal(
                    row, shard.index.trees.distances[:, local]
                )

            # Intra-shard reweight: applied with local ids.
            edge = next(
                e
                for e in network.edges()
                if int(sharded.assignment[e.u]) == shard_id
                and int(sharded.assignment[e.v]) == shard_id
            )
            sharded.set_edge_weight(edge.u, edge.v, edge.weight * 3.0)
            log = [_entry(1, "set_weight", edge.u, edge.v, edge.weight * 3.0)]

            # Cut-edge reweight: a no-op for the shard, but the epoch
            # still advances in lockstep with the coordinator.
            cut = next(
                e
                for e in network.edges()
                if sharded.assignment[e.u] != sharded.assignment[e.v]
            )
            sharded.set_edge_weight(cut.u, cut.v, cut.weight * 2.0)
            log.append(_entry(2, "set_weight", cut.u, cut.v, cut.weight * 2.0))

            rows, telemetry = worker_mod.run_shard_rows(
                2, tuple(log), locals_
            )
            assert worker_mod._SHARD_STATE["epoch"] == 2
            assert telemetry["epoch"] == 2
            for local, row in zip(locals_, rows):
                assert np.array_equal(
                    row, shard.index.trees.distances[:, local]
                )

            # New cut edge with one local interior endpoint: the worker
            # promotes it to a pseudo object, same order as the
            # coordinator.
            u = next(
                int(g)
                for g in shard.global_nodes
                if int(g) not in shard.pseudo_rank
            )
            v = next(
                n
                for n in range(network.num_nodes)
                if int(sharded.assignment[n]) != shard_id
                and not network.has_edge(u, n)
            )
            sharded.add_edge(u, v, 6.0)
            log.append(_entry(3, "add", u, v, 6.0))
            worker_mod.run_shard_rows(3, tuple(log), locals_)
            assert u in worker.pseudo_rank
            assert worker.pseudo_rank == shard.pseudo_rank
            assert np.array_equal(
                worker.index.trees.distances,
                shard.index.trees.distances,
            )

            # An epoch beyond the log is a hard error, not a stale answer.
            with pytest.raises(RuntimeError, match="truncated"):
                worker_mod.run_shard_rows(9, tuple(log), [0])
        finally:
            worker_mod._SHARD_STATE["worker"] = None
            worker_mod._SHARD_STATE["epoch"] = 0


class TestShardedServing:
    def test_workers_must_match_shards(self):
        _, _, sharded = _build_pair()

        async def main():
            server = QueryServer(
                sharded, ServeConfig(port=0).replace(workers=2)
            )
            with pytest.raises(QueryError, match="exactly one worker"):
                await server.start()

        asyncio.run(main())

    def test_answers_match_direct_calls(self):
        _, _, sharded = _build_pair()

        async def main():
            async with serving(sharded, workers=4) as (server, client):
                health = await client.healthz()
                assert health.payload["workers"] == 4
                assert health.payload["shards"] == 4
                for node in QUERY_NODES:
                    response = await client.range(node, 60.0)
                    assert response.status == 200
                    assert response.payload["objects"] == (
                        sharded.range_query(node, 60.0)
                    )
                    response = await client.knn(node, 3, with_distances=True)
                    assert response.status == 200
                    assert response.payload["objects"] == [
                        [obj, dist]
                        for obj, dist in sharded.knn(
                            node, 3, knn_type=KnnType.EXACT_DISTANCES
                        )
                    ]

        asyncio.run(main())

    def test_matches_monolith_through_pools(self):
        network, dataset, sharded = _build_pair()
        mono = SignatureIndex.build(
            network.copy(), dataset, backend="scipy"
        )

        async def main():
            async with serving(sharded, workers=4) as (server, client):
                for node in QUERY_NODES:
                    response = await client.range(node, 45.0)
                    assert response.payload["objects"] == (
                        mono.range_query(node, 45.0)
                    )
                    response = await client.knn(node, 5)
                    assert response.payload["objects"] == mono.knn(node, 5)

        asyncio.run(main())

    def test_update_then_query_never_stale(self):
        """Epoch-staleness stress through 4 shard pools: every
        acknowledged §5.4 update must be visible to every later query,
        including cut-edge updates that only move the overlay."""
        network, dataset, sharded = _build_pair()
        objects = list(dataset)

        def oracle_range(node, radius):
            tree = shortest_path_tree(network, node)
            return sorted(
                obj for obj in objects if tree.distance[obj] <= radius
            )

        async def main():
            async with serving(
                sharded, workers=4, max_wait_ms=0.5
            ) as (server, client):
                edges = []
                for u in range(0, 30, 3):
                    for v, w in network.neighbors(u):
                        edges.append((u, v, w))
                        break
                for step, (u, v, w) in enumerate(edges):
                    response = await client.update_edge(
                        "set_weight", u, v, weight=w * (2.0 + step % 3)
                    )
                    assert response.status == 200
                    for node in (u, 42, 250):
                        served = await client.range(node, 45.0)
                        assert served.status == 200
                        assert sorted(served.payload["objects"]) == (
                            oracle_range(node, 45.0)
                        ), f"stale answer after update {step} at node {node}"

        asyncio.run(main())

    def test_single_worker_serves_in_process(self):
        """workers=1 needs no pools: the coordinator index answers
        directly, sharded or not."""
        _, _, sharded = _build_pair()

        async def main():
            async with serving(sharded, workers=1) as (server, client):
                response = await client.range(42, 60.0)
                assert response.status == 200
                assert response.payload["objects"] == (
                    sharded.range_query(42, 60.0)
                )

        asyncio.run(main())
