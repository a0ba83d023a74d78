"""Readers-writer coordination and the update-vs-query stress test."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import QueryError
from repro.network.dijkstra import shortest_path_tree
from repro.obs import MetricsRegistry
from repro.serve import ReadWriteLock, UpdateCoordinator


def run(coro):
    return asyncio.run(coro)


class TestReadWriteLock:
    def test_readers_share(self):
        async def main():
            lock = ReadWriteLock()
            peak = 0

            async def reader():
                nonlocal peak
                async with lock.read():
                    peak = max(peak, lock.readers)
                    await asyncio.sleep(0.01)

            await asyncio.gather(*(reader() for _ in range(4)))
            assert peak == 4 and lock.readers == 0

        run(main())

    def test_writer_excludes_everyone(self):
        async def main():
            lock = ReadWriteLock()
            log = []

            async def writer():
                async with lock.write():
                    log.append("w-in")
                    assert lock.readers == 0
                    await asyncio.sleep(0.01)
                    log.append("w-out")

            async def reader():
                async with lock.read():
                    assert not lock.write_locked
                    log.append("r")

            writer_task = asyncio.ensure_future(writer())
            await asyncio.sleep(0.001)  # writer enters first
            await asyncio.gather(reader(), reader())
            await writer_task
            # Readers never interleave with the writer's critical section.
            assert log[:2] == ["w-in", "w-out"]

        run(main())

    def test_waiting_writer_blocks_new_readers(self):
        async def main():
            lock = ReadWriteLock()
            order = []
            first_read = asyncio.Event()
            release_first = asyncio.Event()

            async def long_reader():
                async with lock.read():
                    first_read.set()
                    await release_first.wait()
                    order.append("r1")

            async def writer():
                await first_read.wait()
                async with lock.write():
                    order.append("w")

            async def late_reader():
                await first_read.wait()
                await asyncio.sleep(0.005)  # arrive after the writer queued
                async with lock.read():
                    order.append("r2")

            tasks = [
                asyncio.ensure_future(coro())
                for coro in (long_reader, writer, late_reader)
            ]
            await asyncio.sleep(0.02)
            release_first.set()
            await asyncio.gather(*tasks)
            # Write preference: the queued writer beats the late reader.
            assert order == ["r1", "w", "r2"]

        run(main())


class TestApplyValidation:
    def test_unknown_op_is_a_query_error(self, updatable_index):
        coordinator = UpdateCoordinator(updatable_index)
        with pytest.raises(QueryError, match="unknown edge operation"):
            run(coordinator.apply("swap", 0, 1))

    def test_add_requires_positive_weight(self, updatable_index):
        coordinator = UpdateCoordinator(updatable_index)
        with pytest.raises(QueryError, match="requires a weight"):
            run(coordinator.apply("add", 0, 1))
        with pytest.raises(QueryError, match="must be > 0"):
            run(coordinator.apply("add", 0, 1, weight=-2.0))

    def test_apply_records_metrics(self, updatable_index):
        registry = MetricsRegistry()
        coordinator = UpdateCoordinator(updatable_index, registry=registry)
        u, v = _absent_edge(updatable_index.network, np.random.default_rng(3))
        report = run(coordinator.apply("add", u, v, weight=5.0))
        assert report is not None
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serve.updates"] == 1
        assert snapshot["histograms"]["serve.update_seconds"]["count"] == 1


# ----------------------------------------------------------------------
# Satellite: concurrent updates vs batch queries must never tear.


def _absent_edge(network, rng):
    while True:
        u = int(rng.integers(network.num_nodes))
        v = int(rng.integers(network.num_nodes))
        if u != v and not network.has_edge(u, v):
            return u, v


def _oracle_range(index, node, radius):
    """Exact range answer from a fresh Dijkstra on the *current* network."""
    tree = shortest_path_tree(index.network, node)
    hits = [
        (int(obj), float(tree.distance[obj]))
        for obj in index.dataset
        if tree.distance[obj] <= radius
    ]
    return sorted(hits)


def test_updates_never_tear_batch_queries(updatable_index):
    """Interleave §5.4 updates with batch queries through the coordinator.

    Every batch runs under the read lock and is checked, *while still
    holding the lock*, against a reference Dijkstra over the network as
    it stands — so any half-applied update (stale signature rows, torn
    spanning trees) shows up as a mismatch.
    """
    index = updatable_index
    radius = 120.0
    num_nodes = index.network.num_nodes

    async def main():
        coordinator = UpdateCoordinator(index)
        rng = np.random.default_rng(99)
        done = asyncio.Event()
        checked_batches = 0

        async def reader():
            nonlocal checked_batches
            query_rng = np.random.default_rng(7)
            while not done.is_set():
                nodes = [
                    int(n) for n in query_rng.integers(num_nodes, size=4)
                ]
                async with coordinator.read():
                    got = index.range_query_batch(
                        nodes, radius, with_distances=True
                    )
                    for node, result in zip(nodes, got):
                        expected = _oracle_range(index, node, radius)
                        assert sorted(
                            (int(obj), float(dist)) for obj, dist in result
                        ) == pytest.approx(expected), (
                            f"torn read at node {node}"
                        )
                checked_batches += 1
                await asyncio.sleep(0)

        async def writer():
            edges = list(index.network.edges())
            rng.shuffle(edges)
            for step, edge in enumerate(edges[:4]):
                await asyncio.sleep(0.005)
                await coordinator.apply(
                    "set_weight", edge.u, edge.v, weight=edge.weight * 0.3
                )
            for _ in range(2):
                await asyncio.sleep(0.005)
                u, v = _absent_edge(index.network, rng)
                await coordinator.apply("add", u, v, weight=10.0)
            done.set()

        readers = [asyncio.ensure_future(reader()) for _ in range(3)]
        await writer()
        await asyncio.gather(*readers)
        return checked_batches

    checked = run(main())
    # The readers genuinely interleaved with the updates.
    assert checked >= 6
