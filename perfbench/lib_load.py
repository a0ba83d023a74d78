"""The in-process workloads: one thread streaming batches and updates.

The stream cycles a batch of ``BATCH`` range queries, kNN queries and
distance queries, then sends one single-edge ``set_weight`` changeset
through ``apply_updates``.  No serving tier is involved, so the batch
engines run at full batch scale and §5.4 maintenance is timed directly.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    BATCH,
    KNN_K,
    NUM_NODES,
    RANGE_RADIUS,
    Checker,
    host_ticks,
    index_mib,
    make_inputs,
    oracle,
    peak_rss_mib,
    steal_share,
    write_trace,
)

READ_KINDS = ("range", "knn", "distance")


@dataclass
class LibRun:
    setup_s: list[float]
    index_mib: float
    peak_rss_mib: float
    window_s: float
    steal_share: float  # of the machine's CPU time in the window
    calls: list[tuple[str, float, float, float]]  # (kind, start, end, cpu_s)
    writes: list[tuple[float, float, float, object]]  # (start, end, cpu_s, ApplyResult)
    checker: Checker
    build_gauges: list[dict]
    window_counters: dict
    pages: int
    trace_cost_s: float = 0.0
    spans: list[dict] = field(default_factory=list)


def _build(kind: str, network, dataset):
    if kind == "signature":
        from repro import SignatureIndex

        return SignatureIndex.build(network, dataset, keep_trees=True)
    from repro.backends.hub_labels import HubLabelIndex

    return HubLabelIndex.build(network, dataset, record_repair=True)


def _cycle_inputs(rng: np.random.Generator, objects: np.ndarray):
    nodes = rng.integers(0, NUM_NODES, size=(3, BATCH))
    objs = objects[rng.integers(0, len(objects), size=BATCH)]
    return nodes, objs


def _call(index, kind: str, nodes, objs):
    if kind == "range":
        return index.range_query_batch(nodes[0], RANGE_RADIUS)
    if kind == "knn":
        return index.knn_batch(nodes[1], KNN_K)
    return index.distance_batch(nodes[2], objs)


def _check_cycle(checker: Checker, nodes, objs, answers) -> None:
    for node, answer in zip(nodes[0], answers["range"]):
        checker.range(int(node), answer)
    for node, answer in zip(nodes[1], answers["knn"]):
        checker.knn(int(node), answer)
    for node, obj, answer in zip(nodes[2], objs, answers["distance"]):
        checker.distance(int(node), int(obj), answer)


def run_lib(kind: str, seed: int, seconds: float, trace: bool, repeats: int) -> LibRun:
    from repro.core.changeset import ChangeSet

    inputs = make_inputs()
    dist0 = oracle(inputs.edges, inputs.weights, inputs.objects)
    writes = write_trace(inputs, dist0, 1000)
    rng = np.random.default_rng([seed, 5])

    setup_s, gauges, index = [], [], None
    for _ in range(repeats):
        index = None
        gc.collect()
        network = inputs.network.copy()
        start = time.perf_counter()
        index = _build(kind, network, inputs.dataset)
        setup_s.append(time.perf_counter() - start)
        gauges.append(dict(index.metrics.snapshot()["gauges"]))
    size_mib = index_mib(index)

    # Warm-up: one cycle of reads, untimed, so lazy set-up is done.
    warm_nodes, warm_objs = _cycle_inputs(np.random.default_rng([seed, 6]), inputs.objects)
    for read_kind in READ_KINDS:
        _call(index, read_kind, warm_nodes, warm_objs)

    counters0 = dict(index.metrics.snapshot()["counters"])
    calls, applied, kept, spans = [], [], [], []
    trace_cost = 0.0
    pages = 0
    ticks0 = host_ticks()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        nodes, objs = _cycle_inputs(rng, inputs.objects)
        answers = {}
        for read_kind in READ_KINDS:
            before = index.counter.logical_reads
            c0, t0 = time.process_time(), time.perf_counter()
            answers[read_kind] = _call(index, read_kind, nodes, objs)
            t1, c1 = time.perf_counter(), time.process_time()
            pages += index.counter.logical_reads - before
            calls.append((read_kind, t0, t1, c1 - c0))
            if trace:
                t2 = time.perf_counter()
                spans.append(_span(len(spans), f"lib.{read_kind}_batch", t0, t1, start))
                trace_cost += time.perf_counter() - t2
        kept.append((nodes, objs, answers))
        u, v, w = writes[len(applied) % len(writes)]
        changeset = ChangeSet.build([("set_weight", u, v, w)])
        c0, t0 = time.process_time(), time.perf_counter()
        result = index.apply_updates(changeset)
        t1, c1 = time.perf_counter(), time.process_time()
        applied.append((t0, t1, c1 - c0, result))
        if trace:
            t2 = time.perf_counter()
            spans.append(_span(len(spans), "lib.apply_updates", t0, t1, start))
            trace_cost += time.perf_counter() - t2
    window_s = time.perf_counter() - start
    steal = steal_share(ticks0, host_ticks())
    rss = peak_rss_mib()
    counters1 = dict(index.metrics.snapshot()["counters"])
    window_counters = {
        name: counters1.get(name, 0) - counters0.get(name, 0)
        for name in set(counters0) | set(counters1)
    }

    # Correctness, outside the timed region: the first, the last and two
    # seeded cycles against the oracle of the network they ran on, then
    # fresh answers after every interleaved update.
    checked = {0, len(kept) - 1}
    checked.update(np.random.default_rng([seed, 7]).integers(0, len(kept), size=2).tolist())
    weights = inputs.weights.copy()
    edge_id = {(int(u), int(v)): i for i, (u, v) in enumerate(inputs.edges)}
    checker = Checker(inputs.objects)
    for cycle, (nodes, objs, answers) in enumerate(kept):
        if cycle in checked:
            checker.use(oracle(inputs.edges, weights, inputs.objects))
            _check_cycle(checker, nodes, objs, answers)
        u, v, w = writes[cycle % len(writes)]
        weights[edge_id[(u, v)]] = w
    checker.use(oracle(inputs.edges, weights, inputs.objects))
    nodes, objs = _cycle_inputs(np.random.default_rng([seed, 8]), inputs.objects)
    _check_cycle(
        checker, nodes, objs, {k: _call(index, k, nodes, objs) for k in READ_KINDS}
    )
    return LibRun(
        setup_s=setup_s,
        index_mib=size_mib,
        peak_rss_mib=rss,
        window_s=window_s,
        steal_share=steal,
        calls=calls,
        writes=applied,
        checker=checker,
        build_gauges=gauges,
        window_counters=window_counters,
        pages=pages,
        trace_cost_s=trace_cost,
        spans=spans,
    )


def _span(span_id: int, name: str, t0: float, t1: float, origin: float) -> dict:
    return {
        "trace": span_id,
        "span": span_id,
        "parent": None,
        "name": name,
        "start_ms": (t0 - origin) * 1e3,
        "end_ms": (t1 - origin) * 1e3,
    }
