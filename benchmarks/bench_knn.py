"""kNN refinement bench: pages/query and qps of each index family's path.

Not a paper figure — the regression harness for the kNN refinement core
(:mod:`repro.core.knn_refine`: vectorized §3.2 observer-embedding
bounds, best-k pruning, shared backtracking frontier).  One kNN workload
runs over the same network, dataset, partition and signature tables in
three configurations:

* **scalar** — per-query :func:`repro.core.queries.knn_query`;
* **vectorized** — one :meth:`knn_batch` call (the shared frontier also
  amortizes across queries here);
* **shard4** — a 4-shard index.  Sharded kNN answers from stitched tree
  rows (Algorithm 6 on the exact global distance vector), so its page
  charge is one signature record per query.

Before a single number is reported, every answer of the identity sweep
is checked against a Dijkstra oracle (the k smallest distances as a
multiset, non-decreasing order for the ordered types, bitwise-exact
type-1 distances), and the monolith engines' answers must equal shard4's
— whose stitched-row Algorithm 4 sort is the tie-break reference.  Each
configuration is then timed ``REPEATS`` times after a warm pass; qps is
reported as the median with the spread of the repeats.

Writes machine-readable ``BENCH_knn.json`` at the repo root.  The quick
mode doubles as the CI smoke: pages/query must stay under the
checked-in ``QUICK_PAGE_BUDGET`` so a pruning regression fails CI.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

#: ``--quick`` (the CI smoke mode) shrinks every scale knob.  Must be set
#: before ``benchmarks.conftest`` is imported (it reads the environment
#: at import time).
QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_NODES", "800")
    os.environ.setdefault("REPRO_BENCH_QUERY_NODES", "1200")
    os.environ.setdefault("REPRO_BENCH_QUERIES", "25")

_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from benchmarks.conftest import (  # noqa: E402
    NUM_QUERIES,
    QUERY_NODES,
    RESULTS_DIR,
    write_result,
)
from repro.core import KnnType, SignatureIndex  # noqa: E402
from repro.network.dijkstra import shortest_path_tree  # noqa: E402
from repro.shard import ShardedSignatureIndex  # noqa: E402
from repro.workloads import (  # noqa: E402
    Measurement,
    format_table,
    make_query_nodes,
    measure_batch_queries,
    measure_queries,
)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_knn.json"

DENSITY_LABEL = "0.01"
KNN_K = 5
#: k values the oracle check sweeps (beyond the measured KNN_K): k=1
#: exercises the single-winner tie-break, the largest exceeds the
#: quick-mode object count so the k >= D degenerate path is covered too.
IDENTITY_KS = (1, 5, 25)
#: Timed passes per configuration (after one warm pass).
REPEATS = 3 if QUICK else 5

#: CI regression budget: quick-mode pages/query per monolith
#: configuration.  Measured ≈95 (scalar) / ≈30 (batch engines) on the
#: 1200-node / 25-query smoke; the budget leaves ~50% headroom for
#: noise, not for regressions.
QUICK_PAGE_BUDGET = 140.0


@pytest.fixture(scope="module")
def knn_setup(query_suite):
    """Three engine configurations answering from identical data.

    The vectorized index is built once; the scalar index wraps the
    *same* tables.  The 4-shard index is its own build over the same
    network and dataset.
    """
    network = query_suite.network
    dataset = query_suite.datasets[DENSITY_LABEL]
    vec = SignatureIndex.build(
        network, dataset, backend="scipy", query_engine="vectorized"
    )
    scalar = SignatureIndex(
        network,
        dataset,
        vec.partition,
        vec.table,
        vec.object_table,
        stored_kind=vec.stored_kind,
        query_engine="scalar",
    )
    shard4 = ShardedSignatureIndex.build(
        network.copy(), dataset, num_shards=4, backend="scipy"
    )
    return scalar, vec, shard4


def _check_oracle(result, knn_type, dataset, column, k) -> None:
    """One kNN answer against the oracle distances (by rank) of its node."""
    if knn_type is KnnType.EXACT_DISTANCES:
        ranks = [dataset.rank(obj) for obj, _ in result]
        distances = [d for _, d in result]
        assert distances == [column[rank] for rank in ranks], "inexact"
    else:
        ranks = [dataset.rank(obj) for obj in result]
        distances = [float(column[rank]) for rank in ranks]
    assert len(set(ranks)) == len(ranks), "duplicate result"
    finite = np.sort(column[np.isfinite(column)])
    assert sorted(distances) == finite[:k].tolist(), "not the k nearest"
    if knn_type is not KnnType.SET:
        assert distances == sorted(distances), "out of order"


def _assert_exact(scalar, vec, shard4, nodes) -> None:
    """Every configuration's answers match the oracle; the monolith
    engines also match shard4's tie-breaks, singly and batched."""
    dataset = vec.dataset
    oracle = np.array(
        [shortest_path_tree(vec.network, obj).distance for obj in dataset]
    )
    for k in IDENTITY_KS:
        for knn_type in KnnType:
            batched = vec.knn_batch(nodes, k, knn_type=knn_type)
            for i, node in enumerate(nodes):
                want = shard4.knn(node, k, knn_type=knn_type)
                _check_oracle(want, knn_type, dataset, oracle[:, node], k)
                for got in (
                    scalar.knn(node, k, knn_type=knn_type),
                    vec.knn(node, k, knn_type=knn_type),
                    batched[i],
                ):
                    assert got == want, (node, k, knn_type)


def _shard_pages(index) -> int:
    """Total logical page reads across every shard worker."""
    return sum(
        shard.index.counter.logical_reads
        for shard in index.shards
        if shard.index is not None
    )


def _measure_sharded(index, nodes) -> Measurement:
    """One timed pass over the sharded index.

    The sharded index has no ``reset_counters`` facade (each shard
    worker owns its counter), so this measures by counter deltas instead
    of going through :func:`measure_queries`.
    """
    pages_before = _shard_pages(index)
    start = time.perf_counter()
    for node in nodes:
        index.knn(node, KNN_K)
    elapsed = time.perf_counter() - start
    count = len(nodes)
    return Measurement(
        label="knn/shard4",
        queries=count,
        pages=(_shard_pages(index) - pages_before) / count,
        seconds=elapsed / count,
    )


def _measure(config: str, index, nodes) -> list[Measurement]:
    """A warm pass, then ``REPEATS`` timed passes of one configuration."""
    if config == "vectorized":
        def run():
            return measure_batch_queries(
                "knn/vectorized", index,
                lambda ns: index.knn_batch(ns, KNN_K), nodes,
            )
    elif config == "scalar":
        def run():
            return measure_queries(
                "knn/scalar", index, lambda n: index.knn(n, KNN_K), nodes
            )
    else:
        def run():
            return _measure_sharded(index, nodes)
    run()
    return [run() for _ in range(REPEATS)]


def _pruning_counters(index) -> dict:
    """Cumulative refinement counters from the index's registry."""
    metrics = index.metrics
    if not metrics.enabled:
        return {}
    return {
        "candidates_pruned": metrics.counter("knn_refine.pruned").value,
        "candidates_refined": metrics.counter("knn_refine.refined").value,
        "frontier_reuse_hits": metrics.counter(
            "knn_refine.frontier_hits"
        ).value,
    }


def _config_entry(runs: list[Measurement]) -> dict:
    qps = [run.qps for run in runs]
    return {
        "pruned_pages": statistics.median(run.pages for run in runs),
        "pruned_qps": statistics.median(qps),
        "qps_min": min(qps),
        "qps_max": max(qps),
        "qps_runs": qps,
    }


def test_knn_refinement(knn_setup, query_suite):
    scalar, vec, shard4 = knn_setup
    nodes = make_query_nodes(query_suite.network, NUM_QUERIES, seed=406)

    # -- correctness first: a fast wrong answer is not a result --------
    _assert_exact(scalar, vec, shard4, nodes[: min(len(nodes), 40)])

    runs = {
        "scalar": _measure("scalar", scalar, nodes),
        "vectorized": _measure("vectorized", vec, nodes),
        "shard4": _measure("shard4", shard4, nodes),
    }
    payload = {
        "config": {
            "num_nodes": QUERY_NODES,
            "density": float(DENSITY_LABEL),
            "num_objects": len(scalar.dataset),
            "num_queries": NUM_QUERIES,
            "knn_k": KNN_K,
            "identity_ks": list(IDENTITY_KS),
            "quick": QUICK,
            "cpus": os.cpu_count(),
            "repeats": REPEATS,
        },
        "configs": {name: _config_entry(r) for name, r in runs.items()},
        "pruning_counters": _pruning_counters(scalar),
        "notes": {
            "shard4": (
                "answers from stitched tree rows: one signature record "
                "per query; every remote shard is stitched"
            ),
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            name,
            entry["pruned_pages"],
            entry["pruned_qps"],
            entry["qps_min"],
            entry["qps_max"],
        ]
        for name, entry in payload["configs"].items()
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(
        "knn",
        format_table(
            ["config", "pages/query", "q/s (median)", "q/s min", "q/s max"],
            rows,
            title=(
                f"kNN refinement (N={QUERY_NODES}, p={DENSITY_LABEL}, "
                f"k={KNN_K}, {NUM_QUERIES} queries, {REPEATS} repeats)"
            ),
        ),
    )
    print(f"[written to {JSON_PATH}]")

    # -- acceptance ----------------------------------------------------
    if QUICK:
        for name in ("scalar", "vectorized"):
            entry = payload["configs"][name]
            assert entry["pruned_pages"] <= QUICK_PAGE_BUDGET, (name, entry)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-x", "-q", "-p", "no:cacheprovider"]))
