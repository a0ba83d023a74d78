"""Hierarchy build time and batch-kernel throughput at DIMACS scale.

On one large graph:

1. **Build phases.**  The contraction hierarchy and the hub-label
   distillation are built once and timed per phase (contraction,
   labels); ``os.cpu_count()`` is recorded in the payload.
2. **The vectorized batch label-join beats the scalar loop.**  Random
   node pairs are answered by the scalar sorted-merge
   (:func:`~repro.backends.base.label_join`, one pair at a time) and by
   the batched CSR kernel
   (:func:`~repro.backends.base.batch_label_join_csr`, 256 pairs per
   call); answers must match exactly, and the kernel must clear
   ``MIN_KERNEL_SPEEDUP``.

The graph is a generated planar network by default
(``REPRO_BENCH_SCALE_NODES``, 100k full / 2k ``--quick``); point
``REPRO_BENCH_SCALE_GR`` at a DIMACS ``.gr`` file (optionally with
``REPRO_BENCH_SCALE_CO``) to run on a challenge road network instead.

Writes ``BENCH_scale.json`` at the repo root and
``benchmarks/results/scale.txt``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_SCALE_NODES", "2000")

_REPO_ROOT_PATH = Path(__file__).resolve().parent.parent
_REPO_ROOT = str(_REPO_ROOT_PATH)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import numpy as np  # noqa: E402

from benchmarks.conftest import write_result  # noqa: E402
from repro.backends.base import (  # noqa: E402
    batch_label_join_csr,
    label_join,
)
from repro.backends.ch import ContractionHierarchy  # noqa: E402
from repro.backends.hub_labels import build_labels  # noqa: E402
from repro.network import random_planar_network  # noqa: E402

JSON_PATH = _REPO_ROOT_PATH / "BENCH_scale.json"

NUM_NODES = int(os.environ.get("REPRO_BENCH_SCALE_NODES", "100000"))
SEED = 2006
BATCH = 256
#: Batched pairs answered by the kernel; the scalar loop gets a subset
#: (it is the slow side — capping it keeps the bench minutes, not hours).
KERNEL_PAIRS = BATCH * (8 if QUICK else 80)
SCALAR_PAIRS = BATCH * (4 if QUICK else 16)

MIN_KERNEL_SPEEDUP = 2.0 if QUICK else 5.0
TIMING_PASSES = 3  # per side; best pass counts (ratio is the claim)


def _load_graph():
    gr = os.environ.get("REPRO_BENCH_SCALE_GR")
    if gr:
        from repro.network import load_dimacs

        network = load_dimacs(gr, os.environ.get("REPRO_BENCH_SCALE_CO"))
        return network, Path(gr).name
    return random_planar_network(NUM_NODES, seed=SEED), "generated-planar"


def _build(network):
    """One full hierarchy + label build; returns (artifacts, timings)."""
    start = time.perf_counter()
    hierarchy = ContractionHierarchy.build(network)
    contract_s = time.perf_counter() - start
    start = time.perf_counter()
    labels = build_labels(hierarchy)
    labels_s = time.perf_counter() - start
    return hierarchy, labels, {
        "contract_s": round(contract_s, 3),
        "labels_s": round(labels_s, 3),
        "build_s": round(contract_s + labels_s, 3),
    }


def main() -> int:
    cpus = os.cpu_count() or 1
    network, source = _load_graph()
    print(
        f"scale graph: {source}, {network.num_nodes} nodes, "
        f"{network.num_edges} edges; cpus={cpus}"
    )

    hierarchy, labels, build_times = _build(network)
    print(
        f"build: contract {build_times['contract_s']}s "
        f"({hierarchy.rounds} rounds, {hierarchy.num_shortcuts} shortcuts), "
        f"labels {build_times['labels_s']}s"
    )

    # -- scalar vs batched label join -----------------------------------
    indptr, hubs, dists = labels
    rng = np.random.default_rng(SEED)
    left = rng.integers(0, network.num_nodes, size=KERNEL_PAIRS)
    right = rng.integers(0, network.num_nodes, size=KERNEL_PAIRS)

    # Best of a few interleaved passes per side: single-pass wall times
    # on a shared host swing tens of percent, and the claim under test
    # is the throughput *ratio*, so both sides get the same treatment.
    scalar_best = batch_best = float("inf")
    scalar = []
    batched = np.empty(KERNEL_PAIRS)
    for _ in range(TIMING_PASSES):
        start = time.perf_counter()
        scalar = []
        for u, v in zip(left[:SCALAR_PAIRS], right[:SCALAR_PAIRS]):
            lo_u, hi_u = indptr[u], indptr[u + 1]
            lo_v, hi_v = indptr[v], indptr[v + 1]
            scalar.append(
                label_join(
                    hubs[lo_u:hi_u], dists[lo_u:hi_u],
                    hubs[lo_v:hi_v], dists[lo_v:hi_v],
                )
            )
        scalar_best = min(scalar_best, time.perf_counter() - start)

        start = time.perf_counter()
        for lo in range(0, KERNEL_PAIRS, BATCH):
            batched[lo:lo + BATCH] = batch_label_join_csr(
                indptr, hubs, dists,
                left[lo:lo + BATCH], right[lo:lo + BATCH],
            )
        batch_best = min(batch_best, time.perf_counter() - start)
    scalar_qps = SCALAR_PAIRS / scalar_best
    batch_qps = KERNEL_PAIRS / batch_best

    if not np.array_equal(np.asarray(scalar), batched[:SCALAR_PAIRS]):
        print("error: batch kernel disagrees with scalar join", sys.stderr)
        return 1
    kernel_speedup = round(batch_qps / scalar_qps, 2)
    print(
        f"label join: scalar {scalar_qps:,.0f} qps, "
        f"batch({BATCH}) {batch_qps:,.0f} qps -> {kernel_speedup}x"
    )

    payload = {
        "config": {
            "source": source,
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "cpus": cpus,
            "batch": BATCH,
            "kernel_pairs": KERNEL_PAIRS,
            "scalar_pairs": SCALAR_PAIRS,
            "timing_passes": TIMING_PASSES,
            "repeats": 1,
            "seed": SEED,
            "quick": QUICK,
        },
        "identical_batch_answers": True,
        "build": {
            **build_times,
            "rounds": hierarchy.rounds,
            "shortcuts": hierarchy.num_shortcuts,
            "mean_label_size": round(len(hubs) / max(network.num_nodes, 1), 2),
        },
        "batch_kernel": {
            "scalar_qps": round(scalar_qps, 1),
            "batch_qps": round(batch_qps, 1),
            "speedup": kernel_speedup,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {JSON_PATH}")

    write_result(
        "scale",
        "\n".join(
            [
                f"scale bench ({source}, {network.num_nodes} nodes, "
                f"cpus={cpus})",
                f"build: contract {build_times['contract_s']:>8.2f}s"
                f"  labels {build_times['labels_s']:>8.2f}s"
                f"  total {build_times['build_s']:>8.2f}s",
                f"label join: scalar {scalar_qps:,.0f} qps, batch({BATCH}) "
                f"{batch_qps:,.0f} qps ({kernel_speedup:g}x)",
            ]
        ),
    )

    if kernel_speedup < MIN_KERNEL_SPEEDUP:
        print(
            f"error: batch kernel only {kernel_speedup:g}x scalar "
            f"(bar: {MIN_KERNEL_SPEEDUP:g}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
