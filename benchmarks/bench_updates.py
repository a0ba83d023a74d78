"""§5.4 maintenance head-to-head: incremental repair vs rebuild-on-update.

The hierarchy backends historically answered every edge mutation with a
full rebuild; the changeset pipeline gave them genuinely incremental
maintenance (witness-replay repair for the contraction hierarchy,
affected-region redistillation for hub labels).  This bench measures
what that buys, on traffic-shaped single-edge reweights from
:class:`~repro.workloads.traffic.TrafficSimulator`:

* **Correctness before timing.**  For each hierarchy backend, a short
  update stream is applied incrementally and, after *every* step, the
  index's distances are asserted bit-identical to a fresh rebuild on
  the mutated network over a sampled (node, object) set.  Only then is
  anything timed.
* **incremental_updates_per_s vs rebuild_updates_per_s** — the same
  stream applied through ``apply_updates`` on a repair-recording index
  versus on a rebuild-only index; the ratio is the headline
  ``incremental_vs_rebuild`` speedup (gated ≥5x at full size,
  direction-only in ``--quick``), with the
  ``backend.<name>.update.{repaired,rebuilt}`` counters recorded to
  prove the incremental path actually ran.
* **Signature-family throughput** — the monolith and the 2-shard index
  driven through the same ``apply_updates`` entry point: updates/s, ms
  per update, and the mean ``touched_nodes`` / ``recompressed_nodes`` of
  the §5.4 report.  For the monolith,
  ``signature_incremental_vs_rebuild`` divides the time of a full
  ``SignatureIndex.build`` on the mutated network by the incremental ms
  per update — the machine-normalized maintenance ratio ``bench_history``
  gates.
* **Live traffic** — an in-process server (worker pool, so the
  epoch-replay and log-compaction machinery engages) under a mixed
  90/10 read/write closed loop: served write throughput, post-run
  staleness lag, and how much of the update log compaction reclaimed.

Writes machine-readable ``BENCH_updates.json`` at the repo root and a
summary table to ``benchmarks/results/updates.txt``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_UPDATE_NODES", "2000")
    os.environ.setdefault("REPRO_BENCH_UPDATE_COUNT", "8")
    os.environ.setdefault("REPRO_BENCH_UPDATE_REBUILDS", "3")
    os.environ.setdefault("REPRO_BENCH_UPDATE_PAIRS", "250")
    os.environ.setdefault("REPRO_BENCH_UPDATE_SERVE_S", "1.5")

_REPO_ROOT_PATH = Path(__file__).resolve().parent.parent
_REPO_ROOT = str(_REPO_ROOT_PATH)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import numpy as np  # noqa: E402

from benchmarks.conftest import write_result  # noqa: E402
from repro.backends import BACKENDS  # noqa: E402
from repro.core import SignatureIndex  # noqa: E402
from repro.network import (  # noqa: E402
    random_planar_network,
    uniform_dataset,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve import (  # noqa: E402
    QueryServer,
    ServeConfig,
    closed_loop,
    mixed_workload,
)
from repro.serve.loadgen import fetch_edge_sample  # noqa: E402
from repro.shard import ShardedSignatureIndex  # noqa: E402
from repro.workloads import TrafficSimulator  # noqa: E402

JSON_PATH = _REPO_ROOT_PATH / "BENCH_updates.json"

NUM_NODES = int(os.environ.get("REPRO_BENCH_UPDATE_NODES", "6000"))
NUM_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATE_COUNT", "12"))
NUM_REBUILD_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATE_REBUILDS", "4"))
NUM_PAIRS = int(os.environ.get("REPRO_BENCH_UPDATE_PAIRS", "500"))
SERVE_DURATION_S = float(os.environ.get("REPRO_BENCH_UPDATE_SERVE_S", "3.0"))
CORRECTNESS_STEPS = 2
DENSITY = 0.01
SEED = 1959
WRITE_RATIO = 0.1  # the mixed 90/10 read/write serving workload
SERVE_CLIENTS = 8 if QUICK else 16

#: The acceptance bar: hierarchy-backend incremental repair over
#: rebuild-on-update on single-edge reweights.  The full-size run
#: clears 5x comfortably; the quick smoke (2000 nodes, less rebuild
#: work to amortize) only checks the direction.
MIN_INCREMENTAL_SPEEDUP = 1.5 if QUICK else 5.0


def _sample_pairs(network, dataset, rng) -> list[tuple[int, int]]:
    nodes = rng.integers(0, network.num_nodes, size=NUM_PAIRS)
    objects = rng.choice(list(dataset), size=NUM_PAIRS)
    return list(zip((int(n) for n in nodes), (int(o) for o in objects)))


def bench_hierarchy(name: str, network, dataset) -> dict:
    """Correctness pass, then incremental-vs-rebuild timing, for one
    hierarchy backend."""
    build = BACKENDS[name]
    registry = MetricsRegistry()
    start = time.perf_counter()
    index = build(
        network.copy(), dataset, metrics=registry, record_repair=True
    )
    build_s = time.perf_counter() - start
    rng = np.random.default_rng(SEED)
    pairs = _sample_pairs(network, dataset, rng)

    # -- bit-identical to a fresh rebuild, asserted BEFORE timing -------
    sim = TrafficSimulator(index.network, seed=SEED + 1)
    mismatches = 0
    for _ in range(CORRECTNESS_STEPS):
        index.apply_updates(sim.changeset(1))
        fresh = build(index.network.copy(), dataset)
        for node, obj in pairs:
            if index.distance(node, obj) != fresh.distance(node, obj):
                mismatches += 1
                print(f"MISMATCH {name} d({node},{obj}) after update")
    if mismatches:
        raise SystemExit(
            f"{name}: {mismatches} post-update distance mismatches vs "
            f"fresh rebuild"
        )
    print(
        f"{name}: {CORRECTNESS_STEPS} incremental updates bit-identical "
        f"to fresh rebuilds over {len(pairs)} pairs"
    )

    # -- timed incremental applies --------------------------------------
    repaired_before = registry.counter(
        f"backend.{name}.update.repaired"
    ).value
    rebuilt_before = registry.counter(f"backend.{name}.update.rebuilt").value
    start = time.perf_counter()
    for changeset in sim.stream(NUM_UPDATES, 1):
        index.apply_updates(changeset)
    incremental_s = (time.perf_counter() - start) / NUM_UPDATES
    repaired = (
        registry.counter(f"backend.{name}.update.repaired").value
        - repaired_before
    )
    rebuilt = (
        registry.counter(f"backend.{name}.update.rebuilt").value
        - rebuilt_before
    )

    # -- timed rebuild-on-update baseline --------------------------------
    # The same entry point on an index built without repair recording:
    # its only maintenance strategy is rebuild-from-network.
    rebuild_registry = MetricsRegistry()
    baseline = build(network.copy(), dataset, metrics=rebuild_registry)
    baseline_sim = TrafficSimulator(baseline.network, seed=SEED + 1)
    start = time.perf_counter()
    for changeset in baseline_sim.stream(NUM_REBUILD_UPDATES, 1):
        baseline.apply_updates(changeset)
    rebuild_s = (time.perf_counter() - start) / NUM_REBUILD_UPDATES
    baseline_rebuilt = rebuild_registry.counter(
        f"backend.{name}.update.rebuilt"
    ).value

    row = {
        "build_s": round(build_s, 3),
        "incremental_update_s": round(incremental_s, 6),
        "rebuild_update_s": round(rebuild_s, 6),
        "incremental_updates_per_s": round(1.0 / incremental_s, 2),
        "rebuild_updates_per_s": round(1.0 / rebuild_s, 2),
        "incremental_vs_rebuild": round(rebuild_s / incremental_s, 2),
        "updates_timed": NUM_UPDATES,
        "rebuilds_timed": NUM_REBUILD_UPDATES,
        "update_repaired": int(repaired),
        "update_rebuilt": int(rebuilt),
        "baseline_update_rebuilt": int(baseline_rebuilt),
        "bit_identical_to_rebuild": True,
    }
    print(
        f"{name}: incremental {row['incremental_update_s'] * 1e3:.1f} ms "
        f"vs rebuild {row['rebuild_update_s'] * 1e3:.1f} ms per update "
        f"({row['incremental_vs_rebuild']:g}x), repaired={repaired} "
        f"rebuilt={rebuilt}"
    )
    return row


def bench_signature_family(network, dataset) -> dict[str, dict]:
    """Single-edge ``apply_updates`` throughput for the §5.4 natives."""
    rows: dict[str, dict] = {}
    variants = {
        "signature": lambda: SignatureIndex.build(
            network.copy(), dataset, keep_trees=True
        ),
        "sharded": lambda: ShardedSignatureIndex.build(
            network.copy(), dataset, num_shards=2
        ),
    }
    for name, builder in variants.items():
        start = time.perf_counter()
        index = builder()
        build_s = time.perf_counter() - start
        sim = TrafficSimulator(network, seed=SEED + 1)
        applied = touched = recompressed = 0
        start = time.perf_counter()
        for changeset in sim.stream(NUM_UPDATES, 1):
            result = index.apply_updates(changeset)
            applied += result.applied
            touched += result.report.touched_nodes
            recompressed += result.report.recompressed_nodes
        elapsed = time.perf_counter() - start
        update_s = elapsed / max(applied, 1)
        rows[name] = {
            "build_s": round(build_s, 3),
            "updates_applied": applied,
            "updates_per_s": round(applied / elapsed, 2),
            "update_ms": round(update_s * 1e3, 3),
            "mean_touched_nodes": round(touched / max(applied, 1), 1),
            "mean_recompressed_nodes": round(
                recompressed / max(applied, 1), 1
            ),
        }
        if name == "signature":
            # Rebuild-on-update: a full build on the mutated network.
            start = time.perf_counter()
            for _ in range(NUM_REBUILD_UPDATES):
                SignatureIndex.build(
                    index.network.copy(), dataset, keep_trees=True
                )
            rebuild_s = (time.perf_counter() - start) / NUM_REBUILD_UPDATES
            rows[name]["rebuild_update_s"] = round(rebuild_s, 6)
            rows[name]["incremental_vs_rebuild"] = round(
                rebuild_s / update_s, 2
            )
        print(
            f"{name}: {rows[name]['updates_per_s']:g} updates/s, "
            f"{rows[name]['update_ms']:g} ms/update (mean "
            f"{rows[name]['mean_touched_nodes']:g} touched, "
            f"{rows[name]['mean_recompressed_nodes']:g} recompressed nodes)"
        )
    return rows


async def _live_traffic(network, dataset) -> dict:
    index = SignatureIndex.build(network.copy(), dataset, keep_trees=True)
    server = QueryServer(index, ServeConfig(port=0, workers=2))
    await server.start()
    try:
        edges = await fetch_edge_sample(
            server.host, server.port, limit=256, seed=SEED
        )
        workload = mixed_workload(
            network.num_nodes,
            seed=SEED,
            write_ratio=WRITE_RATIO,
            edges=edges,
        )
        stats = await closed_loop(
            server.host,
            server.port,
            clients=SERVE_CLIENTS,
            duration_s=SERVE_DURATION_S,
            workload=workload,
        )
        coordinator = server.coordinator
        worker_epochs = list(server.telemetry.epochs.values())
        staleness = (
            coordinator.epoch - min(worker_epochs) if worker_epochs else 0
        )
        registry = server._registry
        summary = stats.summary()
        return {
            "workload": {
                "write_ratio": WRITE_RATIO,
                "clients": SERVE_CLIENTS,
                "duration_s": SERVE_DURATION_S,
            },
            "throughput_rps": summary["throughput_rps"],
            "writes": stats.writes,
            "write_throughput_rps": round(
                stats.writes / stats.duration_s, 2
            ),
            "errors": stats.errors,
            "latency_ms": summary["latency_ms"],
            "final_epoch": coordinator.epoch,
            "staleness_lag": int(staleness),
            "update_batches": registry.counter("serve.update_batches").value,
            "log_compacted": registry.counter(
                "serve.update_log.compacted"
            ).value,
            "log_length": len(coordinator.update_log),
        }
    finally:
        await server.shutdown()


def main() -> int:
    network = random_planar_network(NUM_NODES, seed=SEED)
    dataset = uniform_dataset(network, density=DENSITY, seed=SEED)
    print(
        f"bench network: {network.num_nodes} nodes, {network.num_edges} "
        f"edges, {len(dataset)} objects"
    )

    hierarchy = {
        name: bench_hierarchy(name, network, dataset)
        for name in ("ch", "hub")
    }
    signature = bench_signature_family(network, dataset)
    serve = asyncio.run(_live_traffic(network, dataset))
    print(
        f"serve: {serve['throughput_rps']:g} rps mixed "
        f"({serve['writes']} writes, staleness lag "
        f"{serve['staleness_lag']}, {serve['log_compacted']} log entries "
        f"compacted)"
    )

    speedups = {
        f"{name}_incremental_vs_rebuild": row["incremental_vs_rebuild"]
        for name, row in hierarchy.items()
    }
    speedups["signature_incremental_vs_rebuild"] = (
        signature["signature"]["incremental_vs_rebuild"]
    )
    payload = {
        "config": {
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "objects": len(dataset),
            "updates": NUM_UPDATES,
            "rebuild_updates": NUM_REBUILD_UPDATES,
            "pairs": NUM_PAIRS,
            "correctness_steps": CORRECTNESS_STEPS,
            "seed": SEED,
            "quick": QUICK,
            "cpus": os.cpu_count(),
            "repeats": 1,
        },
        "hierarchy": hierarchy,
        "signature_family": signature,
        "serve": serve,
        "speedups": speedups,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {JSON_PATH}")

    lines = [
        f"§5.4 maintenance ({network.num_nodes} nodes, "
        f"{len(dataset)} objects, {NUM_UPDATES} single-edge updates)",
        f"{'backend':<10}  {'inc ms':>8}  {'rebuild ms':>10}  "
        f"{'speedup':>8}  {'repaired':>8}  {'rebuilt':>7}",
    ]
    for name, row in hierarchy.items():
        lines.append(
            f"{name:<10}  {row['incremental_update_s'] * 1e3:>8.1f}  "
            f"{row['rebuild_update_s'] * 1e3:>10.1f}  "
            f"{row['incremental_vs_rebuild']:>8.2f}  "
            f"{row['update_repaired']:>8}  {row['update_rebuilt']:>7}"
        )
    for name, row in signature.items():
        lines.append(
            f"{name:<10}  {row['updates_per_s']:>8.1f} updates/s, "
            f"{row['update_ms']:g} ms/update (mean "
            f"{row['mean_touched_nodes']:g} touched, "
            f"{row['mean_recompressed_nodes']:g} recompressed nodes)"
        )
    lines.append(
        f"signature incremental vs rebuild: "
        f"{speedups['signature_incremental_vs_rebuild']:g}x"
    )
    lines.append(
        f"serve mixed {int((1 - WRITE_RATIO) * 100)}/"
        f"{int(WRITE_RATIO * 100)}: {serve['throughput_rps']:g} rps, "
        f"{serve['write_throughput_rps']:g} writes/s, staleness lag "
        f"{serve['staleness_lag']}, log {serve['log_length']} entries "
        f"({serve['log_compacted']} compacted)"
    )
    write_result("updates", "\n".join(lines))

    failures = []
    for name, row in hierarchy.items():
        if row["incremental_vs_rebuild"] < MIN_INCREMENTAL_SPEEDUP:
            failures.append(
                f"{name}: incremental repair only "
                f"{row['incremental_vs_rebuild']:g}x rebuild-on-update "
                f"(bar: {MIN_INCREMENTAL_SPEEDUP:g}x)"
            )
        if row["update_repaired"] == 0:
            failures.append(
                f"{name}: update.repaired counter is 0 — the incremental "
                f"path never ran"
            )
    if serve["errors"]:
        failures.append(f"serve: {serve['errors']} failed requests")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
