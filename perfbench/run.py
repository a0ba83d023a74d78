"""The repository's benchmark: served and in-process distance queries.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --summarize

Every workload runs on ``random_planar_network(6000)`` with
``uniform_dataset(density=0.01)`` (60 objects), the scale of the
``BENCH_*.json`` files; see ``WORKLOADS`` for what each one sends.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
the wall-clock figures a client sees are printed above it and kept in
the report (see ``END_TO_END`` for why the gated costs are CPU time).
With ``--trace 1`` the run records a span around every call it makes
into the program, writes the spans to ``.perfbench/``, and the last line
carries the per-layer metrics; a layer the workload does not exercise
reads 0.  Every run also writes a report to ``.perfbench/`` (host,
versions, seed, configuration, each metric with its sample count and
within-run spread); ``--summarize`` folds the reports of many runs into
run-to-run medians, spreads and the tracing overhead.  Answers are
checked against a Dijkstra oracle outside the timed region; the run
exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BATCH,
    ROOT,
    median,
    percentile,
    rel_iqr,
    require_program,
    supported_tail,
)

OUT = ROOT / ".perfbench"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Slices of the window used for the within-run spread.
SUBWINDOWS = 5

#: Workload -> why it exists, the read tail percentile, and how many
#: writes of the fixed log ``write_p50_ms`` and ``write_cpu_p50_ms`` cover.
#:
#: The tail percentile is the highest with at least ten samples beyond it
#: at the workload's sample count in a 20-second run on a 2-CPU host.  It
#: is fixed, like the write count, so that a faster commit, which fits
#: more calls into the window, is measured on the same statistic: log
#: entries cost from 0 to over 1000 ms each, so a median over however many
#: writes fitted would move with the speed of the run.
#:
#: ``BENCHMARK.json`` gates ``serve-read`` and ``lib-hub`` only.  The
#: time budget of the gated runs affords 20-second windows for two
#: workloads, not three.  ``serve-read`` covers
#: the signature engine, core.builder, sweep, pages and §5.4 updates through
#: the server.  ``serve-mixed`` holds about ten writes and 90 reads per
#: 20 seconds, too few for a steady read tail at 0.7 s per §5.4 write.
#: Both stay runnable for longer runs and for the layer breakdown.
WORKLOADS = {
    "serve-read": {
        "why": "closed loop of 8 served readers from one thread: server CPU per read "
        "through HTTP, admission, coalescer and engine; then 12 writes on the idle server",
        "read_tail": 99.0,
        "writes": 12,
    },
    "serve-mixed": {
        "why": "open loop with one write per ten requests: a write blocking the event "
        "loop is charged to every read due behind it",
        "read_tail": 75.0,
        "writes": None,
    },
    "lib-signature": {
        "why": "in-process signature batches at full scale with frontiers shared "
        "across queries, plus direct section 5.4 maintenance",
        "read_tail": 75.0,
        "writes": 12,
    },
    "lib-hub": {
        "why": "in-process hub labels: contraction and labels in setup, label-join "
        "kernel and incremental repair; bypasses the signature family",
        "read_tail": 75.0,
        "writes": 24,
    },
}

#: End-to-end metrics in the result line of ``--trace 0``.
#:
#: The costs are CPU time of the process holding the index (the server
#: child, or the benchmark process around each library call), which the
#: scheduler counts without the time the hypervisor takes from a virtual
#: CPU.  On a shared 2-CPU host that steal time moved between 6% and 20%
#: of the machine over minutes; served throughput and read p99 followed
#: it (300 vs 450 reads/s, 60-76 vs 32-37 ms, one server, 4-second
#: windows) while server CPU per read stayed within 1.72-1.95 ms.  So
#: the wall-clock figures went past a 0.25 bound between sets of runs of
#: the same code, and the CPU costs did not.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "index_mib": "MiB",
    "query_per_cpu_s": "1/s",
    "write_cpu_p50_ms": "ms",
}
#: Printed and reported, not in the result line: the wall-clock figures a
#: client sees, which follow the host's steal time (``steal_share``, the
#: share of the machine's CPU time the hypervisor took in the window);
#: ``fail_frac``, which is 0 on a healthy run (the line carries
#: ``attempted`` and ``failed``); and the write tail, which the write
#: counts above are too small for.
INFORMATIONAL = {
    "query_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "write_p50_ms": "ms",
    "throughput_rps": "1/s",
    "write_tail_ms": "ms",
    "fail_frac": "1",
    "steal_share": "1",
}

#: Per-layer metric -> (unit, layer, source, what it should move).
LAYERS = {
    "serve.http.queue_ms": ("ms", "serve.server + serve.admission", "Server-Timing queue, mean per read", "read_p50_ms, query_per_s on serve-read"),
    "serve.batching.coalesce_p50_ms": ("ms", "serve.batching", "Server-Timing coalesce, median per read", "read_p50_ms, query_per_s on serve-read"),
    "serve.batching.coalesce_tail_ms": ("ms", "serve.batching", "Server-Timing coalesce at the read tail percentile", "read_tail_ms on serve-read"),
    "serve.batching.batch_size_mean": ("count", "serve.batching", "/metrics serve.batch_size delta", "query_per_cpu_s on serve-read"),
    "serve.engine.execute_ms": ("ms", "core via the server", "Server-Timing execute, mean per read", "query_per_cpu_s, read_p50_ms on serve-read"),
    "serve.http.stitch_ms": ("ms", "serve.server", "Server-Timing stitch, mean per read", "read_p50_ms on serve-read"),
    "serve.client_gap_ms": ("ms", "serialization, socket, client, event-loop wait before ingress", "latency - Server-Timing total, mean per read", "read_p50_ms on serve-read; on serve-mixed, reads blocked by a §5.4 apply"),
    "serve.cpu_ms_per_op": ("ms", "server process", "server child CPU time / window requests", "query_per_cpu_s on serve-read"),
    "serve.coordinator.update_ms": ("ms", "serve.coordinator", "/metrics serve.update_seconds delta, mean", "write_cpu_p50_ms on serve-read"),
    "serve.coordinator.update_batch_size": ("count", "serve.coordinator", "/metrics serve.updates / serve.update_seconds count", "write_cpu_p50_ms on serve-read"),
    "serve.admission.shed": ("count", "serve.admission", "429 and 503 responses", "failed on serve-*"),
    "serve.admission.degraded": ("count", "serve.admission", 'answers with "approximate": true', "failed on serve-*"),
    "core.update.touched_nodes": ("count", "core.update", "ApplyResult.report or /v1/edges response, mean per write", "write_cpu_p50_ms on lib-signature, serve-read"),
    "core.update.recompressed_nodes": ("count", "core.update", "ApplyResult.report or /v1/edges response, mean per write", "write_cpu_p50_ms on lib-signature, serve-read"),
    "core.range_batch_ms": ("ms", "core engine / backends kernel", "range_query_batch call, median", "query_per_cpu_s on lib-*"),
    "core.knn_batch_ms": ("ms", "core engine / backends kernel", "knn_batch call, median", "query_per_cpu_s on lib-*"),
    "core.distance_batch_ms": ("ms", "core engine / backends kernel", "distance_batch call, median", "query_per_cpu_s on lib-*"),
    "storage.pages_per_query": ("count", "storage", "lib: index.counter logical reads per query; serve: /metrics query.*_batch.pages", "query_per_cpu_s on lib-signature and serve-read"),
    "core.knn_refine.prune_ratio": ("1", "core.knn_refine", "knn_refine pruned / (pruned + refined)", "query_per_cpu_s on lib-signature and serve-read"),
    "build.sweep_s": ("s", "network Dijkstra sweep", "construction.sweep_seconds gauge", "setup_s on lib-signature and serve-read"),
    "build.total_s": ("s", "core.builder", "construction.total_seconds gauge", "setup_s on lib-signature and serve-read"),
    "backends.hub.build.contract_s": ("s", "backends contraction", "backend.hub.build.contract_seconds gauge", "setup_s on lib-hub"),
    "backends.hub.build.labels_s": ("s", "backends labels", "backend.hub.build.labels_seconds gauge", "setup_s on lib-hub"),
    "backends.hub.build.buckets_s": ("s", "backends buckets", "backend.hub.build.buckets_seconds gauge", "setup_s on lib-hub"),
    "backends.hub.update.repaired": ("count", "backends repair", "backend.hub.update.repaired counter delta", "write_cpu_p50_ms on lib-hub"),
    "backends.hub.update.rebuilt": ("count", "backends repair", "backend.hub.update.rebuilt counter delta", "write_cpu_p50_ms on lib-hub"),
    "trace.overhead_ms_per_op": ("ms", "benchmark tracer", "time spent recording spans per operation", "nothing: the cost tracing adds"),
}


def host_stamp() -> dict:
    import numpy
    import scipy

    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# metric assembly
# ----------------------------------------------------------------------
class Metrics:
    """Metric values plus, per metric, how it was computed."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.notes: dict[str, dict] = {}

    def set(self, name: str, value: float | None, **note) -> None:
        self.values[name] = None if value is None else float(value)
        if note:
            self.notes[name] = note

    def common(self, run, workload: str, reads: list[float], read_times: list[float],
               writes: list[float], write_cpu: list[float]) -> None:
        """The metrics every workload reports the same way; ``writes``
        (wall) and ``write_cpu`` (CPU) in ms and log order."""
        tail_p = WORKLOADS[workload]["read_tail"]
        writes = writes[:WORKLOADS[workload]["writes"]]
        write_cpu = write_cpu[:WORKLOADS[workload]["writes"]]
        self.set("setup_s", median(run.setup_s), repeats=run.setup_s)
        self.set("index_mib", run.index_mib)
        self.set("steal_share", run.steal_share)
        self.set("write_cpu_p50_ms", median(write_cpu) if write_cpu else None,
                 count=len(write_cpu), samples=write_cpu)
        self.set("read_p50_ms", median(reads), count=len(reads),
                 spread=_subwindow_spread(reads, read_times),
                 samples=reads if len(reads) < 200 else None)
        self.set("read_tail_ms", percentile(reads, tail_p), percentile=tail_p,
                 count=len(reads), beyond=len(reads) * (1 - tail_p / 100))
        self.set("write_p50_ms", median(writes), count=len(writes), samples=writes)
        write_p = supported_tail(writes)
        self.set("write_tail_ms", percentile(writes, write_p) if write_p else None,
                 percentile=write_p, count=len(writes))


def _subwindow_spread(samples, times) -> float | None:
    """Relative IQR of the median over ``SUBWINDOWS`` equal time slices."""
    if len(samples) < 4 * SUBWINDOWS:
        return None
    lo, hi = min(times), max(times)
    width = (hi - lo) / SUBWINDOWS or 1.0
    slices = [[] for _ in range(SUBWINDOWS)]
    for s, t in zip(samples, times):
        slices[min(int((t - lo) / width), SUBWINDOWS - 1)].append(s)
    return rel_iqr([median(s) for s in slices if s])


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def served_metrics(run, workload: str, trace: bool):
    m = Metrics()
    reads = [r for r in run.reads if r.ok]
    writes = [r for r in run.writes if r.ok]
    window_writes = writes if workload == "serve-mixed" else []
    m.common(run, workload, [r.latency_ms for r in reads], [r.due for r in reads],
             [r.latency_ms for r in writes],
             [r.server_cpu_ms for r in writes if r.server_cpu_ms is not None])
    m.set("peak_rss_mib", run.peak_rss_mib, process="server child")
    m.set("query_per_s", len(reads) / run.window_s, window_s=run.window_s)
    m.set("query_per_cpu_s", (len(reads) + len(window_writes)) / run.cpu_s,
          server_cpu_s=run.cpu_s, what="requests answered per second of server CPU")
    m.set("throughput_rps", (len(reads) + len(window_writes)) / run.window_s)
    attempted = len(run.reads) + len(run.writes)
    failed = attempted - len(reads) - len(writes) + run.checker.failures
    m.set("fail_frac", failed / attempted, failed=failed, attempted=attempted)
    if run.late_ms:
        m.notes["throughput_rps"] = {"generator_late_ms_max": max(run.late_ms)}
    if not trace:
        return m, attempted, failed, []

    before, after = run.metrics

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(num: str, den: str) -> float:
        return delta(num) / delta(den) if delta(den) else 0.0

    stages = ("queue", "coalesce", "execute", "stitch")
    timed = [r for r in reads if r.timing]
    coalesce = [r.timing.get("coalesce", 0.0) for r in timed]
    m.set("serve.http.queue_ms", _mean([r.timing.get("queue", 0.0) for r in timed]))
    m.set("serve.batching.coalesce_p50_ms", median(coalesce))
    m.set("serve.batching.coalesce_tail_ms", percentile(coalesce, WORKLOADS[workload]["read_tail"]))
    m.set("serve.batching.batch_size_mean",
          ratio("repro_serve_batch_size_sum", "repro_serve_batch_size_count"))
    m.set("serve.engine.execute_ms", _mean([r.timing.get("execute", 0.0) for r in timed]))
    m.set("serve.http.stitch_ms", _mean([r.timing.get("stitch", 0.0) for r in timed]))
    m.set("serve.client_gap_ms",
          _mean([(r.done - r.sent) * 1e3 - r.timing["total"] for r in timed]),
          max_stage_sum_error_ms=max(
              (abs(sum(r.timing.get(s, 0.0) for s in stages) - r.timing["total"]) for r in timed),
              default=0.0))
    m.set("serve.cpu_ms_per_op", run.cpu_s * 1e3 / run.window_ops)
    m.set("serve.coordinator.update_ms",
          1e3 * ratio("repro_serve_update_seconds_sum", "repro_serve_update_seconds_count"))
    m.set("serve.coordinator.update_batch_size",
          ratio("repro_serve_updates_total", "repro_serve_update_seconds_count"))
    m.set("serve.admission.shed", sum(1 for r in run.reads + run.writes if r.status in (429, 503)))
    m.set("serve.admission.degraded",
          sum(1 for r in run.reads if r.payload and r.payload.get("approximate")))
    m.set("core.update.touched_nodes", _mean([r.payload["touched_nodes"] for r in writes]))
    m.set("core.update.recompressed_nodes",
          _mean([r.payload["recompressed_nodes"] for r in writes]))
    pruned = delta("repro_knn_refine_pruned_total")
    refined = delta("repro_knn_refine_refined_total")
    m.set("core.knn_refine.prune_ratio", pruned / (pruned + refined) if pruned + refined else 0.0)
    kinds = ("range", "knn", "distance")
    batches = sum(delta(f"repro_query_{k}_batch_pages_count") for k in kinds)
    m.set("storage.pages_per_query",
          sum(delta(f"repro_query_{k}_batch_pages_sum") for k in kinds) / batches if batches else 0.0,
          source="per-query pages of each served batch, averaged over batches")
    m.set("build.sweep_s", after.get("repro_construction_sweep_seconds", 0.0))
    m.set("build.total_s", after.get("repro_construction_total_seconds", 0.0))
    records = sorted(run.reads + run.writes, key=lambda r: r.due)
    start = time.perf_counter()
    spans = [span for i, r in enumerate(records) for span in request_spans(i, r, records[0].due)]
    cost = run.trace_cost_s + time.perf_counter() - start
    m.set("trace.overhead_ms_per_op", cost * 1e3 / len(records))
    return m, attempted, failed, spans


def request_spans(trace_id: int, r, origin: float) -> list[dict]:
    """One request: a root span from due time to reply, a ``client.wait``
    child while no connection was free, the ``Server-Timing`` stages laid
    end to end from the send time, and ``client.gap`` for the rest."""
    ms = lambda t: (t - origin) * 1e3  # noqa: E731
    spans = [{"trace": trace_id, "span": 0, "parent": None, "name": f"request.{r.op[0]}",
              "start_ms": ms(r.due), "end_ms": ms(r.done), "status": r.status}]

    def child(name: str, start: float, end: float) -> None:
        spans.append({"trace": trace_id, "span": len(spans), "parent": 0, "name": name,
                      "start_ms": start, "end_ms": end})

    if r.sent > r.due:
        child("client.wait", ms(r.due), ms(r.sent))
    at = ms(r.sent)
    for stage in ("queue", "coalesce", "execute", "stitch"):
        if stage in r.timing:
            child(f"server.{stage}", at, at + r.timing[stage])
            at += r.timing[stage]
    child("client.gap", at, ms(r.done))
    return spans


def lib_metrics(run, workload: str, trace: bool):
    m = Metrics()
    m.common(run, workload, [(t1 - t0) * 1e3 for _, t0, t1, _ in run.calls],
             [t0 for _, t0, _, _ in run.calls], [(t1 - t0) * 1e3 for t0, t1, _, _ in run.writes],
             [cpu * 1e3 for _, _, cpu, _ in run.writes])
    m.set("peak_rss_mib", run.peak_rss_mib, process="benchmark process")
    read_s = sum(t1 - t0 for _, t0, t1, _ in run.calls)
    read_cpu_s = sum(cpu for _, _, _, cpu in run.calls)
    queries = BATCH * len(run.calls)
    m.set("query_per_s", queries / read_s, read_s=read_s, calls=len(run.calls))
    m.set("query_per_cpu_s", queries / read_cpu_s, read_cpu_s=read_cpu_s,
          what="queries answered per second of CPU in batch calls")
    m.set("throughput_rps", (queries + len(run.writes)) / run.window_s, window_s=run.window_s)
    attempted = queries + len(run.writes)
    failed = run.checker.failures
    m.set("fail_frac", failed / attempted, failed=failed, attempted=attempted)
    if not trace:
        return m, attempted, failed, []

    counters = run.window_counters
    for kind in ("range", "knn", "distance"):
        times = [(t1 - t0) * 1e3 for k, t0, t1, _ in run.calls if k == kind]
        m.set(f"core.{kind}_batch_ms", median(times), count=len(times))
    m.set("storage.pages_per_query", run.pages / queries)
    pruned = counters.get("knn_refine.pruned", 0)
    refined = counters.get("knn_refine.refined", 0)
    m.set("core.knn_refine.prune_ratio", pruned / (pruned + refined) if pruned + refined else 0.0)
    reports = [result.report for _, _, _, result in run.writes]
    m.set("core.update.touched_nodes", _mean([r.touched_nodes for r in reports]))
    m.set("core.update.recompressed_nodes", _mean([r.recompressed_nodes for r in reports]))
    gauge = lambda name: median([g.get(name, 0.0) for g in run.build_gauges])  # noqa: E731
    m.set("build.sweep_s", gauge("construction.sweep_seconds"))
    m.set("build.total_s", gauge("construction.total_seconds"))
    for phase in ("contract", "labels", "buckets"):
        m.set(f"backends.hub.build.{phase}_s", gauge(f"backend.hub.build.{phase}_seconds"))
    m.set("backends.hub.update.repaired", counters.get("backend.hub.update.repaired", 0))
    m.set("backends.hub.update.rebuilt", counters.get("backend.hub.update.rebuilt", 0))
    m.set("trace.overhead_ms_per_op",
          run.trace_cost_s * 1e3 / (len(run.calls) + len(run.writes)))
    return m, attempted, failed, run.spans


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    if workload.startswith("serve-"):
        from serve_load import run_served

        run = run_served(workload == "serve-mixed", seed, seconds, trace, SETUP_REPEATS)
        return run.checker, served_metrics(run, workload, trace)
    from lib_load import run_lib

    run = run_lib(workload.removeprefix("lib-"), seed, seconds, trace, SETUP_REPEATS)
    return run.checker, lib_metrics(run, workload, trace)


def workload_config(workload: str) -> dict:
    import common
    import serve_load

    config = {
        "nodes": common.NUM_NODES,
        "density": common.DENSITY,
        "network_seed": common.NETWORK_SEED,
        "range_radius": common.RANGE_RADIUS,
        "knn_k": common.KNN_K,
        "write_pool": common.WRITE_POOL,
        "write_sigma": common.WRITE_SIGMA,
        "write_clamp": common.WRITE_CLAMP,
        "setup_repeats": SETUP_REPEATS,
        "read_tail_percentile": WORKLOADS[workload]["read_tail"],
        "writes_in_write_p50": WORKLOADS[workload]["writes"],
    }
    if workload.startswith("serve-"):
        config.update(serve_config="default, workers=1", read_mix=common.READ_MIX)
        if workload == "serve-mixed":
            config.update(loop="open, jittered-periodic arrivals",
                          connections=serve_load.CONNECTIONS,
                          rate_rps=serve_load.MIXED_RATE, write_every=serve_load.WRITE_EVERY)
        else:
            config.update(loop="closed, one thread", connections=serve_load.READ_CONNECTIONS,
                          idle_probe_writes=serve_load.PROBE_WRITES)
    else:
        config.update(batch=BATCH, cycle="range, knn, distance batches, then one set_weight")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarize", action="store_true",
                        help="fold the reports under .perfbench/ into run-to-run spreads")
    args = parser.parse_args(argv)
    if args.summarize:
        return summarize()
    if args.workload is None:
        parser.error("--workload is required")
    require_program()
    trace = bool(args.trace)

    checker, (metrics, attempted, failed, spans) = run_workload(
        args.workload, args.seed, args.seconds, trace
    )
    correct = checker.failures == 0
    names = {n: unit for n, (unit, *_) in LAYERS.items()} if trace else END_TO_END
    for name in names:
        metrics.values.setdefault(name, 0.0)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_stamp(),
        "config": workload_config(args.workload),
        "correct": correct,
        "checked": checker.checked,
        "mismatch_examples": checker.examples,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.values,
        "notes": metrics.notes,
        "layers": {n: {"layer": layer, "source": source, "should_move": moves}
                   for n, (_, layer, source, moves) in LAYERS.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)

    host = report["host"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} scipy={host['scipy']}")
    print(f"  {checker.checked} answers checked against the Dijkstra oracle, "
          f"{checker.failures} mismatches")
    for example in checker.examples:
        print(f"  mismatch: {example}")
    shown = names if trace else {**END_TO_END, **INFORMATIONAL}
    for name, unit in shown.items():
        note = " ".join(f"{k}={_fmt(v)}" for k, v in metrics.notes.get(name, {}).items()
                        if k not in ("repeats", "samples"))
        print(f"  {name:36s} {_fmt(metrics.values[name]):>12s} {unit:6s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.values[n], "unit": u} for n, u in names.items()},
    }))
    return 0 if correct else 1


def _fmt(value) -> str:
    if isinstance(value, list):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def summarize() -> int:
    """Run-to-run medians and spreads per workload, and tracing overhead:
    the traced runs' end-to-end medians over the untraced ones."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(OUT.glob("*.json")):
        report = json.loads(path.read_text())
        groups.setdefault((report["workload"], report["trace"]), []).append(report)
    if not groups:
        print(f"no reports under {OUT}")
        return 1
    for (workload, trace), reports in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in reports)
        print(f"{workload} trace={trace}: {len(reports)} runs, seeds {seeds}, "
              f"{sum(not r['correct'] for r in reports)} incorrect, "
              f"{sum(r['failed'] for r in reports)} failed of {sum(r['attempted'] for r in reports)}")
        names = list(LAYERS) if trace else [*END_TO_END, *INFORMATIONAL]
        traced = groups.get((workload, 1), [])
        for name in names:
            values = [v for r in reports if (v := r["metrics"].get(name)) is not None]
            if not values:
                continue
            line = f"  {name:36s} median {_fmt(median(values)):>10s}  rel IQR {rel_iqr(values):.3f}"
            over = [v for r in traced if (v := r["metrics"].get(name)) is not None]
            if not trace and over and median(values):
                line += f"  traced/untraced {median(over) / median(values):.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
