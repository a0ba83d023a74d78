"""Inputs, oracle, statistics and resource probes shared by the workloads.

Everything a workload sends to the program is generated here with the
benchmark's own random streams: the network and objects (through the
library's public generators), the write log, and, from ``--seed``, the
read sequence, the query batches and the arrival schedule.  Nothing here
reads ``repro.serve.loadgen`` or ``repro.workloads``, so a change to
those modules cannot change what the benchmark asks for.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One network for every run, as in the ``BENCH_*.json`` files, so run-to-run
#: spread is noise rather than a different graph; ``--seed`` draws the
#: queries, the write stream and the arrival schedule.
NUM_NODES = 6000
DENSITY = 0.01
NETWORK_SEED = 1959
RANGE_RADIUS = 40.0
KNN_K = 5
BATCH = 256
#: Read mix of the served workloads: 40% range, 40% kNN, 20% distance.
READ_MIX = (("range", 0.4), ("knn", 0.4), ("distance", 0.2))
#: Writes re-weight an edge to ``base * factor``; the factor is
#: log-normal, clamped, and quantized to 1/64 so every path length is an
#: exact binary fraction and index and oracle sums agree bit for bit.
WRITE_SIGMA = 0.35
WRITE_CLAMP = (0.5, 2.5)
WEIGHT_QUANTUM = 64
#: Edges the write stream perturbs.
WRITE_POOL = 64


def require_program() -> None:
    """Exit non-zero, printing nothing to stdout, without the sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """The network, its objects and its edge list."""

    network: object
    dataset: object
    objects: np.ndarray  # object node per dataset rank
    edges: np.ndarray  # (m, 2) int, u < v
    weights: np.ndarray  # (m,) float, base weights


def make_inputs() -> Inputs:
    from repro import random_planar_network, uniform_dataset

    network = random_planar_network(NUM_NODES, seed=NETWORK_SEED)
    dataset = uniform_dataset(network, density=DENSITY, seed=NETWORK_SEED)
    edge_list = list(network.edges())
    edges = np.array([(e.u, e.v) for e in edge_list], dtype=np.int64)
    weights = np.array([e.weight for e in edge_list], dtype=np.float64)
    objects = np.array(list(dataset), dtype=np.int64)
    return Inputs(network, dataset, objects, edges, weights)


def read_sequence(rng: np.random.Generator, objects: np.ndarray, count: int):
    """``count`` served reads as ``(kind, node, object)`` tuples."""
    kinds = [kind for kind, _ in READ_MIX]
    shares = [share for _, share in READ_MIX]
    picks = rng.choice(len(kinds), size=count, p=shares)
    nodes = rng.integers(0, NUM_NODES, size=count)
    objs = objects[rng.integers(0, len(objects), size=count)]
    return [
        (kinds[p], int(n), int(o)) for p, n, o in zip(picks, nodes, objs)
    ]


def write_trace(inputs: Inputs, dist, count: int):
    """``count`` ``(u, v, weight)`` re-weights: one fixed traffic log.

    Traffic reports concern roads that carry traffic, so the writes touch
    a sample of ``WRITE_POOL`` edges on some object's shortest-path tree
    (an edge ``(u, v)`` with ``d(o, v) == d(o, u) + w``); every write then
    does §5.4 work instead of a no-op re-weight of an unused road.  A run
    holds only tens of writes, each costing a different amount, so the
    log is the same for every ``--seed``: the run-to-run spread of write
    latency is then noise, not a different draw of edges.
    """
    rng = np.random.default_rng(NETWORK_SEED)
    u, v, w = inputs.edges[:, 0], inputs.edges[:, 1], inputs.weights
    on_tree = np.zeros(len(w), dtype=bool)
    for row in dist:
        on_tree |= (row[v] == row[u] + w) | (row[u] == row[v] + w)
    candidates = np.flatnonzero(on_tree)
    pool = rng.choice(candidates, size=min(WRITE_POOL, len(candidates)), replace=False)
    out = []
    for e in pool[rng.integers(len(pool), size=count)]:
        factor = float(np.clip(np.exp(rng.normal(0.0, WRITE_SIGMA)), *WRITE_CLAMP))
        weight = max(round(w[e] * factor * WEIGHT_QUANTUM), 1) / WEIGHT_QUANTUM
        out.append((int(u[e]), int(v[e]), weight))
    return out


def mixed_schedule(rng: np.random.Generator, rate: float, seconds: float, write_every: int):
    """Arrival offsets (s) and which arrivals are writes.

    One arrival per ``1/rate`` slot at a uniform position inside it, and
    one write per block of ``write_every`` arrivals at a seeded slot of
    the block.  A 20-second window holds only about ten writes, so the
    schedule spreads them evenly instead of leaving their spacing to a
    Poisson draw, which would dominate the run-to-run spread.
    """
    count = int(round(rate * seconds))
    due = (np.arange(count) + rng.uniform(0.0, 1.0, size=count)) / rate
    is_write = np.zeros(count, dtype=bool)
    for block in range(0, count - write_every + 1, write_every):
        is_write[block + rng.integers(write_every)] = True
    return due, is_write


# ----------------------------------------------------------------------
# Dijkstra oracle
# ----------------------------------------------------------------------
def oracle(edges: np.ndarray, weights: np.ndarray, objects: np.ndarray):
    """Exact distances, one row per object rank: ``(objects, nodes)``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    u, v = edges[:, 0], edges[:, 1]
    graph = csr_matrix(
        (np.r_[weights, weights], (np.r_[u, v], np.r_[v, u])),
        shape=(NUM_NODES, NUM_NODES),
    )
    return dijkstra(graph, directed=True, indices=objects)


class Checker:
    """Compares answers with the current oracle matrix; counts mismatches."""

    def __init__(self, objects: np.ndarray) -> None:
        self.objects = objects
        self.rank = {int(o): r for r, o in enumerate(objects)}
        self.dist: np.ndarray | None = None
        self.checked = 0
        self.failures = 0
        self.examples: list[str] = []

    def use(self, dist: np.ndarray) -> None:
        """Check later answers against ``dist`` (``oracle`` output)."""
        self.dist = dist

    def fail(self, what: str) -> None:
        self.failures += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def range(self, node: int, answer) -> None:
        self.checked += 1
        want = set(self.objects[self.dist[:, node] <= RANGE_RADIUS].tolist())
        if set(int(o) for o in answer) != want or len(answer) != len(want):
            self.fail(f"range node={node}: {sorted(answer)} != {sorted(want)}")

    def knn(self, node: int, answer) -> None:
        self.checked += 1
        col = self.dist[:, node]
        want = np.sort(col)[: min(KNN_K, int(np.isfinite(col).sum()))]
        got = np.sort([col[self.rank[int(o)]] for o in answer])
        if len(set(int(o) for o in answer)) != len(answer) or not np.array_equal(
            got, want
        ):
            self.fail(f"knn node={node}: {list(answer)}")

    def distance(self, node: int, obj: int, answer) -> None:
        self.checked += 1
        want = float(self.dist[self.rank[obj], node])
        if answer is None:
            answer = math.inf
        if float(answer) != want:
            self.fail(f"distance {node}->{obj}: {answer} != {want}")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p)) if len(values) else 0.0


def supported_tail(values) -> float | None:
    """The highest of p50/p75/p90/p99/p99.9 with at least ten samples
    beyond it, or ``None`` when fewer than 20 samples support none."""
    chosen = None
    for p in (50.0, 75.0, 90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            chosen = p
    return chosen


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def rel_iqr(values) -> float:
    """Distance between first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# space and memory
# ----------------------------------------------------------------------
def index_mib(index) -> float:
    """Bytes the index stores, the same definition for both families.

    Signature: simulated pages (signatures + adjacency) plus the object
    table; hierarchy backends: their label/bucket arrays plus the object
    table.
    """
    if hasattr(index, "storage_report"):
        report = index.storage_report()
        total = report.total_bytes + index.object_table.size_bytes()
    else:
        stats = index.stats()
        total = stats["index_bytes"] + stats["object_table_bytes"]
    return total / 2**20


def peak_rss_mib(pid: int | None = None) -> float:
    """High-water resident set (``VmHWM``) of ``pid`` (default: self)."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def cpu_seconds(pid: int) -> float:
    """CPU time the threads of ``pid`` have run so far, to the nanosecond
    (the scheduler's run time, which leaves out time the hypervisor took
    from the virtual CPU, as ``time.process_time`` does for this process)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # thread ended
    return total / 1e9


def host_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine so far."""
    fields = [int(f) for f in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took between two ``host_ticks``."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0
