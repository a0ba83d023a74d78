"""The served workloads: a server child process and the load it receives.

The benchmark process is the load process.  It starts
``serve_proc.py`` as a child, so the server's CPU time and peak memory
are read from the child's ``/proc`` entries and stay apart from the
load generator's own.
"""

from __future__ import annotations

import http.client
import json
import queue
import select
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    KNN_K,
    RANGE_RADIUS,
    ROOT,
    Checker,
    cpu_seconds,
    host_ticks,
    make_inputs,
    mixed_schedule,
    oracle,
    peak_rss_mib,
    read_sequence,
    steal_share,
    write_trace,
)

#: Connections of serve-mixed's open loop; the server answers one
#: request per connection at a time.
CONNECTIONS = 2
#: Connections of serve-read's closed loop.  With two, the server's event
#: loop spent about half the window idle in the coalescer linger and in
#: cross-CPU wake-ups; eight outstanding reads keep it busy and coalesce
#: into batches.  One thread drives them all, so the load process adds a
#: single runnable thread to the server's on a 2-CPU host.
READ_CONNECTIONS = 8
READY_TIMEOUT_S = 120.0
#: Open-loop arrival rate of serve-mixed and its write share (one write
#: per block of ten arrivals).  At about 0.7 s per served write on a
#: 2-CPU host, 5 requests/s keeps the server about 40% busy with writes.
MIXED_RATE = 5.0
WRITE_EVERY = 10
#: Sequential writes on the idle server after the serve-read window.
PROBE_WRITES = 12
#: Fresh reads checked against the oracle of the final network.
FINAL_CHECKS = 300


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``serve_proc.py`` child; ``setup_s`` is spawn to first accept."""

    def __init__(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_proc.py"))],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("server child exited or timed out before ready")
            info = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.port = int(info["port"])
        self.index_mib = float(info["index_mib"])
        self.pid = self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
@dataclass
class Record:
    """One request as the client saw it (times are ``perf_counter``)."""

    op: tuple  # ("range"|"knn"|"distance", node, obj) or ("write", u, v, w)
    due: float
    sent: float
    done: float
    status: int | None  # None: connection error
    payload: dict | None
    timing: dict = field(default_factory=dict)  # Server-Timing, ms
    server_cpu_ms: float | None = None  # idle-server writes only

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def ok(self) -> bool:
        """Answered exactly: 200 and not flagged approximate."""
        return (
            self.status == 200
            and self.payload is not None
            and not self.payload.get("approximate", False)
        )


def read_path(kind: str, node: int, obj: int) -> str:
    if kind == "range":
        return f"/v1/range?node={node}&radius={RANGE_RADIUS}"
    if kind == "knn":
        return f"/v1/knn?node={node}&k={KNN_K}"
    return f"/v1/distance?node={node}&object={obj}"


def parse_server_timing(header: str | None) -> dict:
    out = {}
    for part in (header or "").split(","):
        name, _, dur = part.strip().partition(";dur=")
        if dur:
            out[name] = float(dur)
    return out


class Client:
    """One keep-alive connection; reconnects after a connection error."""

    def __init__(self, port: int, trace: bool) -> None:
        self.port = port
        self.trace = trace
        self.trace_cost_s = 0.0
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def close(self) -> None:
        self.conn.close()

    def call(self, op: tuple, due: float | None = None) -> Record:
        if op[0] == "write":
            _, u, v, w = op
            method, path = "POST", "/v1/edges"
            body = json.dumps({"op": "set_weight", "u": u, "v": v, "weight": w})
        else:
            method, path, body = "GET", read_path(*op), None
        sent = time.perf_counter()
        try:
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            data = response.read()
            payload = json.loads(data) if data else None
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return Record(op, sent if due is None else due, sent, time.perf_counter(), None, None)
        done = time.perf_counter()
        record = Record(op, sent if due is None else due, sent, done, response.status, payload)
        if self.trace:
            record.timing = parse_server_timing(response.getheader("Server-Timing"))
            self.trace_cost_s += time.perf_counter() - done
        return record

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(data)

    def get_text(self, path: str) -> str:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.read().decode()


def scrape(client: Client) -> dict[str, float]:
    """``/metrics`` samples, ``{name: value}`` (labels kept verbatim)."""
    out = {}
    for line in client.get_text("/metrics").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


# ----------------------------------------------------------------------
# load shapes
# ----------------------------------------------------------------------
class ReadConnection:
    """One keep-alive connection of the closed loop, read only when the
    selector reports data, so one thread can drive many of them."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: socket.socket | None = None
        self.open()

    def open(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, op: tuple) -> None:
        self.op, self.buf = op, b""
        self.sent = time.perf_counter()
        self.sock.sendall(f"GET {read_path(*op)} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode())

    def receive(self) -> tuple[int, dict, bytes] | None:
        """Take what has arrived: ``(status, headers, body)`` once the
        response is complete, else ``None``."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        head, sep, body = self.buf.partition(b"\r\n\r\n")
        if not sep:
            return None
        lines = head.decode("latin-1").split("\r\n")
        headers = {k.strip().lower(): v.strip() for k, _, v in (h.partition(":") for h in lines[1:])}
        length = int(headers.get("content-length", 0))
        if len(body) < length:
            return None
        return int(lines[0].split()[1]), headers, body[:length]


def closed_loop(port: int, ops: list, seconds: float, trace: bool):
    """``READ_CONNECTIONS`` connections driven by this one thread, each
    sending its next read when its last answer arrives, drawing from one
    shared sequence until ``seconds`` pass.  Bodies and ``Server-Timing``
    are parsed after the window.  Returns the records, sorted by send
    time, and the client time spent reading ``Server-Timing``."""
    cursor = iter(ops)
    selector = selectors.DefaultSelector()
    conns = [ReadConnection(port) for _ in range(READ_CONNECTIONS)]
    raw: list[tuple[Record, dict, bytes]] = []
    deadline = time.perf_counter() + seconds
    try:
        for conn in conns:
            conn.send(next(cursor))
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        active = len(conns)
        while active:
            for key, _ in selector.select():
                conn = key.data
                try:
                    reply = conn.receive()
                except OSError:
                    reply = (None, {}, b"")
                    selector.unregister(conn.sock)
                    conn.open()
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                if reply is None:
                    continue
                done = time.perf_counter()
                status, headers, body = reply
                raw.append((Record(conn.op, conn.sent, conn.sent, done, status, None), headers, body))
                if headers.get("connection", "").lower() == "close":
                    selector.unregister(conn.sock)
                    conn.open()
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                op = next(cursor, None) if done < deadline else None
                if op is None:
                    selector.unregister(conn.sock)
                    active -= 1
                else:
                    conn.send(op)
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    trace_cost = 0.0
    for record, headers, body in raw:
        try:
            record.payload = json.loads(body) if body else None
        except ValueError:
            record.status = None
        if trace:
            start = time.perf_counter()
            record.timing = parse_server_timing(headers.get("server-timing"))
            trace_cost += time.perf_counter() - start
    return sorted((r for r, _, _ in raw), key=lambda r: r.sent), trace_cost


def open_loop(port: int, schedule: list, trace: bool):
    """Send each ``(offset_s, op)`` when due over ``CONNECTIONS``
    connections; a request waiting for a free connection keeps its due
    time.  Returns the records, the generator's own lateness per request
    (ms) and the client time spent reading ``Server-Timing``."""
    work: queue.Queue = queue.Queue()
    results: list[list[Record]] = [[] for _ in range(CONNECTIONS)]
    clients = [Client(port, trace) for _ in range(CONNECTIONS)]

    def sender(slot: int) -> None:
        client = clients[slot]
        try:
            while (item := work.get()) is not None:
                due, op = item
                results[slot].append(client.call(op, due))
        finally:
            client.close()

    threads = [threading.Thread(target=sender, args=(s,)) for s in range(CONNECTIONS)]
    for t in threads:
        t.start()
    late_ms = []
    start = time.perf_counter() + 0.05
    for offset, op in schedule:
        due = start + offset
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        late_ms.append((time.perf_counter() - due) * 1e3)
        work.put((due, op))
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join()
    records = sorted((r for rs in results for r in rs), key=lambda r: r.due)
    return records, late_ms, sum(c.trace_cost_s for c in clients)


# ----------------------------------------------------------------------
# one served run
# ----------------------------------------------------------------------
@dataclass
class ServeRun:
    setup_s: list[float]
    index_mib: float
    peak_rss_mib: float
    window_s: float
    reads: list[Record]
    writes: list[Record]  # window writes (serve-mixed) or idle probe
    late_ms: list[float]
    cpu_s: float  # server child CPU time in the window
    steal_share: float  # of the machine's CPU time in the window
    window_ops: int
    metrics: tuple[dict, dict]  # /metrics before the window, after writes
    checker: Checker
    trace_cost_s: float


def run_served(mixed: bool, seed: int, seconds: float, trace: bool, repeats: int) -> ServeRun:
    inputs = make_inputs()
    dist0 = oracle(inputs.edges, inputs.weights, inputs.objects)
    rng = np.random.default_rng([seed, 1])
    if mixed:
        due, is_write = mixed_schedule(rng, MIXED_RATE, seconds, WRITE_EVERY)
        count = len(due)
        read_ops = iter(read_sequence(rng, inputs.objects, count))
        write_ops = iter(write_trace(inputs, dist0, count))
        schedule = [
            (float(t), ("write", *next(write_ops)) if w else next(read_ops))
            for t, w in zip(due, is_write)
        ]
    else:
        ops = read_sequence(rng, inputs.objects, int(seconds * 5000) + 1000)
        probe = [("write", *op) for op in write_trace(inputs, dist0, PROBE_WRITES)]
    warm = read_sequence(np.random.default_rng([seed, 2]), inputs.objects, 1000)

    server = None
    setup_s = []
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
            server = ServerProcess()
            setup_s.append(server.setup_s)
        closed_loop(server.port, warm, 60.0, False)
        admin = Client(server.port, False)
        before = scrape(admin)
        cpu0, ticks0 = cpu_seconds(server.pid), host_ticks()
        late_ms: list[float] = []
        if mixed:
            records, late_ms, trace_cost = open_loop(server.port, schedule, trace)
            start = min(r.due for r in records)
        else:
            start = time.perf_counter()
            records, trace_cost = closed_loop(server.port, ops, seconds, trace)
        window_s = max(r.done for r in records) - start
        cpu_s = cpu_seconds(server.pid) - cpu0
        steal = steal_share(ticks0, host_ticks())
        window_ops = len(records)
        if not mixed:
            prober = Client(server.port, trace)
            for op in probe:
                cpu0 = cpu_seconds(server.pid)
                records.append(prober.call(op))
                records[-1].server_cpu_ms = (cpu_seconds(server.pid) - cpu0) * 1e3
            prober.close()
            trace_cost += prober.trace_cost_s
        after = scrape(admin)
        rss = peak_rss_mib(server.pid)
        reads = [r for r in records if r.op[0] != "write"]
        written = [r for r in records if r.op[0] == "write"]

        # Correctness, outside the timed region.
        checker = Checker(inputs.objects)
        if not mixed:
            checker.use(dist0)
            _check_records(checker, reads)
        final = _final_weights(admin, inputs, written, checker)
        checker.use(oracle(inputs.edges, final, inputs.objects))
        fresh = read_sequence(np.random.default_rng([seed, 9]), inputs.objects, FINAL_CHECKS)
        _check_records(checker, [admin.call(op) for op in fresh], strict=True)
        admin.close()
    finally:
        if server is not None:
            server.stop()
    return ServeRun(
        setup_s=setup_s,
        index_mib=server.index_mib,
        peak_rss_mib=rss,
        window_s=window_s,
        reads=reads,
        writes=written,
        late_ms=late_ms,
        cpu_s=cpu_s,
        steal_share=steal,
        window_ops=window_ops,
        metrics=(before, after),
        checker=checker,
        trace_cost_s=trace_cost,
    )


def _check_records(checker: Checker, records: list[Record], strict: bool = False) -> None:
    """Check exact answers; with ``strict`` a non-exact one is a mismatch."""
    for r in records:
        if not r.ok:
            if strict:
                checker.fail(f"{r.op}: status {r.status}, payload {r.payload}")
            continue
        kind, node, obj = r.op
        if kind == "range":
            checker.range(node, r.payload["objects"])
        elif kind == "knn":
            checker.knn(node, r.payload["objects"])
        else:
            checker.distance(node, obj, r.payload["distance"])


def _final_weights(client: Client, inputs, written: list[Record], checker: Checker):
    """The served network's weights after the run, via ``GET /v1/edges``.

    Every edge must be an edge of the generated network.  An edge no
    acknowledged write touched keeps its base weight; otherwise it carries
    the weight of its last write, or of an earlier write still in flight
    when the last one was sent (two connections may reorder those).
    """
    m = len(inputs.weights)
    served = client.get_json(f"/v1/edges?limit={m}")["edges"]
    index = {(int(u), int(v)): i for i, (u, v) in enumerate(inputs.edges)}
    per_edge: dict[int, list[Record]] = {}
    for r in sorted((r for r in written if r.ok), key=lambda r: r.sent):
        per_edge.setdefault(index[(r.op[1], r.op[2])], []).append(r)
    allowed = {i: {float(w)} for i, w in enumerate(inputs.weights)}
    for i, writes in per_edge.items():
        last = writes[-1]
        allowed[i] = {float(r.op[3]) for r in writes if r is last or r.done >= last.sent}
    weights = inputs.weights.copy()
    seen = 0
    for u, v, w in served:
        i = index.get((min(u, v), max(u, v)))
        if i is None or float(w) not in allowed[i]:
            checker.fail(f"served edge ({u}, {v}, {w}) is not the last acknowledged weight")
            continue
        weights[i] = float(w)
        seen += 1
    if seen != m:
        checker.fail(f"served {seen} of {m} edges")
    return weights
