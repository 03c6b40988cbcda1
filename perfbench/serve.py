"""serve-* workloads: open-loop load against a real ``repro serve --transport async``.

The served graph is the planted-community model of
``benchmarks/bench_streaming.py`` (80 dense blocks over a sparse
background).  Every input is generated from ``--seed`` before the clock
starts: the graph, the read vertex ids, the Poisson arrival schedule and
every update batch.  One client process, one event loop, at most two
keep-alive connections: reads on one, updates on the other.

Reads are timed from their due time, so a stall also charges the reads
queued behind it; generator lateness is reported beside them.  Update
batches touch disjoint edges, so any subset of them applies cleanly in any
order and the oracle state after the run is the model graph with every
acknowledged batch applied.
"""

from __future__ import annotations

import asyncio
import bisect
import ctypes
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import time
from collections import Counter
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR, SETUP_REPEATS, WORK_DIR, WorkloadResult, cached_oracle, cpu_seconds, median,
    percentile, python, python_env, timed_setup_probe, vm_hwm_mb,
)

READ_P99_LIMIT_MS = 25.0
MAX_BATCH_EDGES = 40
#: Fixed offered read rates (q/s): serve-read alone, and beside updates.
READ_RATE = {"serve-read": 2000.0, "serve-mixed": 1000.0}
UPDATE_RATE = 5.0
PROBE_SECONDS = 1.5
SERVER_START_TIMEOUT = 60.0
RESPONSE_GRACE = 5.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class CommunityModel:
    """Planted-community graph plus disjoint session/background update batches."""

    def __init__(self, seed: int, scale: float = 1.0):
        from repro.datasets.generators import planted_blocks

        rng = np.random.default_rng([seed, 0x5E7E])
        n_blocks = max(6, int(round(80 * scale)))
        self.blocks = [(int(rng.integers(8, 20)), int(rng.integers(6, 14)))
                       for _ in range(n_blocks)]
        self.u_ranges, self.v_ranges = [], []
        u_cursor = v_cursor = 0
        for block_u, block_v in self.blocks:
            self.u_ranges.append((u_cursor, u_cursor + block_u))
            self.v_ranges.append((v_cursor, v_cursor + block_v))
            u_cursor += block_u
            v_cursor += block_v
        self.background_u = (u_cursor, u_cursor + max(40 * n_blocks, 800))
        self.background_v = (v_cursor, v_cursor + max(24 * n_blocks, 480))
        self.graph = planted_blocks(
            self.background_u[1], self.background_v[1], self.blocks,
            background_edges=22 * n_blocks, block_density=0.85, seed=rng, name="community",
        )
        self.rng = rng

    def batches(self, count: int) -> list[dict]:
        """``count`` batches of at most ``MAX_BATCH_EDGES`` edges; no edge is touched twice.

        Three of every four are session bursts inside two random blocks, the
        fourth is churn in the sparse background.
        """
        edges = self.graph.edge_array()
        present = set(map(tuple, edges.tolist()))
        touched: set = set()
        out = []
        for index in range(count):
            if index % 4 == 3:
                regions = [(self.background_u, self.background_v)]
            else:
                chosen = self.rng.choice(len(self.blocks), size=2, replace=False)
                regions = [(self.u_ranges[b], self.v_ranges[b]) for b in chosen]
            # Session regions: 5 deletes + 15 inserts each; background: 20 + 20.
            n_delete = MAX_BATCH_EDGES // 2 if len(regions) == 1 else MAX_BATCH_EDGES // 8
            n_insert = MAX_BATCH_EDGES // len(regions) - n_delete
            deletes, inserts = [], []
            for u_range, v_range in regions:
                mask = (edges[:, 0] >= u_range[0]) & (edges[:, 0] < u_range[1])
                candidates = [pair for pair in map(tuple, edges[mask].tolist())
                              if pair not in touched]
                picks = self.rng.permutation(len(candidates))[:n_delete]
                taken = [candidates[i] for i in picks]
                deletes.extend(taken)
                touched.update(taken)
                found = 0
                for _ in range(40 * n_insert):
                    if found >= n_insert:
                        break
                    pair = (int(self.rng.integers(*u_range)), int(self.rng.integers(*v_range)))
                    if pair in present or pair in touched:
                        continue
                    inserts.append(pair)
                    touched.add(pair)
                    found += 1
            out.append({"insert": [list(p) for p in inserts],
                        "delete": [list(p) for p in deletes]})
        return out


def read_stream(seed: int, tag: int, n: int, n_vertices: int):
    """Unit-rate Poisson arrival offsets and uniform vertex ids for ``n`` reads."""
    rng = np.random.default_rng([seed, 0x4EAD, tag])
    offsets = np.cumsum(rng.exponential(1.0, size=n))
    vertices = rng.integers(0, n_vertices, size=n)
    return offsets, vertices


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One served artifact: the real CLI, or the traced launcher."""

    def __init__(self, artifact: Path, *, traced: bool, name: str):
        # The log (the port announcement, one line per request) and the trace
        # summary live beside the artifact, in the run's scratch directory.
        self.log_path = artifact.parent / f"{name}.log"
        self.summary_path = artifact.parent / f"{name}.trace.json"
        args = ["serve", str(artifact), "--transport", "async", "--port", "0"]
        if traced:
            argv = [python(), str(BENCH_DIR / "launcher.py"), str(self.summary_path), *args]
        else:
            argv = [python(), "-m", "repro", *args]
        self.started = time.perf_counter()
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=self._log, stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL, env=python_env(),
                                     preexec_fn=_server_preexec)
        self.host, self.port = "127.0.0.1", None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers 200; returns seconds since spawn."""
        deadline = self.started + SERVER_START_TIMEOUT
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.log_path.read_text()[-2000:]}")
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    address = line.split(" on http://", 1)[1].split()[0]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
            time.sleep(0.005)
        while True:
            try:
                status, _ = http_request(self.host, self.port, "GET", "/healthz", timeout=5.0)
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server never became healthy: {self.log_path.read_text()[-2000:]}")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._log.close()

    def trace_summary(self) -> dict:
        return json.loads(self.summary_path.read_text(encoding="utf-8"))


def _server_preexec() -> None:
    """Have the kernel send SIGTERM to the server if the benchmark dies first.

    SIGINT is reset to its default too: a caller that started the benchmark
    in the background may have left it ignored, and the server stops on it.
    """
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def http_request(host: str, port: int, method: str, target: str, body=None,
                 timeout: float = 30.0) -> tuple[int, bytes]:
    """One blocking request on a fresh connection (set-up and checks only)."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {target} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head.encode("latin-1") + payload)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head_end = raw.index(b"\r\n\r\n")
    return int(raw[9:12]), raw[head_end + 4:]


def build_artifact(seed: int, scale: float, path: Path) -> None:
    """Set-up work the user pays once per deployment: decompose and persist."""
    from repro.service.build import build_index_artifact

    model = CommunityModel(seed, scale)
    build_index_artifact(model.graph, path, side="U", overwrite=True)


# ----------------------------------------------------------------------
# Open-loop client
# ----------------------------------------------------------------------
async def _connect(server: Server):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return reader, writer


async def _read_response(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    at = head.find(b"Content-Length: ")
    length = int(head[at + 16: head.index(b"\r", at)]) if at >= 0 else 0
    body = await reader.readexactly(length) if length else b""
    return int(head[9:12]), body


class Phase:
    """Sent/ok/failed counts, latencies and lateness of one load phase."""

    def __init__(self, name: str, rate: float):
        self.name, self.rate = name, rate
        self.sent = self.ok = self.failed = 0
        self.latency_ms: list = []
        self.late_ms: list = []
        self.records: list = []  # (vertex, theta, sent_at, answered_at) for the oracle
        self.backlog_growing = False
        self.broken = False

    def row(self) -> dict:
        return {"phase": self.name, "rate": self.rate, "sent": self.sent, "ok": self.ok,
                "failed": self.failed}

    def passes(self) -> bool:
        return (self.failed == 0 and self.ok > 0 and not self.backlog_growing and not self.broken
                and percentile(self.latency_ms, 99) <= READ_P99_LIMIT_MS)


async def _read_phase(conn, phase: Phase, offsets, vertices, duration: float) -> None:
    reader, writer = conn
    rate = phase.rate
    n = int(np.searchsorted(offsets, duration * rate))
    start = time.perf_counter() + 0.01
    due = (start + offsets[:n] / rate).tolist()
    ids = vertices[:n].tolist()
    sent_at = [0.0] * n

    async def sender():
        i = 0
        while i < n:
            now = time.perf_counter()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                now = time.perf_counter()
            parts = []
            while i < n and due[i] <= now:
                parts.append(b"GET /theta?vertex=%d HTTP/1.1\r\nHost: b\r\n\r\n" % ids[i])
                phase.late_ms.append((now - due[i]) * 1000.0)
                sent_at[i] = now
                i += 1
            writer.write(b"".join(parts))
            phase.sent += len(parts)
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()

    async def receiver():
        for k in range(n):
            status, body = await _read_response(reader)
            now = time.perf_counter()
            phase.latency_ms.append((now - due[k]) * 1000.0)
            theta = None
            if status == 200:
                try:
                    answer = json.loads(body)
                    theta = answer["theta"] if answer.get("vertex") == ids[k] else None
                except (ValueError, KeyError, TypeError, AttributeError):
                    theta = None
            if theta is None:
                phase.failed += 1
            else:
                phase.ok += 1
            phase.records.append((ids[k], theta, sent_at[k], now))

    send_task = asyncio.ensure_future(sender())
    try:
        await asyncio.wait_for(receiver(), timeout=duration + RESPONSE_GRACE)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
        # Unanswered reads are failures; the connection is out of step now.
        phase.failed += n - len(phase.records)
        phase.broken = True
    finally:
        await send_task
    if not phase.latency_ms:
        return
    quarter = max(1, len(phase.latency_ms) // 4)
    early, late = phase.latency_ms[:quarter], phase.latency_ms[-quarter:]
    phase.backlog_growing = median(late) > 2.0 * median(early) + 2.0


async def _update_phase(conn, batches: list, rate: float, duration: float, log: list) -> None:
    """Send ``batches`` at a fixed rate (open loop); log (send, answer, status, payload)."""
    reader, writer = conn
    n = min(len(batches), int(duration * rate))
    start = time.perf_counter() + 0.5 / rate
    bodies = [json.dumps(batch).encode() for batch in batches[:n]]
    sent_at = [0.0] * n

    async def sender():
        for k in range(n):
            delay = start + k / rate - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent_at[k] = time.perf_counter()
            writer.write(b"POST /update HTTP/1.1\r\nHost: b\r\nContent-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(bodies[k]) + bodies[k])

    async def receiver():
        for k in range(n):
            status, body = await _read_response(reader)
            try:
                payload = json.loads(body)
            except ValueError:
                payload = None
            log.append((k, sent_at[k], time.perf_counter(), status, payload))

    send_task = asyncio.ensure_future(sender())
    try:
        await asyncio.wait_for(receiver(), timeout=duration + 30.0)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
        for k in range(len(log), n):  # unanswered updates are failures
            log.append((k, sent_at[k], None, 0, None))
    finally:
        await send_task


async def _rate_search(conn, seed: int, n_vertices: int, start_rate: float, budget: float,
                       phases: list) -> float:
    """Highest offered rate meeting the p99 limit with no failures and no growing backlog."""
    lo, hi = start_rate, None
    deadline = time.perf_counter() + budget
    tag = 10
    while time.perf_counter() + PROBE_SECONDS + 0.5 < deadline:
        rate = lo * 2 if hi is None else math.sqrt(lo * hi)
        if hi is not None and hi / lo < 1.08:
            break
        tag += 1
        offsets, vertices = read_stream(seed, tag, int(rate * PROBE_SECONDS * 1.5) + 16, n_vertices)
        phase = Phase(f"search@{rate:.0f}", rate)
        phases.append(phase)
        await _read_phase(conn, phase, offsets, vertices, PROBE_SECONDS)
        if phase.broken:
            break
        if phase.passes():
            lo = rate
        else:
            hi = rate
        await asyncio.sleep(0.2)
    return lo


async def _traffic(server: Server, workload: str, seed: int, seconds: float, n_vertices: int,
                   batches: list, search_seconds: float = 0.0):
    """The workload's load against one server: phases, update log, max rate."""
    rate = READ_RATE[workload]
    offsets, vertices = read_stream(seed, 1, int(rate * seconds * 1.5) + 64, n_vertices)
    fixed = Phase(f"reads@{rate:.0f}", rate)
    phases, update_log = [fixed], []
    conn = await _connect(server)
    try:
        if workload == "serve-mixed":
            update_conn = await _connect(server)
            try:
                await asyncio.gather(
                    _read_phase(conn, fixed, offsets, vertices, seconds),
                    _update_phase(update_conn, batches, UPDATE_RATE, seconds, update_log))
            finally:
                update_conn[1].close()
            return phases, update_log, None
        await _read_phase(conn, fixed, offsets, vertices, seconds)
        max_rate = None
        if search_seconds > 0 and not fixed.broken:
            max_rate = await _rate_search(conn, seed, n_vertices, rate, search_seconds, phases)
        return phases, update_log, max_rate
    finally:
        conn[1].close()


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _bup_theta(n_u: int, n_v: int, edges) -> np.ndarray:
    from repro import BipartiteGraph, bup_decomposition

    graph = BipartiteGraph(n_u, n_v, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return bup_decomposition(graph, "U").tip_numbers.astype(np.int64)


def model_theta(model: CommunityModel, seed: int, scale: float) -> np.ndarray:
    """From-scratch BUP tip numbers of the model graph, cached per input."""
    graph = model.graph
    key = f"community-scale{scale!r}-seed{seed}-U"
    return np.asarray(cached_oracle(key, lambda: _bup_theta(
        graph.n_u, graph.n_v, graph.edge_array()).tolist()), dtype=np.int64)


def butterfly_components(n_u: int, edges: np.ndarray) -> np.ndarray:
    """Label ``U`` vertices by connectivity through shared butterflies.

    Two ``U`` vertices are linked when they share at least two ``V``
    neighbours.  A vertex's tip number depends only on the butterflies of
    its component, so components untouched by an update keep theirs.
    """
    edges = edges[np.lexsort((edges[:, 0], edges[:, 1]))]
    cuts = np.flatnonzero(np.diff(edges[:, 1])) + 1
    keys = []
    for group in np.split(edges[:, 0], cuts):
        if group.size > 1:
            left, right = np.triu_indices(group.size, 1)
            keys.append(group[left] * n_u + group[right])
    parent = list(range(n_u))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if keys:
        unique, counts = np.unique(np.concatenate(keys), return_counts=True)
        for key in unique[counts >= 2].tolist():
            a, b = find(key // n_u), find(key % n_u)
            if a != b:
                parent[a] = b
    return np.array([find(x) for x in range(n_u)], dtype=np.int64)


class StateOracle:
    """Tip numbers after every prefix of the acknowledged update batches.

    Each batch re-peels, from scratch, only the butterfly components (of the
    union of every state's edges) that contain one of its endpoints.
    """

    def __init__(self, model: CommunityModel, theta0: np.ndarray, all_batches: list):
        graph = model.graph
        self.n_u, self.n_v = graph.n_u, graph.n_v
        self.edges = set(map(tuple, graph.edge_array().tolist()))
        inserted = [pair for batch in all_batches for pair in batch["insert"]]
        union = np.concatenate([graph.edge_array(),
                                np.asarray(inserted, dtype=np.int64).reshape(-1, 2)])
        self.components = butterfly_components(self.n_u, union)
        self.theta = theta0.copy()
        self.history: dict = {}  # vertex -> [(state, theta), ...] after state 0

    def apply(self, state: int, batch: dict) -> None:
        for u, v in batch["delete"]:
            self.edges.discard((u, v))
        for u, v in batch["insert"]:
            self.edges.add((u, v))
        seeds = [u for u, _ in batch["insert"] + batch["delete"]]
        if not seeds:
            return
        inside = np.isin(self.components, self.components[seeds])
        current = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        local = current[inside[current[:, 0]]]
        members = np.flatnonzero(inside)
        theta = np.zeros(members.size, dtype=np.int64)
        if local.size:
            u_ids, u_local = np.unique(local[:, 0], return_inverse=True)
            v_ids, v_local = np.unique(local[:, 1], return_inverse=True)
            peeled = _bup_theta(u_ids.size, v_ids.size, np.stack([u_local, v_local], axis=1))
            theta[np.searchsorted(members, u_ids)] = peeled
        changed = members[theta != self.theta[members]]
        for vertex in changed.tolist():
            self.history.setdefault(vertex, []).append(
                (state, int(theta[np.searchsorted(members, vertex)])))
        self.theta[members] = theta

    def valid(self, vertex: int, theta0: np.ndarray, low: int, high: int) -> set:
        """Every tip number ``vertex`` had in states ``low..high``."""
        value, values = int(theta0[vertex]), set()
        for state, new in self.history.get(vertex, ()):
            if state > high:
                break
            if state <= low:
                value = new
            else:
                values.add(new)
        values.add(value)
        return values

    def final_graph_theta(self) -> np.ndarray:
        edges = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        return _bup_theta(self.n_u, self.n_v, edges)


# ----------------------------------------------------------------------
# Workload runs
# ----------------------------------------------------------------------
#: Share of an untraced serve-read run spent at the fixed rate (the rest
#: searches for the highest rate that meets the latency limit).
FIXED_SHARE = 0.5


def _setup(report, workload, seed, scale, workdir: Path, servers: list) -> tuple[Server, Path]:
    """Build and serve the artifact ``SETUP_REPEATS`` times; keep the last server."""
    samples = []
    for attempt in range(SETUP_REPEATS):
        artifact = workdir / f"setup{attempt}.tipidx"
        built = timed_setup_probe(workload, seed, scale, artifact)
        server = Server(artifact, traced=False, name=f"setup{attempt}")
        servers.append(server)
        samples.append(built + server.wait_ready())
        if attempt < SETUP_REPEATS - 1:
            server.stop()
            shutil.rmtree(artifact, ignore_errors=True)
    report.add("setup_s", median(samples), "s", len(samples))
    return server, artifact


def _served_theta(report, artifact: Path, theta0: np.ndarray) -> np.ndarray:
    """The artifact's tip numbers, checked once against the from-scratch oracle."""
    from repro.service.artifacts import load_artifact

    served = np.asarray(load_artifact(artifact, mmap=False).arrays["tip_numbers"], dtype=np.int64)
    if not np.array_equal(served, theta0):
        report.oracle_ok = False
        report.problems.append("served artifact's tip numbers disagree with the BUP oracle")
    return served


def _fetch_all_theta(server: Server, n_u: int) -> np.ndarray | None:
    status, body = http_request(server.host, server.port, "POST", "/theta/batch",
                                {"vertices": list(range(n_u))}, timeout=60.0)
    if status != 200:
        return None
    return np.asarray(json.loads(body)["thetas"], dtype=np.int64)


def _check(report, workload, model, theta0, expected, phases, update_log, batches, final):
    """Count every answer that disagrees with the oracle as a failure."""
    for phase in phases:
        report.attempted += phase.sent
        report.failed += phase.failed
        report.phases.append(phase.row())
    if workload == "serve-read":
        for phase in phases:
            wrong = sum(1 for vertex, theta, _, _ in phase.records
                        if theta is not None and theta != expected[vertex])
            if wrong:
                report.fail(f"{phase.name}: {wrong} reads disagree with the artifact", wrong)
        return
    acked = [(sent, answered, k) for k, sent, answered, status, _ in update_log if status == 200]
    report.attempted += len(update_log)
    rejected = len(update_log) - len(acked)
    if rejected:
        report.fail(f"{rejected} updates failed", rejected)
    report.phases.append({"phase": f"updates@{UPDATE_RATE:g}", "sent": len(update_log),
                          "ok": len(acked), "failed": rejected})
    oracle = StateOracle(model, theta0, batches)
    for state, (_, _, k) in enumerate(acked, 1):
        oracle.apply(state, batches[k])
    ack_times = [answered for _, answered, _ in acked]
    send_times = [sent for sent, _, _ in acked]
    wrong = 0
    for vertex, theta, sent, answered in phases[0].records:
        if theta is None:
            continue
        low = bisect.bisect_right(ack_times, sent)
        high = bisect.bisect_right(send_times, answered)
        if theta not in oracle.valid(vertex, expected, low, high):
            wrong += 1
    if wrong:
        report.fail(f"{wrong} reads beside updates disagree with every state they could see", wrong)
    from_scratch = oracle.final_graph_theta()
    if not np.array_equal(from_scratch, oracle.theta):
        report.oracle_ok = False
        report.problems.append("component-wise state oracle disagrees with a full BUP peel")
    if final is None or not np.array_equal(final, from_scratch):
        report.fail("served tip numbers after the run disagree with the from-scratch peel")


def _read_metrics(report, fixed: Phase) -> None:
    n = len(fixed.latency_ms)
    report.add("read_p50_ms", percentile(fixed.latency_ms, 50), "ms", n)
    report.add("read_p90_ms", percentile(fixed.latency_ms, 90), "ms", n)
    report.add("read_p99_ms", percentile(fixed.latency_ms, 99), "ms", n)
    report.add("gen.late_p99_ms", percentile(fixed.late_ms, 99), "ms", len(fixed.late_ms))
    report.add("gen.late_max_ms", max(fixed.late_ms), "ms", len(fixed.late_ms))


def _update_latencies_ms(update_log) -> list:
    return [(answered - sent) * 1000.0 for _, sent, answered, status, _ in update_log
            if status == 200]


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float,
        corrupt: bool = False) -> WorkloadResult:
    report = WorkloadResult(workload)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    servers: list = []
    try:
        if trace:
            _run_traced(report, workload, seed, seconds, scale, workdir, servers)
        else:
            _run_untraced(report, workload, seed, seconds, scale, workdir, servers, corrupt)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def _inputs(report, workload, seed, scale, seconds, artifact):
    model = CommunityModel(seed, scale)
    theta0 = model_theta(model, seed, scale)
    expected = _served_theta(report, artifact, theta0)
    batches = model.batches(int(UPDATE_RATE * seconds) + 8) if workload == "serve-mixed" else []
    report.phases.append({"phase": "inputs", "n_u": model.graph.n_u, "n_v": model.graph.n_v,
                          "n_edges": model.graph.n_edges, "batches": len(batches)})
    return model, theta0, expected, batches


def _run_untraced(report, workload, seed, seconds, scale, workdir, servers, corrupt):
    server, artifact = _setup(report, workload, seed, scale, workdir, servers)
    model, theta0, expected, batches = _inputs(report, workload, seed, scale, seconds, artifact)
    n_u = model.graph.n_u
    if corrupt:
        # Self-check: one wrong expectation on a vertex every run reads first.
        first = int(read_stream(seed, 1, 1, n_u)[1][0])
        expected = expected.copy()
        expected[first] += 1
        theta0 = expected if workload == "serve-mixed" else theta0
    fixed_seconds = seconds * (FIXED_SHARE if workload == "serve-read" else 1.0)
    phases, update_log, max_rate = asyncio.run(_traffic(
        server, workload, seed, fixed_seconds, n_u, batches,
        search_seconds=seconds - fixed_seconds))
    report.add("peak_rss_mb", vm_hwm_mb(server.pid), "MiB", 1)
    final = _fetch_all_theta(server, n_u) if workload == "serve-mixed" else None
    server.stop()
    _check(report, workload, model, theta0, expected, phases, update_log, batches, final)
    _read_metrics(report, phases[0])
    if workload == "serve-read":
        report.add("read_max_qps", max_rate, "q/s", len(phases) - 1)
    else:
        latencies = _update_latencies_ms(update_log)
        report.add("update_p50_ms", percentile(latencies, 50), "ms", len(latencies))
        report.add("update_p90_ms", percentile(latencies, 90), "ms", len(latencies))


def _run_traced(report, workload, seed, seconds, scale, workdir, servers):
    import decompose

    base = workdir / "base.tipidx"
    build_artifact(seed, scale, base)
    model, theta0, expected, batches = _inputs(report, workload, seed, scale, seconds, base)
    n_u = model.graph.n_u

    # The decomposition behind the artifact, traced like decompose-*.
    _, _, results = decompose.trace_layers(report, model.graph, 0.0, f"{workload}-seed{seed}")
    for result in results:
        if not np.array_equal(result.tip_numbers, theta0):
            report.fail("traced decomposition of the served graph disagrees with the BUP oracle")
    build_rows = report.layers

    share = seconds * 0.4
    measured = {}
    for label, traced in (("traced", True), ("untraced", False)):
        artifact = workdir / f"{label}.tipidx"
        shutil.copytree(base, artifact)
        server = Server(artifact, traced=traced, name=label)
        servers.append(server)
        server.wait_ready()
        cpu_before = cpu_seconds(server.pid)
        phases, update_log, _ = asyncio.run(_traffic(
            server, workload, seed, share, n_u, batches))
        cpu = cpu_seconds(server.pid) - cpu_before
        stats = json.loads(http_request(server.host, server.port, "GET", "/stats?fresh=1")[1])
        final = _fetch_all_theta(server, n_u) if workload == "serve-mixed" else None
        server.stop()
        _check(report, workload, model, theta0, expected, phases, update_log, batches, final)
        measured[label] = (phases, update_log, stats, cpu, server)

    phases, update_log, stats, _, server = measured["traced"]
    summary = server.trace_summary()
    totals = summary["totals"]
    transport = stats.get("transport", {})
    coalescer, admission = transport.get("coalescer", {}), transport.get("updates", {})
    fixed = phases[0]

    def busy(name):
        return totals.get(name, {}).get("busy", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    report.add("service.gather_s", busy("service.gather"), "s", calls("service.gather"))
    report.add("service.gather_calls", calls("service.gather"), "count")
    report.add("service.coalesce_batch_mean", coalescer.get("mean_batch_size", 0.0), "ratio",
               coalescer.get("batches_flushed", 0))
    report.add("service.coalesce_wait_p50_ms", coalescer.get("coalesce_wait_p50_ms", 0.0), "ms")
    report.add("service.coalesce_wait_p99_ms", coalescer.get("coalesce_wait_p99_ms", 0.0), "ms")
    untraced_phases, _, _, untraced_cpu, _ = measured["untraced"]
    answered = max(1, untraced_phases[0].ok)
    report.add("service.cpu_us_per_read", untraced_cpu / answered * 1e6, "us", answered)
    handle = summary["update_handle_s"]
    report.add("service.handle_s", sum(handle), "s", len(handle))
    latencies = _update_latencies_ms(update_log)
    outside = [lat - h * 1000.0 for lat, h in zip(latencies, handle)]
    report.add("service.update_outside_ms", median(outside) if outside else 0.0, "ms", len(outside))
    report.add("service.admitted", admission.get("admitted", 0), "count")
    report.add("service.admission_rejected", admission.get("admission_rejections", 0), "count")
    report.add("streaming.repair_s", busy("streaming.repair"), "s", calls("streaming.repair"))
    answers = [payload for _, _, _, status, payload in update_log if status == 200 and payload]
    modes = Counter(payload.get("mode") for payload in answers)
    for mode in ("incremental", "clean", "fallback"):
        report.add(f"streaming.mode.{mode}", modes[mode], "count")
    report.add("streaming.repeeled_vertices",
               sum(int(payload.get("repeeled_vertices", 0)) for payload in answers), "count",
               len(answers))
    report.add("artifacts.save_s", busy("artifacts.save"), "s", calls("artifacts.save"))
    _read_metrics(report, fixed)
    overhead = percentile(fixed.latency_ms, 50) / percentile(untraced_phases[0].latency_ms, 50)
    report.add("trace.overhead", overhead, "ratio", len(fixed.latency_ms))
    report.layers = build_rows + [
        {"span": f"server {name}", "busy_s": entry["busy"], "self_s": entry["self"],
         "calls": entry["calls"]}
        for name, entry in sorted(totals.items())]
