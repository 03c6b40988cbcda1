"""Serving-layer benchmark: index queries vs. the re-peel path.

A plain script (no pytest harness) so CI can run it directly:

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick] [--check-speedup]

The serving layer exists so that a θ lookup costs microseconds instead of
a full decomposition.  This benchmark quantifies that claim end-to-end:

1. **Build** — decompose a registry stand-in and persist the ``*.tipidx``
   artifact (`repro build-index` equivalent); build time is the price paid
   once per graph version.
2. **Load** — cold artifact load (manifest + mmap + graph reconstruction)
   vs. warm fingerprint-keyed cache hit.
3. **Offline queries** — point-θ and batch-θ throughput straight off the
   :class:`~repro.service.index.TipIndex`, against the *cold re-peel
   path*: answering the same batch by re-running the decomposition, which
   is what the repo had to do before this subsystem existed.
4. **HTTP** — starts the real server (the asyncio batch-coalescing front
   end behind ``repro serve``) on a free port, exercises **every**
   endpoint once (hard-failing on any non-200), then measures point-θ
   QPS and p50/p99 latency of a ``urllib`` connection-per-request loop
   (the per-connection baseline) and batch-POST throughput.
5. **Async** — on the same server, asserts offline and served answers
   are byte-for-byte identical, then measures pipelined point-θ QPS,
   unpipelined p50/p99 latency, NDJSON bulk throughput, and read latency
   under mixed read/update load (admission-controlled writes racing
   coalesced reads).
6. **Replication** — runs a leader + follower topology reporting
   replication convergence (offsets, lag reaching 0, read identity).
7. **Resilience** — arms a seeded :class:`~repro.service.faults.FaultPlan`
   that corrupts one replication push in flight, forcing the follower to
   mark itself diverged, then measures the wall-clock time until it has
   re-bootstrapped from a leader snapshot and converged back to lag 0
   (with byte-identical reads) — all without operator action.

Results go to ``BENCH_serving.json`` at the repository root.
``--check-speedup`` gates three things: warm-cache batch-θ throughput is
at least 10x the re-peel path (the serving layer's reason to exist),
pipelined point-θ QPS is at least 10x the connection-per-request QPS of
the same server (what coalescing and pipelining buy), and automatic
divergence recovery completes under a fixed ceiling.  Unlike wall-clock
scaling gates all three hold on any hardware, single-core CI runners
included.

Dataset generation honours ``REPRO_DATASET_CACHE`` (see
``repro.datasets.registry``).
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import statistics
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.core.receipt import tip_decomposition
from repro.datasets.registry import load_dataset
from repro.errors import ServiceError
from repro.service.artifacts import read_manifest
from repro.service.aserver import start_server_thread
from repro.service.build import build_index_artifact
from repro.service.cache import IndexCache
from repro.service.server import (
    ENDPOINTS,
    TipService,
    error_payload,
    to_jsonable,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Required throughput advantage of warm-cache batch θ over re-peeling.
SPEEDUP_GATE = 10.0

#: Required point-QPS advantage of pipelined keep-alive clients over the
#: same point-θ requests sent one ``urllib`` connection each.
ASYNC_GATE = 10.0

#: Ceiling on automatic divergence recovery: forced corrupt push ->
#: follower marks diverged -> snapshot re-bootstrap -> lag 0.  Generous
#: for shared CI runners; a healthy topology recovers in well under 1s.
RECOVERY_GATE_SECONDS = 10.0

#: Routes whose (status, body) must be byte-identical offline and served.
#: /stats is excluded: its request counters legitimately differ between
#: services.
IDENTITY_ROUTES = (
    "/healthz",
    "/theta?vertex=0",
    "/theta?vertex=7",
    "/theta?vertex=999999999",       # 400: out of range
    "/theta?vertex=abc",             # 400: not an integer
    "/theta/batch?vertices=0,1,2",
    "/top-k?k=5",
    "/not-an-endpoint",              # 404
)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _percentiles(samples_ms: list[float]) -> dict:
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(statistics.median(ordered), 3),
        "p99_ms": round(float(np.percentile(ordered, 99)), 3),
        "mean_ms": round(statistics.fmean(ordered), 3),
    }


def _http_get(base_url: str, route: str):
    start = time.perf_counter()
    with urllib.request.urlopen(base_url + route, timeout=30) as response:
        payload = json.loads(response.read())
        return response.status, payload, (time.perf_counter() - start) * 1000.0


def _http_post(base_url: str, route: str, body: dict):
    request = urllib.request.Request(
        base_url + route, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=30) as response:
        payload = json.loads(response.read())
        return response.status, payload, (time.perf_counter() - start) * 1000.0


def _http_get_bytes(base_url: str, route: str):
    """(status, raw body bytes), following error statuses instead of raising."""
    try:
        with urllib.request.urlopen(base_url + route, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _offline_bytes(service: TipService, route: str):
    """Render a route exactly as the HTTP server would."""
    bare, _, query = route.partition("?")
    params = dict(pair.split("=") for pair in query.split("&")) if query else {}
    try:
        payload = service.handle(bare, params)
        status = 200
    except ServiceError as error:
        payload, status = error_payload(error), error.status
    return status, json.dumps(to_jsonable(payload)).encode("utf-8")


# ----------------------------------------------------------------------
# Minimal asyncio HTTP client (pipelining needs raw stream control;
# nothing in the stdlib pipelines).
# ----------------------------------------------------------------------
async def _read_one_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(length)
    return int(head.split(b" ", 2)[1]), body


def _point_request(vertex: int) -> bytes:
    return b"GET /theta?vertex=%d HTTP/1.1\r\nHost: bench\r\n\r\n" % vertex


async def _close_stream(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _async_pipelined_qps(host, port, vertices, *, connections, window):
    """Point-θ QPS with `connections` clients each pipelining `window` deep."""
    chunks = [chunk for chunk in np.array_split(vertices, connections) if len(chunk)]

    async def worker(chunk):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in range(0, len(chunk), window):
                burst = chunk[i:i + window]
                writer.write(b"".join(_point_request(int(v)) for v in burst))
                await writer.drain()
                for _ in burst:
                    status, _ = await _read_one_response(reader)
                    assert status == 200
        finally:
            await _close_stream(writer)

    start = time.perf_counter()
    await asyncio.gather(*(worker(chunk) for chunk in chunks))
    return len(vertices) / (time.perf_counter() - start)


async def _async_point_latencies(host, port, vertices):
    """Per-request ms latency, unpipelined, over one persistent connection."""
    reader, writer = await asyncio.open_connection(host, port)
    latencies = []
    try:
        for vertex in vertices:
            start = time.perf_counter()
            writer.write(_point_request(int(vertex)))
            await writer.drain()
            status, _ = await _read_one_response(reader)
            assert status == 200
            latencies.append((time.perf_counter() - start) * 1000.0)
    finally:
        await _close_stream(writer)
    return latencies


async def _async_mixed_load(host, port, n_u, delta, *, rounds, readers):
    """Coalesced reads racing admission-controlled updates.

    Each reader hammers point-θ on its own keep-alive connection while the
    writer alternates insert/delete rounds of the same delta (so the
    artifact ends back in its starting state).  Returns (read ms, update ms).
    """
    stop = asyncio.Event()
    read_ms: list[float] = []
    update_ms: list[float] = []

    async def read_loop(seed):
        reader, writer = await asyncio.open_connection(host, port)
        step = 0
        try:
            while not stop.is_set():
                vertex = (seed * 131 + step * 17) % n_u
                start = time.perf_counter()
                writer.write(_point_request(vertex))
                await writer.drain()
                status, _ = await _read_one_response(reader)
                assert status == 200
                read_ms.append((time.perf_counter() - start) * 1000.0)
                step += 1
        finally:
            await _close_stream(writer)

    async def write_loop():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for _ in range(rounds):
                for body in ({"insert": delta}, {"delete": delta}):
                    raw = json.dumps(body).encode("utf-8")
                    request = (
                        b"POST /update HTTP/1.1\r\nHost: bench\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(raw)) + raw
                    start = time.perf_counter()
                    writer.write(request)
                    await writer.drain()
                    status, payload = await _read_one_response(reader)
                    assert status == 200, (status, payload[:200])
                    update_ms.append((time.perf_counter() - start) * 1000.0)
        finally:
            stop.set()
            await _close_stream(writer)

    await asyncio.gather(write_loop(), *(read_loop(seed) for seed in range(readers)))
    return read_ms, update_ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="it", help="registry dataset key")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale multiplier (default 0.3, quick 0.12)")
    parser.add_argument("--partitions", type=int, default=12)
    parser.add_argument("--backend", default="serial",
                        help="execution backend for the index build")
    parser.add_argument("--quick", action="store_true",
                        help="smaller dataset + fewer requests (CI smoke mode)")
    parser.add_argument("--check-speedup", action="store_true",
                        help=f"fail unless warm batch-θ throughput >= "
                             f"{SPEEDUP_GATE:.0f}x the re-peel path")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_serving.json"))
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.12 if args.quick else 0.3)
    point_requests = 150 if args.quick else 600
    batch_requests = 20 if args.quick else 60
    batch_size = 1024

    graph = load_dataset(args.dataset, scale=scale)
    print(f"dataset {args.dataset} @ scale {scale}: "
          f"|U|={graph.n_u:,} |V|={graph.n_v:,} |E|={graph.n_edges:,}")
    rng = np.random.default_rng(7)

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as workdir:
        artifact_path = Path(workdir) / f"{args.dataset}.tipidx"

        # -- 1: build ---------------------------------------------------
        manifest, build_seconds = _timed(lambda: build_index_artifact(
            graph, artifact_path, side="U", algorithm="receipt",
            backend=args.backend, n_partitions=args.partitions,
        ))
        artifact_bytes = sum(f.stat().st_size for f in artifact_path.iterdir())
        print(f"build: {build_seconds:.3f}s -> {artifact_bytes / 1024:.0f} KiB artifact "
              f"(fingerprint {manifest.fingerprint[:12]}...)")

        # -- 2: cold vs warm load --------------------------------------
        cache = IndexCache(capacity=4)
        index, cold_load_seconds = _timed(lambda: cache.get_or_load(artifact_path))
        _, warm_load_seconds = _timed(lambda: cache.get_or_load(artifact_path))
        print(f"load: cold={cold_load_seconds * 1000:.2f}ms "
              f"warm={warm_load_seconds * 1000:.2f}ms "
              f"(cache {cache.stats()['hits']}h/{cache.stats()['misses']}m)")

        # -- 3: offline query throughput -------------------------------
        vertices = rng.integers(0, graph.n_u, size=point_requests)
        _, point_seconds = _timed(lambda: [index.theta(int(v)) for v in vertices])
        point_qps = point_requests / max(point_seconds, 1e-9)

        batches = [rng.integers(0, graph.n_u, size=batch_size)
                   for _ in range(batch_requests)]
        _, batch_seconds = _timed(lambda: [index.theta_batch(batch) for batch in batches])
        warm_batch_lookups_per_sec = (batch_requests * batch_size) / max(batch_seconds, 1e-9)

        # The pre-serving-layer alternative: answer a batch by re-peeling.
        repeel, repeel_seconds = _timed(lambda: tip_decomposition(
            graph, "U", algorithm="receipt", n_partitions=args.partitions,
        ))
        assert np.array_equal(repeel.tip_numbers, np.asarray(index.tip_numbers)), \
            "re-peel disagrees with the served index"
        repeel_lookups_per_sec = batch_size / max(repeel_seconds, 1e-9)
        speedup = warm_batch_lookups_per_sec / max(repeel_lookups_per_sec, 1e-9)
        print(f"offline: point {point_qps:,.0f} q/s | warm batch "
              f"{warm_batch_lookups_per_sec:,.0f} θ/s | re-peel path "
              f"{repeel_lookups_per_sec:,.0f} θ/s -> {speedup:,.0f}x")

        # -- 4: HTTP ----------------------------------------------------
        async_point_requests = 3000 if args.quick else 12000
        async_connections, async_window = 8, 32
        mixed_rounds = 2
        offline_service = TipService([artifact_path])
        handle = start_server_thread([artifact_path], cache_capacity=4)
        base_url = handle.base_url
        ahost, aport = handle.address
        try:
            k_mid = max(1, index.max_tip_number // 2)
            endpoint_routes = {
                "/healthz": "/healthz",
                "/stats": "/stats",
                "/theta": "/theta?vertex=0",
                "/theta/batch": "/theta/batch?vertices=0,1,2",
                "/top-k": "/top-k?k=5",
                "/k-tip": f"/k-tip?k={k_mid}&limit=16",
                "/community": f"/community?k={index.max_tip_number}",
            }
            # Every GET endpoint is exercised; /update is POST-only and is
            # covered by bench_streaming.py and the service test suite.
            assert set(endpoint_routes) == set(ENDPOINTS) - {"/update"}
            endpoint_status = {}
            # The first request hits a fresh service cache: the HTTP cold path.
            _, _, http_cold_first_ms = _http_get(base_url, "/theta?vertex=0")
            for endpoint, route in endpoint_routes.items():
                status, _, _ = _http_get(base_url, route)
                endpoint_status[endpoint] = status
                if status != 200:
                    print(f"FAIL: {endpoint} answered {status}", file=sys.stderr)
                    return 1
            print(f"http: all {len(endpoint_routes)} endpoints answered 200")

            latencies = []
            http_point_start = time.perf_counter()
            for vertex in rng.integers(0, graph.n_u, size=point_requests):
                status, _, elapsed_ms = _http_get(base_url, f"/theta?vertex={int(vertex)}")
                latencies.append(elapsed_ms)
            http_point_qps = point_requests / (time.perf_counter() - http_point_start)
            point_latency = _percentiles(latencies)

            http_batch_start = time.perf_counter()
            for batch in batches[: max(batch_requests // 2, 5)]:
                _http_post(base_url, "/theta/batch", {"vertices": batch.tolist()})
            http_batch_count = max(batch_requests // 2, 5)
            http_batch_seconds = time.perf_counter() - http_batch_start
            http_batch_lookups_per_sec = (http_batch_count * batch_size) / http_batch_seconds
            print(f"http: point {http_point_qps:,.0f} q/s "
                  f"(p50 {point_latency['p50_ms']}ms p99 {point_latency['p99_ms']}ms) | "
                  f"batch {http_batch_lookups_per_sec:,.0f} θ/s")

            cache_stats = handle.service.cache.stats()

            # -- 5: pipelining, coalescing, bulk and mixed load ---------
            # Byte-identity: offline == served, per route.
            for route in IDENTITY_ROUTES:
                offline_answer = _offline_bytes(offline_service, route)
                served_answer = _http_get_bytes(base_url, route)
                if offline_answer != served_answer:
                    print(f"FAIL: served answer differs from offline on {route}:\n"
                          f"  offline  {offline_answer}\n"
                          f"  served   {served_answer}", file=sys.stderr)
                    return 1
            print(f"async: {len(IDENTITY_ROUTES)} routes byte-identical "
                  f"offline and served")

            async_vertices = rng.integers(0, graph.n_u, size=async_point_requests)
            async_point_qps = asyncio.run(_async_pipelined_qps(
                ahost, aport, async_vertices,
                connections=async_connections, window=async_window))
            async_speedup = async_point_qps / max(http_point_qps, 1e-9)

            async_latency = _percentiles(asyncio.run(_async_point_latencies(
                ahost, aport, rng.integers(0, graph.n_u, size=point_requests))))
            print(f"async: point {async_point_qps:,.0f} q/s pipelined "
                  f"({async_connections} conns x window {async_window}) -> "
                  f"{async_speedup:,.1f}x per-connection | unpipelined "
                  f"p50 {async_latency['p50_ms']}ms p99 {async_latency['p99_ms']}ms")

            # NDJSON bulk: many batch lookups in one request.
            ndjson_batches = batches[: max(batch_requests // 2, 5)]
            ndjson_body = b"".join(
                json.dumps({"vertices": batch.tolist()}).encode() + b"\n"
                for batch in ndjson_batches)
            connection = http.client.HTTPConnection(ahost, aport, timeout=60)
            try:
                ndjson_start = time.perf_counter()
                connection.request(
                    "POST", "/theta/batch", body=ndjson_body,
                    headers={"Content-Type": "application/x-ndjson"})
                response = connection.getresponse()
                answer_lines = response.read().strip().split(b"\n")
                ndjson_seconds = time.perf_counter() - ndjson_start
                assert response.status == 200 and len(answer_lines) == len(ndjson_batches)
            finally:
                connection.close()
            ndjson_lookups_per_sec = (
                len(ndjson_batches) * batch_size) / ndjson_seconds
            print(f"async: NDJSON bulk {ndjson_lookups_per_sec:,.0f} θ/s "
                  f"({len(ndjson_batches)} lines x {batch_size})")

            # Mixed read/update load: alternating insert/delete rounds of a
            # fresh-edge delta (artifact ends back at its base state).
            delta = []
            for u in range(graph.n_u):
                for w in range(min(graph.n_v, 64)):
                    if not graph.has_edge(u, w):
                        delta.append([u, w])
                    if len(delta) == 4:
                        break
                if len(delta) == 4:
                    break
            mixed_read_ms, mixed_update_ms = asyncio.run(_async_mixed_load(
                ahost, aport, graph.n_u, delta, rounds=mixed_rounds, readers=3))
            mixed_read_latency = _percentiles(mixed_read_ms)
            print(f"async: mixed load {len(mixed_read_ms)} reads "
                  f"(p50 {mixed_read_latency['p50_ms']}ms "
                  f"p99 {mixed_read_latency['p99_ms']}ms) while "
                  f"{len(mixed_update_ms)} updates applied "
                  f"(mean {statistics.fmean(mixed_update_ms):,.0f}ms)")

            coalescer_metrics = handle.server.coalescer.metrics()
            admission_metrics = handle.server.admission.metrics()
        finally:
            handle.stop()

        # -- 6: replication ---------------------------------------------
        import shutil

        from repro.service.replication import ReplicationCoordinator

        # Leader + follower convergence on artifact copies.
        leader_path = Path(workdir) / "leader.tipidx"
        follower_path = Path(workdir) / "follower.tipidx"
        shutil.copytree(artifact_path, leader_path)
        shutil.copytree(artifact_path, follower_path)
        follower_service = TipService([follower_path])
        follower_http = start_server_thread([], service=follower_service)
        follower_url = follower_http.base_url
        leader_service = TipService([leader_path])
        leader_coord = ReplicationCoordinator(
            leader_service, role="leader", follower_urls=(follower_url,))
        leader_coord.start()
        leader_http = start_server_thread([], service=leader_service)
        leader_url = leader_http.base_url
        follower_coord = ReplicationCoordinator(
            follower_service, role="follower", leader_url=leader_url,
            poll_interval=0.2)
        follower_coord.start()
        try:
            repl_rounds = 2
            repl_start = time.perf_counter()
            for _ in range(repl_rounds):
                for body in ({"insert": delta}, {"delete": delta}):
                    _http_post(leader_url, "/update", body)
            updates_applied = 2 * repl_rounds
            deadline = time.time() + 60
            max_lag = 0
            while True:
                _, status_payload, _ = _http_get(
                    follower_url, "/replication/status")
                max_lag = max(max_lag, int(status_payload["lag"]))
                if (status_payload["lag"] == 0
                        and status_payload["offset"] == updates_applied):
                    break
                if time.time() > deadline:
                    print(f"FAIL: follower never converged: {status_payload}",
                          file=sys.stderr)
                    return 1
                time.sleep(0.05)
            convergence_seconds = time.perf_counter() - repl_start
            probe_route = "/theta/batch?vertices=" + ",".join(
                str(int(v)) for v in rng.integers(0, graph.n_u, size=64))
            reads_identical = (_http_get_bytes(leader_url, probe_route)
                               == _http_get_bytes(follower_url, probe_route))
            if not reads_identical:
                print("FAIL: follower reads differ from the leader after "
                      "convergence", file=sys.stderr)
                return 1
            staleness = status_payload.get("staleness_seconds")
            print(f"replication: {updates_applied} updates fanned out, "
                  f"follower at offset {status_payload['offset']} lag 0 "
                  f"after {convergence_seconds:.2f}s "
                  f"(max observed lag {max_lag}, staleness "
                  f"{staleness if staleness is None else round(staleness, 2)}s)")
        finally:
            leader_coord.stop()
            follower_coord.stop()
            leader_http.stop()
            follower_http.stop()

        # -- 7: resilience: forced divergence -> automatic recovery -----
        from repro.service import faults as fault_injection
        from repro.service.faults import FaultPlan

        r_leader_path = Path(workdir) / "r-leader.tipidx"
        r_follower_path = Path(workdir) / "r-follower.tipidx"
        shutil.copytree(artifact_path, r_leader_path)
        shutil.copytree(artifact_path, r_follower_path)
        r_follower_service = TipService([r_follower_path])
        r_follower_http = start_server_thread([], service=r_follower_service)
        r_follower_url = r_follower_http.base_url
        r_leader_service = TipService([r_leader_path])
        r_leader_coord = ReplicationCoordinator(
            r_leader_service, role="leader",
            log_path=Path(workdir) / "r-leader.replog",
            follower_urls=(r_follower_url,))
        r_leader_coord.start()
        r_leader_http = start_server_thread([], service=r_leader_service)
        r_leader_url = r_leader_http.base_url
        # The poll thread starts only after the tampered push: a poll in
        # between could apply the record from the leader's write-ahead log
        # first, and the push would then be a harmless duplicate instead
        # of forcing a divergence.
        r_follower_coord = ReplicationCoordinator(
            r_follower_service, role="follower", leader_url=r_leader_url,
            poll_interval=0.1)
        try:
            # A clean update first, caught up explicitly, so the follower
            # is provably current before the tampered push — a lagging
            # follower would treat it as an offset gap and fetch the real
            # record from the log instead of diverging.
            _http_post(r_leader_url, "/update", {"insert": delta})
            caught_up = r_follower_coord.sync_once()
            if caught_up["offset"] != 1 or caught_up["lag"] != 0:
                print(f"FAIL: resilience follower never caught up: "
                      f"{caught_up}", file=sys.stderr)
                return 1

            # One corrupted push: the follower must mark itself diverged
            # and re-bootstrap from a leader snapshot on its own.
            plan = FaultPlan.parse("replication.push:corrupt:count=1", seed=17)
            recovery_start = time.perf_counter()
            with fault_injection.armed(plan):
                _http_post(r_leader_url, "/update", {"delete": delta})
            r_follower_coord.start()
            deadline = time.time() + 60
            while True:
                _, r_status, _ = _http_get(
                    r_follower_url, "/replication/status")
                if (r_status["lag"] == 0 and r_status["offset"] == 2
                        and r_status["diverged"] is None
                        and r_status["resyncs"] >= 1):
                    break
                if time.time() > deadline:
                    print(f"FAIL: diverged follower never recovered: "
                          f"{r_status}", file=sys.stderr)
                    return 1
                time.sleep(0.02)
            recovery_seconds = time.perf_counter() - recovery_start
            recovery_injected = plan.stats()["injected_total"]
            recovery_reads_identical = (
                _http_get_bytes(r_leader_url, probe_route)
                == _http_get_bytes(r_follower_url, probe_route))
            if not recovery_reads_identical:
                print("FAIL: reads differ after divergence recovery",
                      file=sys.stderr)
                return 1
            print(f"resilience: corrupted push -> divergence -> snapshot "
                  f"re-bootstrap in {recovery_seconds:.2f}s "
                  f"({r_status['resyncs']} resync(s), "
                  f"{recovery_injected} fault(s) injected, reads identical)")
        finally:
            r_leader_coord.stop()
            r_follower_coord.stop()
            r_leader_http.stop()
            r_follower_http.stop()

        manifest_now = read_manifest(artifact_path)
        report = {
            "benchmark": "serving",
            "mode": "quick" if args.quick else "full",
            "dataset": args.dataset,
            "scale": scale,
            "cpu_count": os.cpu_count(),
            "graph": {"n_u": graph.n_u, "n_v": graph.n_v, "n_edges": graph.n_edges},
            "artifact": {
                "bytes": artifact_bytes,
                "fingerprint": manifest_now.fingerprint,
                # Content identity, matching /stats and bench-history: the
                # streaming base fingerprint when present, else the manifest.
                "base_fingerprint": str(
                    manifest_now.streaming.get("base_fingerprint")
                    or manifest_now.fingerprint),
                "build_seconds": round(build_seconds, 4),
            },
            "load": {
                "cold_seconds": round(cold_load_seconds, 6),
                "warm_seconds": round(warm_load_seconds, 6),
                "cold_over_warm": round(cold_load_seconds / max(warm_load_seconds, 1e-9), 1),
            },
            "offline": {
                "point_qps": round(point_qps, 1),
                "warm_batch_lookups_per_sec": round(warm_batch_lookups_per_sec, 1),
                "batch_size": batch_size,
                "repeel_seconds": round(repeel_seconds, 4),
                "repeel_lookups_per_sec": round(repeel_lookups_per_sec, 1),
                "warm_batch_speedup_vs_repeel": round(speedup, 1),
            },
            "http": {
                "endpoints_status": endpoint_status,
                "cold_first_request_ms": round(http_cold_first_ms, 3),
                "point_qps": round(http_point_qps, 1),
                "point_latency": point_latency,
                "batch_lookups_per_sec": round(http_batch_lookups_per_sec, 1),
                "cache": cache_stats,
            },
            "async": {
                "point_qps_pipelined": round(async_point_qps, 1),
                "pipelining": {
                    "connections": async_connections, "window": async_window},
                "speedup_vs_per_connection_point": round(async_speedup, 1),
                "point_latency": async_latency,
                "ndjson_lookups_per_sec": round(ndjson_lookups_per_sec, 1),
                "byte_identity_routes_checked": len(IDENTITY_ROUTES),
                "mixed_load": {
                    "readers": 3,
                    "reads": len(mixed_read_ms),
                    "read_latency": mixed_read_latency,
                    "updates": len(mixed_update_ms),
                    "update_latency_ms": [round(ms, 1) for ms in mixed_update_ms],
                },
                "coalescer": coalescer_metrics,
                "admission": admission_metrics,
            },
            "replication": {
                "updates_applied": updates_applied,
                "final_offset": int(status_payload["offset"]),
                "max_observed_lag": max_lag,
                "convergence_seconds": round(convergence_seconds, 3),
                "follower_reads_identical": bool(reads_identical),
                "staleness_seconds": (
                    None if staleness is None else round(float(staleness), 3)),
            },
            "resilience": {
                "recovery_seconds": round(recovery_seconds, 3),
                "resyncs": int(r_status["resyncs"]),
                "faults_injected": int(recovery_injected),
                "reads_identical_after_recovery": bool(
                    recovery_reads_identical),
            },
            "speedup_gate": SPEEDUP_GATE,
            "speedup_gate_passed": bool(speedup >= SPEEDUP_GATE),
            "async_gate": ASYNC_GATE,
            "async_gate_passed": bool(async_speedup >= ASYNC_GATE),
            "recovery_gate_seconds": RECOVERY_GATE_SECONDS,
            "recovery_gate_passed": bool(
                recovery_seconds <= RECOVERY_GATE_SECONDS),
        }

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    if args.check_speedup and speedup < SPEEDUP_GATE:
        print(f"FAIL: warm batch-θ throughput is only {speedup:.1f}x the re-peel "
              f"path (gate: {SPEEDUP_GATE:.0f}x)", file=sys.stderr)
        return 1
    print(f"OK: warm batch-θ throughput is {speedup:,.0f}x the re-peel path "
          f"(gate: {SPEEDUP_GATE:.0f}x)")
    if args.check_speedup and async_speedup < ASYNC_GATE:
        print(f"FAIL: pipelined point-θ QPS is only {async_speedup:.1f}x "
              f"the per-connection baseline (gate: {ASYNC_GATE:.0f}x)",
              file=sys.stderr)
        return 1
    print(f"OK: pipelined point-θ QPS is {async_speedup:,.1f}x the "
          f"per-connection baseline (gate: {ASYNC_GATE:.0f}x)")
    if args.check_speedup and recovery_seconds > RECOVERY_GATE_SECONDS:
        print(f"FAIL: automatic divergence recovery took "
              f"{recovery_seconds:.2f}s (gate: {RECOVERY_GATE_SECONDS:.0f}s)",
              file=sys.stderr)
        return 1
    print(f"OK: automatic divergence recovery in {recovery_seconds:.2f}s "
          f"(gate: {RECOVERY_GATE_SECONDS:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
