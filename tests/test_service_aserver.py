"""Async front-end tests: byte parity, keep-alive, pipelining, admission.

Served answers must equal the offline ``TipService.handle`` rendering at
the byte level (same JSON, same status codes, same error text) while the
server adds persistent pipelined connections, NDJSON bulk lookups, and
admission-controlled updates.
"""

from __future__ import annotations

import http.client
import json
import shutil
import socket
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ReproError, ServiceError
from repro.service.artifacts import save_artifact
from repro.service.aserver import start_server_thread
from repro.service.server import (
    TipService,
    error_payload,
    parse_post_body,
    to_jsonable,
)

N_U = 40


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(N_U, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("aserve") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path, graph, result


@pytest.fixture(scope="module")
def async_server(artifact):
    path, _, _ = artifact
    handle = start_server_thread([path])
    yield handle
    handle.stop()


def _offline_response(service, method, target, body=None):
    """(status, body bytes) of one request rendered without any transport."""
    parsed = urlsplit(target)
    params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
    try:
        parsed_body = parse_post_body(body or b"") if method == "POST" else None
        payload, status = service.handle(parsed.path, params, parsed_body), 200
    except ServiceError as error:
        payload, status = error_payload(error), error.status
    return status, json.dumps(to_jsonable(payload)).encode("utf-8")


def _raw_request(host, port, method, target, body=None, content_type=None):
    """One request over a fresh connection: (status, headers, raw body bytes)."""
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        headers = {}
        if content_type:
            headers["Content-Type"] = content_type
        connection.request(method, target, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestTransportParity:
    ROUTES = [
        ("GET", "/healthz", None, None),
        ("GET", "/theta?vertex=7", None, None),
        ("GET", "/theta?vertex=0", None, None),
        ("GET", "/theta?vertex=100000", None, None),   # 400: out of range
        ("GET", "/theta?vertex=abc", None, None),      # 400: not an integer
        ("GET", "/theta", None, None),                 # 400: missing param
        ("GET", "/theta?vertex=1&artifact=ghost", None, None),  # 404
        ("GET", "/theta/batch?vertices=0,3,9,21", None, None),
        ("GET", "/top-k?k=5", None, None),
        ("GET", "/k-tip?k=1&limit=3", None, None),
        ("GET", "/community?k=75", None, None),
        ("GET", "/not-an-endpoint", None, None),       # 404
        ("POST", "/theta/batch", b'{"vertices": [1, 2, 3]}', "application/json"),
        ("POST", "/theta/batch", b"{broken", "application/json"),  # 400
        ("POST", "/theta/batch", b'["not", "an", "object"]', "application/json"),
    ]

    def test_every_route_is_byte_identical_across_transports(
            self, async_server, artifact):
        path, _, _ = artifact
        offline = TipService([path])
        host, port = async_server.address
        for method, target, body, content_type in self.ROUTES:
            status, _, raw = _raw_request(
                host, port, method, target, body, content_type)
            assert (status, raw) == _offline_response(
                offline, method, target, body), (method, target)

    def test_point_theta_matches_ground_truth(self, async_server, artifact):
        _, _, result = artifact
        host, port = async_server.address
        status, _, body = _raw_request(host, port, "GET", "/theta?vertex=7")
        assert status == 200
        assert json.loads(body) == {"vertex": 7, "theta": int(result.tip_numbers[7])}

    def test_structured_400_body_on_malformed_json(self, async_server):
        host, port = async_server.address
        status, _, body = _raw_request(
            host, port, "POST", "/theta/batch", b"{broken", "application/json")
        assert status == 400
        payload = json.loads(body)
        assert payload["status"] == 400
        assert "not valid JSON" in payload["error"]


class TestPersistentConnections:
    def test_keep_alive_reuses_one_connection(self, async_server):
        host, port = async_server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            bodies = []
            for vertex in (1, 2, 3):
                connection.request("GET", f"/theta?vertex={vertex}")
                response = connection.getresponse()
                assert response.version == 11
                assert response.getheader("Connection") != "close"
                bodies.append(json.loads(response.read()))
            assert [b["vertex"] for b in bodies] == [1, 2, 3]
        finally:
            connection.close()

    def test_http_10_client_gets_connection_closed(self, async_server):
        host, port = async_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            raw = b""
            sock.settimeout(10)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.split(b"\r\n", 1)[0]
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    def test_pipelined_burst_answers_in_order_and_coalesces(self, artifact):
        path, _, result = artifact
        handle = start_server_thread([path])
        try:
            host, port = handle.address
            vertices = [5, 11, 0, 17, 8, 23]
            burst = b"".join(
                f"GET /theta?vertex={v} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                for v in vertices)
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(burst)
                reader = _ResponseReader(sock)
                payloads = [reader.read_response()[1] for _ in vertices]
            assert [json.loads(p)["vertex"] for p in payloads] == vertices
            assert [json.loads(p)["theta"] for p in payloads] == [
                int(result.tip_numbers[v]) for v in vertices]
            metrics = handle.server.coalescer.metrics()
            # The whole burst arrives in one read: one flush, one gather.
            assert metrics["largest_batch"] == len(vertices)
            assert metrics["requests_coalesced"] == len(vertices)
        finally:
            handle.stop()


class TestFailedRequests:
    """A library error answers 500 in-band; only a handler bug closes."""

    @pytest.fixture()
    def served(self, artifact):
        path, _, _ = artifact
        service = TipService([path])
        handle = start_server_thread(service=service)
        yield service, handle
        handle.stop()

    @staticmethod
    def _pipeline(handle, targets):
        burst = b"".join(
            f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode() for target in targets)
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(burst)
            reader = _ResponseReader(sock)
            answers = []
            for _ in targets:
                try:
                    status_line, body = reader.read_response()
                except ConnectionError:
                    break  # the server closed the connection
                closes = b"Connection: close" in reader.head
                answers.append((status_line, closes, body))
            return answers

    def test_repro_error_on_coalesced_theta_keeps_the_connection(
            self, served, monkeypatch):
        service, handle = served

        def failing_gather(artifact, vertices):
            raise ReproError("gather failed")

        monkeypatch.setattr(service, "theta_payloads", failing_gather)
        answers = self._pipeline(handle, ["/theta?vertex=1", "/top-k?k=1"])
        assert answers[0] == (
            "HTTP/1.1 500 Internal Server Error", False,
            b'{"error": "gather failed", "status": 500}')
        assert answers[1][:2] == ("HTTP/1.1 200 OK", False)
        assert json.loads(answers[1][2])["k"] == 1

    def test_handler_bug_on_coalesced_theta_closes_the_connection(
            self, served, monkeypatch):
        service, handle = served

        def buggy_gather(artifact, vertices):
            raise RuntimeError("bug")

        monkeypatch.setattr(service, "theta_payloads", buggy_gather)
        answers = self._pipeline(handle, ["/theta?vertex=1", "/top-k?k=1"])
        assert answers == [(
            "HTTP/1.1 500 Internal Server Error", True,
            b'{"error": "bug", "status": 500}')]


class _ResponseReader:
    """Parse HTTP/1.1 responses off a raw socket, buffering across reads.

    Pipelined responses arrive batched in a single ``recv``; the buffer
    carries the tail of one read into the next response.
    """

    def __init__(self, sock):
        self._sock = sock
        self._buffer = b""

    def _fill(self):
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed mid-response")
        self._buffer += chunk

    def read_response(self):
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        self.head = head
        status_line = head.split(b"\r\n", 1)[0].decode()
        length = None
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        assert length is not None, "every response must carry Content-Length"
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status_line, body


class TestNdjsonBulk:
    def test_bulk_lines_match_individual_batches(self, async_server, artifact):
        path, _, _ = artifact
        host, port = async_server.address
        lines = b'{"vertices": [0, 1, 2]}\n[3, 4]\n{"vertices": [100000]}\n'
        status, headers, body = _raw_request(
            host, port, "POST", "/theta/batch", lines, "application/x-ndjson")
        assert status == 200
        assert headers.get("Content-Type") == "application/x-ndjson"
        answers = [json.loads(line) for line in body.strip().split(b"\n")]
        offline = TipService([path])
        assert answers[0] == json.loads(json.dumps(to_jsonable(
            offline.handle("/theta/batch", {}, {"vertices": [0, 1, 2]}))))
        assert answers[1]["thetas"] == json.loads(json.dumps(to_jsonable(
            offline.handle("/theta/batch", {}, {"vertices": [3, 4]}))))["thetas"]
        assert answers[2]["status"] == 400
        assert "out of range" in answers[2]["error"]

    def test_invalid_lines_answer_in_band(self, async_server):
        host, port = async_server.address
        lines = b'{broken\n"a string"\n{"vertices": [1]}\n'
        status, _, body = _raw_request(
            host, port, "POST", "/theta/batch", lines, "application/x-ndjson")
        assert status == 200
        answers = [json.loads(line) for line in body.strip().split(b"\n")]
        assert "not valid JSON" in answers[0]["error"]
        assert "object or array" in answers[1]["error"]
        assert answers[2]["thetas"]

    def test_empty_body_is_400(self, async_server):
        host, port = async_server.address
        status, _, body = _raw_request(
            host, port, "POST", "/theta/batch", b"", "application/x-ndjson")
        assert status == 400
        assert "no request lines" in json.loads(body)["error"]


class TestProtocolEdges:
    def test_unsupported_method_405(self, async_server):
        host, port = async_server.address
        status, _, body = _raw_request(host, port, "DELETE", "/healthz")
        assert status == 405
        assert "GET or POST" in json.loads(body)["error"]

    def test_oversized_body_413_and_close(self, async_server):
        host, port = async_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /theta/batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 67108864\r\n\r\n")
            status_line, body = _ResponseReader(sock).read_response()
            assert " 413 " in status_line
            assert json.loads(body)["status"] == 413
            # The unread body desyncs the stream; the server must close.
            sock.settimeout(10)
            assert sock.recv(1) == b""

    def test_garbage_request_line_is_answered_not_fatal(self, async_server):
        host, port = async_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            status_line, _ = _ResponseReader(sock).read_response()
            assert " 400 " in status_line
        # The server survives: a normal request still works.
        status, _, _ = _raw_request(host, port, "GET", "/healthz")
        assert status == 200


class TestStatsAndMetrics:
    def test_stats_exposes_transport_metrics(self, async_server):
        host, port = async_server.address
        _raw_request(host, port, "GET", "/theta?vertex=1")
        status, _, body = _raw_request(host, port, "GET", "/stats?fresh=1")
        assert status == 200
        transport = json.loads(body)["transport"]
        assert transport["coalescer"]["requests_coalesced"] >= 1
        assert transport["coalescer"]["batches_flushed"] >= 1
        assert "admission_rejections" in transport["updates"]
        assert transport["updates"]["max_pending"] == 4

    def test_bare_stats_is_cached_and_fresh_bypasses(self, artifact):
        path, _, _ = artifact
        handle = start_server_thread([path], stats_cache_seconds=30.0)
        try:
            host, port = handle.address
            _, _, first = _raw_request(host, port, "GET", "/stats")
            _raw_request(host, port, "GET", "/theta?vertex=1")
            _, _, second = _raw_request(host, port, "GET", "/stats")
            assert first == second  # served from the hot cache
            _, _, fresh = _raw_request(host, port, "GET", "/stats?fresh=1")
            assert fresh != first   # bypass sees the newer request counters
            assert json.loads(fresh)["requests"]["/theta"] >= 1
        finally:
            handle.stop()

    def test_healthz_matches_offline_handle(self, async_server, artifact):
        path, _, _ = artifact
        host, port = async_server.address
        _, _, body = _raw_request(host, port, "GET", "/healthz")
        assert json.loads(body) == TipService([path]).handle("/healthz")


class TestAsyncUpdates:
    def test_update_applies_and_reads_see_it(self, artifact, tmp_path):
        path, graph, result = artifact
        working = tmp_path / "mutable.tipidx"
        shutil.copytree(path, working)
        edge = next(
            [u, w] for u in range(N_U) for w in range(25)
            if not graph.has_edge(u, w))
        handle = start_server_thread([working])
        try:
            host, port = handle.address
            status, _, body = _raw_request(
                host, port, "POST", "/update",
                json.dumps({"insert": [edge]}).encode(), "application/json")
            assert status == 200
            payload = json.loads(body)
            assert payload["streaming"]["updates_applied"] == 1
            assert payload["n_edges"] == graph.n_edges + 1
            # A coalesced read on the same server sees the new state.
            _, _, stats = _raw_request(host, port, "GET", "/stats?fresh=1")
            summary = json.loads(stats)["artifacts"]["planted-blocks.U"]
            assert summary["streaming"]["updates_applied"] == 1
        finally:
            handle.stop()

    def test_conflicting_update_answers_409(self, artifact, tmp_path):
        path, graph, _ = artifact
        working = tmp_path / "conflict.tipidx"
        shutil.copytree(path, working)
        existing = None
        for u in range(N_U):
            for w in range(25):
                if graph.has_edge(u, w):
                    existing = [u, w]
                    break
            if existing:
                break
        handle = start_server_thread([working])
        try:
            host, port = handle.address
            status, _, body = _raw_request(
                host, port, "POST", "/update",
                json.dumps({"insert": [existing]}).encode(), "application/json")
            assert status == 409
            assert json.loads(body)["status"] == 409
        finally:
            handle.stop()

    def test_overflow_rejected_with_503_and_retry_after(self, artifact):
        path, graph, _ = artifact
        service = TipService([path])
        original = service.handle

        def slow_handle(route, params=None, body=None):
            if route == "/update":
                time.sleep(0.6)  # hold the writer busy for the race below
            return original(route, params, body)

        service.handle = slow_handle
        existing = next(
            [u, w] for u in range(N_U) for w in range(25)
            if graph.has_edge(u, w))
        handle = start_server_thread(
            service=service, max_pending_updates=1, retry_after_seconds=3.0)
        try:
            host, port = handle.address
            results = []

            def post():
                # Duplicate insert: conflicts (409) instead of mutating the
                # shared module artifact — the point here is the 503 race.
                results.append(_raw_request(
                    host, port, "POST", "/update",
                    json.dumps({"insert": [existing]}).encode(),
                    "application/json"))

            first = threading.Thread(target=post)
            first.start()
            time.sleep(0.2)  # first update is now parked on the writer thread
            second_status, second_headers, second_body = _raw_request(
                host, port, "POST", "/update",
                json.dumps({"insert": [existing]}).encode(), "application/json")
            first.join(timeout=10)

            assert second_status == 503
            assert second_headers.get("Retry-After") == "3"
            overloaded = json.loads(second_body)
            assert overloaded["status"] == 503
            assert overloaded["retry_after_seconds"] == 3.0
            assert "queue is full" in overloaded["error"]
            assert results[0][0] == 409  # the admitted one ran to completion
            metrics = handle.server.admission.metrics()
            assert metrics["admission_rejections"] == 1
            assert metrics["admitted"] == 1
        finally:
            handle.stop()
