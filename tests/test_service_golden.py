"""Golden response bytes for every deterministic route of the JSON API.

``tests/data/service_golden.json`` pins, for one seeded fixed-size
artifact, two renderings of each request below:

* the offline ``TipService.handle`` answer — HTTP status plus the JSON
  bytes ``repro query`` would print (``json.dumps(to_jsonable(payload))``);
* the full served HTTP response of ``repro serve`` — status line, headers
  and body, read byte for byte off a raw socket.

The requests cover every deterministic API route (``/stats`` and
``/metrics`` carry clocks and are left out) and the structured error
answers: the 404 unknown-route body with its endpoint list, 400 bad or
missing parameters, 405 ``GET /update``, 409 conflicting ``/update``, 413
oversized body.  Any change to routing, parameter parsing, error text or
response framing shows up here as a byte diff.

Regenerate the fixture only for an intentional wire-format change, then
review its diff::

    PYTHONPATH=src python tests/test_service_golden.py
"""

from __future__ import annotations

import json
import socket
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.service.artifacts import save_artifact
from repro.service.aserver import start_server_thread
from repro.service.server import TipService, error_payload, parse_post_body, to_jsonable

GOLDEN_PATH = Path(__file__).parent / "data" / "service_golden.json"

_JSON = {"Content-Type": "application/json"}

#: (method, target, body, extra request headers, also rendered offline?)
#: Order matters only for the served side (one fresh connection each).
CASES = [
    ("GET", "/healthz", None, {}, True),
    ("GET", "/theta?vertex=7", None, {}, True),
    ("GET", "/theta?vertex=0", None, {"Connection": "close"}, True),
    ("GET", "/theta/?vertex=3", None, {}, True),
    ("GET", "/theta?vertex=1&deadline_ms=5000", None, {}, True),
    ("GET", "/theta?vertex=100000", None, {}, True),
    ("GET", "/theta?vertex=abc", None, {}, True),
    ("GET", "/theta", None, {}, True),
    ("GET", "/theta?vertex=1&deadline_ms=soon", None, {}, True),
    ("GET", "/theta?vertex=1&artifact=ghost", None, {}, True),
    ("GET", "/theta/batch?vertices=0,3,9,21", None, {}, True),
    ("GET", "/theta/batch?vertices=0,x", None, {}, True),
    ("GET", "/theta/batch", None, {}, True),
    ("POST", "/theta/batch", b'{"vertices": [1, 2, 3]}', _JSON, True),
    ("POST", "/theta/batch", b'{"vertices": [1, 2], "deadline_ms": 5000}', _JSON, True),
    ("POST", "/theta/batch", b"{broken", _JSON, True),
    ("POST", "/theta/batch", b'["not", "an", "object"]', _JSON, True),
    ("POST", "/theta/batch", b'{"vertices": [0, 1]}\n[2, 3]\n{bad\n',
     {"Content-Type": "application/x-ndjson"}, False),
    ("GET", "/top-k?k=5", None, {}, True),
    ("GET", "/top-k/?k=3", None, {}, True),
    ("GET", "/top-k", None, {}, True),
    ("GET", "/top-k?k=2000000000", None, {}, True),
    ("GET", "/k-tip?k=15", None, {}, True),
    ("GET", "/k-tip?k=1&limit=3", None, {}, True),
    ("GET", "/k-tip?k=0&limit=-5", None, {}, True),
    ("GET", "/community?k=75", None, {}, True),
    ("GET", "/community?k=15&vertex=3", None, {}, True),
    ("GET", "/community?k=x", None, {}, True),
    ("GET", "/update", None, {}, True),
    ("POST", "/update", b"{}", _JSON, True),
    ("POST", "/update", b'{"insert": [[0, 0]]}', _JSON, True),
    ("POST", "/update", b'{"insert": [[0, 1.5]]}', _JSON, True),
    ("GET", "/not-an-endpoint", None, {}, True),
    ("GET", "/debug/nope", None, {}, True),
    ("GET", "/debug/memory?cached=1", None, {}, True),
    ("GET", "/debug/memory?top=x", None, {}, True),
    ("GET", "/debug/profile?last=1", None, {}, True),
    ("GET", "/debug/profile?seconds=soon", None, {}, True),
    ("GET", "/replication/status", None, {}, True),
    ("GET", "/replication/log", None, {}, True),
    ("GET", "/replication/snapshot", None, {}, True),
    ("POST", "/replication/apply", b"{}", _JSON, True),
    ("PUT", "/theta?vertex=7", None, {}, False),
    ("POST", "/theta/batch", None, {"Content-Length": str(64 * 1024 * 1024)}, False),
]


def _request_id(method: str, target: str, body, headers: dict) -> str:
    """Stable human-readable key of one case in the fixture."""
    parts = [method, target]
    if body is not None:
        parts.append(body.decode("utf-8"))
    parts.extend(f"{name}: {value}" for name, value in sorted(headers.items()))
    return " | ".join(parts)


def _build_artifact(directory: Path) -> Path:
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = directory / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


def _offline(service: TipService, method: str, target: str, body) -> dict:
    parsed = urlsplit(target)
    params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
    try:
        parsed_body = parse_post_body(body or b"") if method == "POST" else None
        payload, status = service.handle(parsed.path, params, parsed_body), 200
    except ServiceError as error:
        payload, status = error_payload(error), error.status
    return {"status": status, "body": json.dumps(to_jsonable(payload))}


def _served(address, method: str, target: str, body, headers: dict) -> str:
    """One request on a fresh connection; the raw response it got back."""
    head = f"{method} {target} HTTP/1.1\r\nHost: golden\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    for name, value in headers.items():
        head += f"{name}: {value}\r\n"
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        raw = b""
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
        header_block = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        length = 0
        for line in header_block.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(raw) < len(header_block) + 4 + length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    return raw.decode("utf-8")


def capture(directory: Path) -> list[dict]:
    """Render every case offline and over HTTP against a fresh artifact."""
    path = _build_artifact(directory)
    offline = TipService([path])
    handle = start_server_thread([path])
    try:
        entries = []
        for method, target, body, headers, with_offline in CASES:
            entry = {"request": _request_id(method, target, body, headers)}
            if with_offline:
                entry["offline"] = _offline(offline, method, target, body)
            entry["served"] = _served(handle.address, method, target, body, headers)
            entries.append(entry)
        return entries
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def golden() -> dict:
    return {entry["request"]: entry
            for entry in json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))}


@pytest.fixture(scope="module")
def captured(tmp_path_factory) -> dict:
    return {entry["request"]: entry
            for entry in capture(tmp_path_factory.mktemp("golden"))}


class TestGoldenBytes:
    def test_fixture_covers_every_case(self, golden, captured):
        assert list(golden) == list(captured)

    def test_offline_answers_are_unchanged(self, golden, captured):
        for request, entry in golden.items():
            assert captured[request].get("offline") == entry.get("offline"), request

    def test_served_bytes_are_unchanged(self, golden, captured):
        for request, entry in golden.items():
            assert captured[request]["served"] == entry["served"], request


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        fixture = capture(Path(scratch))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture)} cases to {GOLDEN_PATH}")
