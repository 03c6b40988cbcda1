"""Asyncio batch-coalescing HTTP front end for the tip service.

This is the HTTP server behind ``repro serve``.  Against an index that
answers batched θ-lookups at tens of millions per second, a server that
pays the full parse → route → manifest read → gather → serialize round
trip *per request* spends nearly all its time in the transport.  This
front end closes the gap like an inference-serving batcher:

* **persistent connections** — a hand-rolled HTTP/1.1 protocol layer over
  ``asyncio.start_server``: keep-alive by default, pipelining supported
  (requests are parsed as fast as they arrive; responses are written back
  in order by a per-connection writer task).
* **micro-batching** — concurrent point-θ requests across *all*
  connections coalesce into one vectorized ``TipIndex`` gather per
  event-loop tick (:class:`~repro.service.coalesce.ThetaCoalescer`, with
  ``max_batch`` / ``max_delay`` knobs).
* **precomputed hot JSON** — ``/healthz`` bytes are rendered once per
  health state (``ok``/``degraded``, from the SLO monitor); bare
  ``/stats`` responses are cached for a short TTL so monitoring polls
  never touch an artifact (pass any query parameter, e.g.
  ``/stats?fresh=1``, to bypass the cache).
* **bulk protocol** — ``POST /theta/batch`` with
  ``Content-Type: application/x-ndjson`` treats every body line as one
  batch request and streams back one JSON answer per line.
* **admission-controlled writes** — ``POST /update`` runs on a single
  writer thread behind a bounded queue
  (:class:`~repro.service.coalesce.UpdateAdmissionController`); overflow
  answers 503 + ``Retry-After`` immediately, so a write burst never
  stalls the coalesced read pipeline.

Every other request is answered by
:meth:`~repro.service.server.TipService.handle` (the θ fast path by its
vectorized twin :meth:`~repro.service.server.TipService.theta_payloads`),
so offline and served answers are byte-for-byte identical — the serving
benchmark asserts exactly that.  Where a route runs is read from its
:data:`~repro.service.server.ROUTES` entry: inline on the event loop, on
the default executor (``/debug/profile`` samples for seconds,
``POST /replication/apply`` replays a streaming repair) or on the
admission-controlled writer (``/update``).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError, ServiceError
from .coalesce import DEFAULT_MAX_BATCH, ThetaCoalescer, UpdateAdmissionController
from .resilience import Deadline
from .server import (
    MAX_REQUEST_BODY_BYTES,
    METRICS_CONTENT_TYPE,
    ROUTES,
    TipService,
    error_payload,
    parse_post_body,
    to_jsonable,
)

__all__ = ["AsyncTipServer", "AsyncServerHandle", "serve_async", "start_server_thread"]

#: Reason phrases for the statuses the service actually emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on queued-but-unwritten responses per connection; a client
#: pipelining deeper than this is back-pressured at the read loop.
_PIPELINE_DEPTH = 1024

_MAX_HEADERS = 100


class _BadRequest(ServiceError):
    """Protocol-level failure: answered, then the connection is closed."""


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(to_jsonable(payload)).encode("utf-8")


def _theta_bytes(payload: dict) -> bytes:
    # Byte-identical to _json_bytes({"vertex": v, "theta": t}) without the
    # serializer round trip: the coalesced point-θ hot path.
    return b'{"vertex": %d, "theta": %d}' % (payload["vertex"], payload["theta"])


class AsyncTipServer:
    """Event-loop transport over a :class:`TipService`.

    Lifecycle: construct (off-loop is fine), ``await start()`` on the
    serving loop, ``await serve_forever()``; ``request_stop()`` (loop) or
    :class:`AsyncServerHandle` (other threads) end it; ``await close()``
    tears down connections and the writer thread.
    """

    def __init__(
        self,
        artifact_paths=None,
        *,
        service: TipService | None = None,
        host: str = "127.0.0.1",
        port: int = 8750,
        cache_capacity: int = 8,
        mmap: bool = True,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: float = 0.0,
        max_pending_updates: int = 4,
        retry_after_seconds: float = 1.0,
        stats_cache_seconds: float = 0.05,
        quiet: bool = True,
    ):
        if service is None:
            service = TipService(
                artifact_paths or [], cache_capacity=cache_capacity, mmap=mmap)
        self.service = service
        self.host = host
        self.port = int(port)
        self.quiet = quiet
        self.stats_cache_seconds = float(stats_cache_seconds)
        self.coalescer = ThetaCoalescer(
            service, max_batch=max_batch, max_delay=max_delay)
        self.admission = UpdateAdmissionController(
            service, max_pending=max_pending_updates,
            retry_after_seconds=retry_after_seconds)
        # /stats observability for the new layer, via the shared service.
        service.transport_metrics["coalescer"] = self.coalescer.metrics
        service.transport_metrics["updates"] = self.admission.metrics
        # Hot JSON: the /healthz payload is a pure function of the served
        # artifact set (fixed for the server's lifetime) and the SLO
        # health state, so one rendered body per state suffices.
        self._healthz_bodies: dict[str, bytes] = {}
        self._stats_cache: tuple[float, bytes] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks a free port)."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, reuse_address=True)

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)``; valid after :meth:`start`."""
        assert self._server is not None, "call start() first"
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`request_stop` is called."""
        assert self._stop_event is not None, "call start() first"
        await self._stop_event.wait()

    def request_stop(self) -> None:
        """End :meth:`serve_forever`; must be called on the serving loop."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def close(self) -> None:
        """Stop listening and cancel every open connection task."""
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self.admission.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(self, reader, writer) -> None:
        # Deliberately a plain (non-coroutine) callback: asyncio.streams
        # attaches a done-callback to coroutine callbacks that calls
        # task.exception(), which logs a spurious error for every
        # connection task cancelled at shutdown.  Spawning the task here
        # means we own it outright.
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # client went away mid-request
        finally:
            writer.close()

    async def _serve_connection(self, reader, writer) -> None:
        # Reader/writer split: the read loop parses requests as fast as the
        # socket delivers them and enqueues a response *slot* per request;
        # the writer task resolves slots in order.  A burst of pipelined
        # point-θ requests is therefore fully parsed — and lands in one
        # coalescer batch — before any response is awaited.
        queue: asyncio.Queue = asyncio.Queue(maxsize=_PIPELINE_DEPTH)
        writer_task = asyncio.create_task(self._drain_responses(queue, writer))
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    await queue.put((self._render_error(error, close=True), True))
                    break
                if request is None:
                    break  # EOF
                item, close = self._dispatch(*request)
                await queue.put((item, close))
                if close:
                    break
        finally:
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                writer_task.cancel()
            try:
                await writer_task
            except asyncio.CancelledError:
                writer_task.cancel()
                raise
            except Exception:
                writer_task.cancel()

    async def _drain_responses(self, queue: asyncio.Queue, writer) -> None:
        # On a write failure the loop keeps *consuming* slots (so a read
        # loop blocked on a full queue is never deadlocked, and pending
        # coalescer futures are still awaited) — it just stops writing.
        broken = False
        while True:
            item = await queue.get()
            if item is None:
                break
            payload, close = item
            if not isinstance(payload, (bytes, bytearray)):
                try:
                    payload = await payload
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # a response slot must never die
                    payload = self._render_error(error, close=True)
                    close = True
            if not broken:
                try:
                    writer.write(payload)
                    if queue.empty():
                        await writer.drain()  # one syscall per pipelined burst
                except (ConnectionError, RuntimeError):
                    broken = True
            if close:
                writer.close()  # EOF ends a read loop still awaiting requests
                break

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadRequest("request line too long") from None
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                continue  # stray CRLF between pipelined requests (RFC 9112)
            break
        parts = line.split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            raise _BadRequest(f"unsupported protocol {version.decode('latin-1')!r}")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                header_line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadRequest("header line too long") from None
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, separator, value = header_line.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        try:
            content_length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if content_length < 0:
            raise _BadRequest("malformed Content-Length")
        if content_length > MAX_REQUEST_BODY_BYTES:
            # The unread body would desynchronise the stream; 413 + close.
            raise _BadRequest(
                f"request body of {content_length} bytes exceeds the "
                f"{MAX_REQUEST_BODY_BYTES}-byte cap", status=413)
        body = b""
        if content_length:
            try:
                body = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError:
                return None
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version == b"HTTP/1.1"
            else connection == "keep-alive"
        )
        return (
            method.decode("latin-1").upper(),
            target.decode("latin-1"),
            headers,
            body,
            keep_alive,
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method, target, headers, body, keep_alive):
        """One request → (response bytes | awaitable of bytes, close flag).

        Wraps the routing core with latency observation.  Deferred
        responses (coalesced θ lookups, executor and writer routes) are
        observed when their awaitable resolves, so the recorded latency
        includes the coalescer/admission wait — the number a client
        actually sees.
        """
        started = time.perf_counter()
        parsed = urlsplit(target)
        route = parsed.path.rstrip("/") or "/"
        params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        item, close = self._dispatch_inner(
            method, route, params, headers, body, not keep_alive)
        if isinstance(item, (bytes, bytearray)):
            # Rendered responses lead with b"HTTP/1.1 NNN ..."; slicing the
            # status back out beats threading it through every return site.
            self.service.observe_request(
                "async", route, int(item[9:12]),
                time.perf_counter() - started, quiet=self.quiet)
            return item, close
        return self._observed(item, route, started), close

    async def _observed(self, item, route: str, started: float) -> bytes:
        payload = await item
        self.service.observe_request(
            "async", route, int(payload[9:12]),
            time.perf_counter() - started, quiet=self.quiet)
        return payload

    def _dispatch_inner(self, method, route, params, headers, body, close):
        """Transport fast paths first; every other route from its ROUTES entry."""
        service = self.service
        try:
            if method == "GET":
                if route == "/metrics":
                    service.count_requests("/metrics")
                    return self._render(
                        200, service.metrics_text().encode("utf-8"),
                        close=close, content_type=METRICS_CONTENT_TYPE), close
                if route == "/healthz":
                    service.count_requests("/healthz")
                    status = service.slo.evaluate()["status"]
                    body = self._healthz_bodies.get(status)
                    if body is None:
                        body = _json_bytes(
                            {"status": status, "artifacts": service.artifact_names})
                        self._healthz_bodies[status] = body
                    return self._render(200, body, close=close), close
                if route == "/stats" and not params and self.stats_cache_seconds > 0:
                    return self._render(200, self._stats_body(), close=close), close
                if route == "/theta":
                    future = self._coalesce(params)
                    if future is not None:
                        return self._respond(future, close, _theta_bytes), close
                parsed_body = None
            elif method == "POST":
                content_type = headers.get("content-type", "")
                if (route == "/theta/batch"
                        and content_type.split(";")[0].strip().lower()
                        == "application/x-ndjson"):
                    return self._render(
                        200, self._ndjson_batch(params, body), close=close,
                        content_type="application/x-ndjson"), close
                parsed_body = parse_post_body(body)
            else:
                raise ServiceError(
                    f"method {method} not allowed; use GET or POST", status=405)
            entry = ROUTES.get(route)
            runs_on = entry.runs_on if entry is not None else "loop"
            if runs_on == "loop":
                payload = service.handle(route, params, parsed_body)
                return self._render(200, _json_bytes(payload), close=close), close
            loop = asyncio.get_running_loop()
            if runs_on == "writer":
                work = self.admission.submit(params, parsed_body)
            else:
                work = loop.run_in_executor(
                    None, service.handle, route, params, parsed_body)
            # A task, so the work is admitted now rather than when the
            # connection writer reaches this response slot.
            return loop.create_task(self._respond(work, close, _json_bytes)), close
        except ReproError as error:
            return self._render_error(error, close=close), close
        except Exception as error:  # a handler bug must not kill the loop
            return self._render_error(error, close=True), True

    def _coalesce(self, params: dict):
        """Submit a point θ to the coalescer; None when handle() owns the 400."""
        try:
            vertex = int(params["vertex"])
            deadline = (Deadline.from_params(params)
                        if "deadline_ms" in params else None)
        except (KeyError, TypeError, ValueError, ServiceError):
            return None
        return self.coalescer.submit(params.get("artifact"), vertex, deadline=deadline)

    async def _respond(self, awaitable, close: bool, render) -> bytes:
        """A deferred response: ``render(await awaitable)`` as a 200.

        A :class:`ReproError` answers its structured error on the same
        connection, exactly like the inline routes; any other exception
        propagates to the connection writer, which answers 500 and closes.
        """
        try:
            payload = await awaitable
        except ReproError as error:
            return self._render_error(error, close=close)
        return self._render(200, render(payload), close=close)

    def _stats_body(self) -> bytes:
        now = time.monotonic()
        cached = self._stats_cache
        if cached is not None and now - cached[0] < self.stats_cache_seconds:
            self.service.count_requests("/stats")
            return cached[1]
        body = _json_bytes(self.service.handle("/stats"))
        self._stats_cache = (now, body)
        return body

    def _ndjson_batch(self, params: dict, raw: bytes) -> bytes:
        """NDJSON bulk protocol: one /theta/batch request per body line."""
        lines = [line for line in raw.split(b"\n") if line.strip()]
        if not lines:
            raise ServiceError("NDJSON body carries no request lines")
        rendered = []
        for line in lines:
            try:
                entry = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                rendered.append(_json_bytes(error_payload(
                    ServiceError("NDJSON line is not valid JSON"))))
                continue
            body = {"vertices": entry} if isinstance(entry, list) else entry
            if not isinstance(body, dict):
                rendered.append(_json_bytes(error_payload(
                    ServiceError("NDJSON line must be a JSON object or array"))))
                continue
            try:
                payload = self.service.handle("/theta/batch", params, body)
            except ServiceError as error:
                rendered.append(_json_bytes(error_payload(error)))
                continue
            rendered.append(_json_bytes(payload))
        return b"\n".join(rendered) + b"\n"

    # ------------------------------------------------------------------
    # Response rendering
    # ------------------------------------------------------------------
    def _render(self, status: int, body: bytes, *, close: bool = False,
                content_type: str = "application/json",
                extra_headers=None) -> bytes:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if extra_headers:
            for name, value in extra_headers:
                head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
        return head.encode("latin-1") + b"\r\n" + body

    def _render_error(self, error: Exception, *, close: bool) -> bytes:
        """Structured JSON error: a ServiceError's own status, else 500."""
        payload = error_payload(
            error, status=None if isinstance(error, ServiceError) else 500)
        extra = None
        retry_after = payload.get("retry_after_seconds")
        if retry_after is not None:
            extra = (("Retry-After", str(max(1, round(retry_after)))),)
        return self._render(payload["status"], _json_bytes(payload),
                            close=close, extra_headers=extra)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def _serve_until_stopped(server: AsyncTipServer) -> None:
    await server.start()
    host, port = server.address
    if not server.quiet:
        names = server.service.artifact_names
        print(f"serving {len(names)} artifact(s) ({', '.join(names)}) "
              f"on http://{host}:{port} [transport=async]")
    try:
        await server.serve_forever()
    finally:
        await server.close()


def serve_async(artifact_paths, *, quiet: bool = False, **options) -> None:
    """Serve artifacts until interrupted (the ``repro serve`` command body).

    ``options`` are :class:`AsyncTipServer` keyword arguments.
    """
    server = AsyncTipServer(artifact_paths, quiet=quiet, **options)
    try:
        asyncio.run(_serve_until_stopped(server))
    except KeyboardInterrupt:
        pass


class AsyncServerHandle:
    """A running async server on a background thread (tests, examples, benchmarks)."""

    def __init__(self, server: AsyncTipServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def service(self) -> TipService:
        """The :class:`TipService` behind the running server."""
        return self.server.service

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the background server."""
        return self.server.address

    @property
    def base_url(self) -> str:
        """``http://host:port`` for plain-URL clients."""
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread."""
        self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout)


def start_server_thread(artifact_paths=None, *, port: int = 0,
                        **options) -> AsyncServerHandle:
    """Start an :class:`AsyncTipServer` on a daemon thread and wait for bind.

    ``options`` are :class:`AsyncTipServer` keyword arguments; ``port``
    defaults to 0 (any free port).
    """
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        """Thread target: own the event loop for the server's lifetime."""

        async def main() -> None:
            """Build, start and run the server inside the thread's loop."""
            server = AsyncTipServer(artifact_paths, port=port, **options)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            try:
                await server.serve_forever()
            finally:
                await server.close()

        try:
            asyncio.run(main())
        except Exception as error:  # surface startup failures to the caller
            box.setdefault("error", error)
            started.set()

    thread = threading.Thread(target=runner, daemon=True, name="tip-aserver")
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("async server did not start within 30s")
    if "error" in box:
        raise box["error"]
    return AsyncServerHandle(box["server"], box["loop"], thread)
