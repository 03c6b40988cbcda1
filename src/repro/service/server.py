"""Transport-free request handling for the tip-index JSON API (stdlib only).

:class:`TipService` is the whole serving contract: route + params in,
JSON-able dict out, :class:`~repro.errors.ServiceError` (with an HTTP
status) on bad input.  The HTTP front end (:mod:`repro.service.aserver`,
the asyncio server behind ``repro serve``) and the offline ``repro query``
command both call it, which is what guarantees their answers are
byte-identical.  This module also owns the pieces of the wire format that
front end renders: :func:`error_payload`, :func:`parse_post_body`,
:func:`to_jsonable` and the documented metric families.

Routes (all JSON; :data:`ROUTES` is the one table behind :meth:`TipService.handle`)::

    GET  /healthz                          liveness + served artifact names
    GET  /metrics                          Prometheus text exposition (0.0.4)
    GET  /stats[?histogram=1]              cache metrics, per-artifact summaries
    GET  /theta?vertex=V                   point θ lookup
    GET  /theta/batch?vertices=1,2,3       batched θ lookup
    POST /theta/batch   {"vertices": [..]} batched θ lookup (large batches)
    GET  /top-k?k=K                        K highest-θ vertices
    GET  /k-tip?k=K[&limit=L]              members of the union of k-tips
    GET  /community?k=K[&vertex=V]         butterfly-connected k-tips (Sec. 6)
    POST /update {"insert": [[u,v],..],    apply an edge-update batch: CSR
                  "delete": [[u,v],..]}    patch + incremental tip repair

    GET  /slo[?cached=1]                   SLO burn-rate evaluation
    GET  /debug/memory[?cached=1]          memory snapshot
    GET  /debug/profile?seconds=S          on-demand sampling profile
    GET  /replication/status               offset / lag / staleness
    GET  /replication/log?from=N           update-log records after offset N
    POST /replication/apply                follower: apply one pushed record
    GET  /replication/snapshot             leader: consistent artifact copy

The second block lists the operator routes (:data:`DIAGNOSTIC_ENDPOINTS`);
``/replication/*`` answer 404 unless replication is attached.  ``/metrics``
is a transport concern, rendered by the HTTP front end itself.

``/update`` is the one write path: it routes the batch through the
streaming engine (:mod:`repro.streaming`), persists the refreshed artifact
with the usual atomic directory swap, and puts the repaired index straight
into the cache under its new fingerprint — readers keep answering from the
previous snapshot until that swap and are never blocked by a writer
(updates themselves serialize on a per-service lock).  ``/stats`` reports
the artifact's schema version, fingerprints and streaming staleness
counters so monitoring can watch the update stream.

Every endpoint takes an optional ``artifact=NAME`` parameter; it may be
omitted when a single artifact is being served.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ReproError, ServiceError, StreamingError
from ..obs.log import log_request
from ..obs.memory import memory_snapshot, rss_bytes
from ..obs.metrics import BATCH_SIZE_BUCKETS, MetricRegistry
from ..obs.profile import (
    DEFAULT_INTERVAL_SECONDS,
    ProfileBusyError,
    collect_profile,
)
from ..obs.slo import DEFAULT_OBJECTIVES, SloMonitor, breaker_open_objective
from . import faults
from .artifacts import ARRAYS_FILENAME, read_manifest, save_artifact
from .cache import IndexCache
from .index import TipIndex
from .resilience import CircuitBreakerRegistry, Deadline

__all__ = [
    "TipService",
    "Route",
    "ROUTES",
    "ENDPOINTS",
    "DIAGNOSTIC_ENDPOINTS",
    "DOCUMENTED_METRICS",
    "METRICS_CONTENT_TYPE",
    "error_payload",
    "parse_post_body",
]

#: ``Content-Type`` of the Prometheus text exposition format 0.0.4.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every metric family ``GET /metrics`` exposes.  The
#: observability smoke benchmark asserts each of these names appears in a
#: scrape; keep this list in sync with :meth:`TipService._init_metrics`
#: and the ARCHITECTURE.md observability section.
DOCUMENTED_METRICS = (
    "repro_http_requests_total",
    "repro_http_request_seconds",
    "repro_coalesce_batch_size",
    "repro_coalesce_wait_seconds",
    "repro_admission_queue_depth",
    "repro_admission_rejections_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_cache_entries",
    "repro_cache_hit_ratio",
    "repro_service_requests_total",
    "repro_server_start_time_seconds",
    "repro_server_uptime_seconds",
    "repro_updates_applied_total",
    "repro_artifact_staleness_seconds",
    "repro_memory_rss_bytes",
    "repro_memory_tracemalloc_bytes",
    "repro_memory_workspace_bytes",
    "repro_memory_shm_bytes",
    "repro_memory_artifact_bytes",
    "repro_slo_burn_rate",
    "repro_slo_ok",
    "repro_replication_offset",
    "repro_replication_lag",
    "repro_replication_staleness_seconds",
    "repro_resilience_retries_total",
    "repro_resilience_breakers_open",
    "repro_resilience_breaker_open_seconds",
    "repro_resilience_resyncs_total",
    "repro_resilience_deadline_exceeded_total",
    "repro_faults_armed",
    "repro_faults_injected_total",
)


#: Hard cap on one response's vertex payload; override per-request with a
#: smaller ``limit``.
MAX_RESPONSE_VERTICES = 100_000

#: Hard cap on the candidate set of a ``/community`` query: component
#: extraction is quadratic in the level's vertex count, so unboundedly low
#: ``k`` on a big index would stall the server for minutes.
MAX_COMMUNITY_VERTICES = 10_000

#: Hard cap on a POST body; generous headroom over the largest JSON
#: encoding of a MAX_RESPONSE_VERTICES-sized batch.
MAX_REQUEST_BODY_BYTES = 8 * 1024 * 1024


def _flag_param(params: dict, key: str) -> bool:
    """Boolean query parameter: absent/empty/``0``/``false`` mean off."""
    value = str(params.get(key, "")).strip().lower()
    return value not in ("", "0", "false", "no")


def error_payload(error: Exception, *, status: int | None = None) -> dict:
    """Structured error body of every JSON error answer (HTTP and offline).

    Carries the message and the HTTP status; a :class:`ServiceOverloadedError`
    additionally surfaces its ``Retry-After`` hint so clients can back off
    without parsing headers.
    """
    resolved = int(status if status is not None else getattr(error, "status", 500))
    payload = {"error": str(error), "status": resolved}
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after_seconds"] = float(retry_after)
    return payload


def parse_post_body(raw: bytes) -> dict:
    """Decode a POST body into the JSON object :meth:`TipService.handle` takes.

    Malformed JSON and non-object bodies answer a structured 400
    (:class:`ServiceError`) instead of a 500.
    """
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServiceError("request body is not valid JSON") from None
    if not isinstance(body, dict):
        raise ServiceError("request body must be a JSON object")
    return body


def to_jsonable(value):
    """Recursively convert numpy scalars/arrays into plain JSON types."""
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            return value.tolist()  # one C-level call on the hot path
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class Route:
    """One entry of :data:`ROUTES`: how a path is answered and where it runs."""

    #: Called as ``handler(service, params, body)``; returns the JSON-able
    #: payload or raises :class:`ServiceError`.
    handler: Callable[[TipService, dict, dict | None], dict]
    #: ``"api"`` (the JSON API contract, :data:`ENDPOINTS`) or
    #: ``"diagnostic"`` (operator surfaces, :data:`DIAGNOSTIC_ENDPOINTS`).
    group: str
    #: Where the async transport runs it: ``"loop"`` (inline on the event
    #: loop), ``"executor"`` (blocking work on the default executor) or
    #: ``"writer"`` (the admission-controlled single writer thread).
    runs_on: str = "loop"
    #: Answer 404 unless a replication coordinator is attached.
    needs_replication: bool = False


class TipService:
    """Transport-free request dispatch over one or more served artifacts.

    ``handle(route, params, body)`` is the whole contract: route + query
    params + optional JSON body in, JSON-able payload out, ``ServiceError``
    (carrying an HTTP status) on bad input.  The HTTP front end and the
    offline ``repro query`` command call it, which is what keeps their
    answers byte-identical.  Serves ``*.tipidx`` artifacts and optionally
    participates in leader/follower replication (:meth:`attach_replication`).
    """

    def __init__(
        self,
        artifact_paths,
        *,
        cache_capacity: int = 8,
        mmap: bool = True,
    ):
        self.cache = IndexCache(cache_capacity)
        self.mmap = mmap
        # Replication coordinator, attached after construction (if at all).
        self.replication = None
        self.requests: Counter = Counter()
        self.update_modes: Counter = Counter()
        # The HTTP front end (the async coalescing server) registers
        # zero-argument metric providers here; /stats folds them in under a
        # "transport" key.
        self.transport_metrics: dict = {}
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self.registry = MetricRegistry()
        # Per-target circuit breakers (replication push/poll) and the
        # deadline counter the resilience gauges read.
        self.breakers = CircuitBreakerRegistry()
        self.deadline_exceeded_total = 0
        # SLO monitoring reads the cumulative request instruments; it must
        # exist before _init_metrics so the per-objective gauges can be
        # instantiated eagerly (zero-valued from the first scrape).
        self.slo = SloMonitor(
            latency_source=self._latency_counts,
            availability_source=self._availability_counts,
            staleness_source=self._worst_staleness,
            objectives=DEFAULT_OBJECTIVES,
        )
        # Breaker-open objective: burns while any breaker stays open, fed by
        # the registry's oldest-open clock (a staleness-shaped signal).
        self.slo.add_objective(
            breaker_open_objective(),
            staleness_source=self.breakers.oldest_open_seconds)
        # Last stored deep-diagnostic payloads: ``?cached=1`` / ``?last=1``
        # return these verbatim, which is how the observability benchmark
        # asserts served bytes of volatile payloads equal the offline ones.
        self._last_profile: dict | None = None
        self._last_memory: dict | None = None
        self._init_metrics()
        self._requests_lock = threading.Lock()
        # One writer at a time: /update batches serialize here while readers
        # keep answering from the previous snapshot.
        self._update_lock = threading.Lock()
        # Seqlock over artifact mutation: odd while an update is in flight.
        # The replication snapshot endpoint reads it to capture a consistent
        # artifact copy without ever taking the update lock (lock-free, so a
        # follower resync can never deadlock against a pushing leader).
        self._mutation_seq = 0
        self._artifacts: dict[str, Path] = {}
        for raw_path in artifact_paths:
            path = Path(raw_path)
            name = read_manifest(path).name  # validates eagerly: fail at startup
            if name in self._artifacts:
                name = f"{name}#{len(self._artifacts)}"
            self._artifacts[name] = path
        if not self._artifacts:
            raise ServiceError("no artifacts to serve", status=500)

    # ------------------------------------------------------------------
    # Artifact resolution
    # ------------------------------------------------------------------
    @property
    def artifact_names(self) -> list[str]:
        """Names of every served artifact."""
        return list(self._artifacts)

    def artifact_path(self, name: str) -> Path:
        """Filesystem path of a served artifact, by name."""
        return self._resolve(name)[1]

    def _resolve(self, name: str | None) -> tuple[str, Path]:
        """(name, path) of a served artifact; ``None`` means the only one."""
        if name is None:
            if len(self._artifacts) != 1:
                raise ServiceError(
                    "multiple artifacts served; pass artifact=NAME "
                    f"(one of: {', '.join(self._artifacts)})"
                )
            name = next(iter(self._artifacts))
        path = self._artifacts.get(name)
        if path is None:
            raise ServiceError(
                f"unknown artifact {name!r} (serving: {', '.join(self._artifacts)})",
                status=404,
            )
        return name, path

    def attach_replication(self, coordinator) -> None:
        """Join a replication topology (called by the coordinator).

        Installs the coordinator for the ``/replication/*`` routes, the
        ``/update`` follower guard, the ``repro_replication_*`` gauges and
        the ``/stats`` section; on a follower, also registers the
        ``replication-staleness`` SLO objective backed by the
        coordinator's staleness signal.
        """
        self.replication = coordinator
        objective = coordinator.objective()
        if objective is not None:
            self.slo.add_objective(
                objective, staleness_source=coordinator.staleness_seconds)
            self._slo_burn_rate.labels(objective=objective.name).set(0.0)
            self._slo_ok.labels(objective=objective.name).set(1.0)

    def apply_replicated(self, artifact: str, body: dict) -> dict:
        """Apply one replicated record's batch, bypassing the follower guard.

        Only the replication coordinator calls this; ordering and
        fingerprint-chain checks happen there, the actual CSR patch + tip
        repair is the exact ``/update`` code path.
        """
        return self._apply_update(artifact, body, replicated=True)

    def count_requests(self, route: str, n: int = 1) -> None:
        """Advance the per-route request counter (fast paths bypass handle)."""
        with self._requests_lock:
            self.requests[metric_route(route)] += n

    def count_deadline_exceeded(self) -> None:
        """Note one request failed outright on its ``deadline_ms`` budget."""
        with self._requests_lock:
            self.deadline_exceeded_total += 1

    def mutation_seq(self) -> int:
        """Artifact-mutation seqlock value (odd = an update is in flight)."""
        return self._mutation_seq

    @contextmanager
    def _mutating(self):
        """Hold the mutation seqlock odd for the duration of an update."""
        self._mutation_seq += 1
        try:
            yield
        finally:
            self._mutation_seq += 1

    def reload_artifact(self, name: str) -> None:
        """Drop every cached view of an artifact replaced on disk.

        The replication coordinator calls this after installing a leader
        snapshot over the artifact directory (a follower re-bootstrap):
        the cache entry and the displaced index described the *old* bytes.
        The next read reloads lazily from the new manifest.
        """
        self.artifact_path(name)  # 404 on unknown names
        self.cache.clear()

    # ------------------------------------------------------------------
    # Metrics (see DOCUMENTED_METRICS)
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        """Create every documented instrument up front.

        Instantiating them here — rather than lazily on first use — is what
        guarantees a scrape renders the complete documented set (with zero
        values) from the very first request.
        """
        registry = self.registry
        self.http_requests_total = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by transport, route and status.",
            labelnames=("transport", "route", "status"),
        )
        self.http_request_seconds = registry.histogram(
            "repro_http_request_seconds",
            "End-to-end request latency in seconds, by transport and route.",
            labelnames=("transport", "route"),
        )
        self.coalesce_batch_size = registry.histogram(
            "repro_coalesce_batch_size",
            "Point-theta requests coalesced into one vectorized gather.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.coalesce_wait_seconds = registry.histogram(
            "repro_coalesce_wait_seconds",
            "Seconds a point-theta request waited in the coalescer queue.",
        )
        self._admission_queue_depth = registry.gauge(
            "repro_admission_queue_depth",
            "Updates admitted but not yet completed (async transport).",
        )
        self._admission_rejections = registry.gauge(
            "repro_admission_rejections_total",
            "Update batches rejected with 503 by admission control.",
        )
        self._cache_hits = registry.gauge(
            "repro_cache_hits_total", "Index cache hits since startup.")
        self._cache_misses = registry.gauge(
            "repro_cache_misses_total", "Index cache misses since startup.")
        self._cache_evictions = registry.gauge(
            "repro_cache_evictions_total", "Index cache LRU evictions since startup.")
        self._cache_entries = registry.gauge(
            "repro_cache_entries", "Indexes currently resident in the cache.")
        self._cache_hit_ratio = registry.gauge(
            "repro_cache_hit_ratio", "Index cache hit ratio in [0, 1].")
        self._service_requests = registry.gauge(
            "repro_service_requests_total",
            "Requests dispatched by the shared service, by route.",
            labelnames=("route",),
        )
        self._start_time = registry.gauge(
            "repro_server_start_time_seconds",
            "Unix time the service was constructed.",
        )
        self._uptime = registry.gauge(
            "repro_server_uptime_seconds", "Seconds since service construction.")
        self._updates_applied = registry.gauge(
            "repro_updates_applied_total",
            "Edge-update batches applied to the artifact, by artifact.",
            labelnames=("artifact",),
        )
        self._staleness = registry.gauge(
            "repro_artifact_staleness_seconds",
            "Seconds since the artifact was last built or updated, by artifact.",
            labelnames=("artifact",),
        )
        self._memory_rss = registry.gauge(
            "repro_memory_rss_bytes", "Resident set size of the serving process.")
        self._memory_tracemalloc = registry.gauge(
            "repro_memory_tracemalloc_bytes",
            "Python heap bytes currently traced by tracemalloc (0 when off).",
        )
        self._memory_workspace = registry.gauge(
            "repro_memory_workspace_bytes",
            "Bytes currently held by live wedge-workspace scratch arenas.",
        )
        self._memory_shm = registry.gauge(
            "repro_memory_shm_bytes",
            "Bytes of shared-memory segments this process currently owns.",
        )
        self._memory_artifact = registry.gauge(
            "repro_memory_artifact_bytes",
            "On-disk bytes of served artifact arrays (memmapped when loaded).",
        )
        self._slo_burn_rate = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per objective (>1 means breached).",
            labelnames=("objective",),
        )
        self._slo_ok = registry.gauge(
            "repro_slo_ok",
            "1 while the objective holds (or has no data), 0 while breached.",
            labelnames=("objective",),
        )
        self._replication_offset = registry.gauge(
            "repro_replication_offset",
            "Newest replication-log offset this replica has applied "
            "(on the leader: appended).",
        )
        self._replication_lag = registry.gauge(
            "repro_replication_lag",
            "Log records this follower (on the leader: its laggiest "
            "follower) is behind the leader's head.",
        )
        self._replication_staleness = registry.gauge(
            "repro_replication_staleness_seconds",
            "Seconds since this follower last verified it matched the "
            "leader's log head (0 on the leader).",
        )
        self._resilience_retries = registry.gauge(
            "repro_resilience_retries_total",
            "Replication push/poll attempts retried after a retryable failure.",
        )
        self._resilience_breakers_open = registry.gauge(
            "repro_resilience_breakers_open",
            "Circuit breakers currently in the open state.",
        )
        self._resilience_breaker_open_seconds = registry.gauge(
            "repro_resilience_breaker_open_seconds",
            "Longest time any circuit breaker has currently been open.",
        )
        self._resilience_resyncs = registry.gauge(
            "repro_resilience_resyncs_total",
            "Follower snapshot re-bootstraps performed after divergence "
            "or log compaction (0 on the leader).",
        )
        self._resilience_deadline_exceeded = registry.gauge(
            "repro_resilience_deadline_exceeded_total",
            "Requests failed with 503 because their deadline_ms budget "
            "expired before they were answered.",
        )
        self._faults_armed = registry.gauge(
            "repro_faults_armed",
            "1 while a deterministic fault-injection plan is armed.",
        )
        self._faults_injected = registry.gauge(
            "repro_faults_injected_total",
            "Faults injected by the armed plan since it was installed.",
        )
        for objective in self.slo.objectives:
            self._slo_burn_rate.labels(objective=objective.name).set(0.0)
            self._slo_ok.labels(objective=objective.name).set(1.0)
        self._start_time.set(self.started_unix)
        registry.register_callback(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Scrape-time refresh of gauges whose sources live elsewhere."""
        self._uptime.set(time.monotonic() - self._started_monotonic)
        cache = self.cache.stats()
        self._cache_hits.set(cache["hits"])
        self._cache_misses.set(cache["misses"])
        self._cache_evictions.set(cache["evictions"])
        self._cache_entries.set(cache["entries"])
        self._cache_hit_ratio.set(cache["hit_rate"])
        with self._requests_lock:
            requests = dict(self.requests)
        for route, count in requests.items():
            self._service_requests.labels(route=route).set(count)
        # Admission metrics come from the HTTP front end when one is
        # mounted; an offline service has no admission queue, so the zero
        # defaults from construction stand.
        provider = self.transport_metrics.get("updates")
        if provider is not None:
            updates = provider()
            self._admission_queue_depth.set(updates.get("pending", 0))
            self._admission_rejections.set(updates.get("admission_rejections", 0))
        now = time.time()
        for name, path in self._artifacts.items():
            try:
                manifest = self._read_manifest_retrying(path)
            except ReproError:
                continue  # mid-swap or corrupt; skip this artifact, not the scrape
            streaming = manifest.streaming
            self._updates_applied.labels(artifact=name).set(
                int(streaming.get("updates_applied", 0)))
            freshest = streaming.get("last_update_unix") or manifest.created_unix
            self._staleness.labels(artifact=name).set(max(0.0, now - float(freshest)))
        # Memory residency gauges refresh from cheap direct reads (no
        # tracemalloc snapshot: taking one per scrape when tracing would
        # cost more than the signal is worth).
        import tracemalloc

        from ..engine.shm import live_segment_stats
        from ..kernels.workspace import live_workspace_stats

        self._memory_rss.set(rss_bytes() or 0)
        self._memory_tracemalloc.set(
            tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0)
        self._memory_workspace.set(live_workspace_stats()["current_bytes"])
        self._memory_shm.set(live_segment_stats()["bytes"])
        self._memory_artifact.set(self._artifact_bytes_total())
        if self.replication is not None:
            offset, lag, staleness = self.replication.gauge_values()
            self._replication_offset.set(offset)
            self._replication_lag.set(lag)
            if staleness is not None:
                self._replication_staleness.set(staleness)
            self._resilience_retries.set(
                self.replication.retry_policy.stats()["retries_total"])
            self._resilience_resyncs.set(self.replication.resyncs)
        self._resilience_breakers_open.set(self.breakers.open_count())
        self._resilience_breaker_open_seconds.set(self.breakers.oldest_open_seconds())
        with self._requests_lock:
            self._resilience_deadline_exceeded.set(self.deadline_exceeded_total)
        fault_state = faults.metrics()
        self._faults_armed.set(1.0 if fault_state["armed"] else 0.0)
        self._faults_injected.set(fault_state["injected_total"])
        # The scrape drives periodic SLO evaluation (one snapshot per
        # scrape feeds the rolling windows).
        self.slo.evaluate()
        for objective, (burn, ok) in self.slo.burn_rates().items():
            self._slo_burn_rate.labels(objective=objective).set(burn)
            self._slo_ok.labels(objective=objective).set(1.0 if ok else 0.0)

    def metrics_text(self) -> str:
        """Render the registry in Prometheus text format (``GET /metrics``)."""
        return self.registry.render()

    # ------------------------------------------------------------------
    # SLO sources (cumulative reads over the request instruments)
    # ------------------------------------------------------------------
    def _latency_counts(self, threshold_seconds: float) -> tuple[int, int]:
        """(requests at or under the threshold, total) across all series.

        Diagnostic routes are excluded: the SLO promises cover the serving
        API, and ``/debug/profile?seconds=N`` blocks for N seconds *by
        design* — profiling a healthy instance must not degrade it.
        """
        good = 0
        total = 0
        for labels, child in self.http_request_seconds.children():
            if labels.get("route") in DIAGNOSTIC_ENDPOINTS:
                continue
            under, n = child.count_le(threshold_seconds)
            good += under
            total += n
        return good, total

    def _availability_counts(self) -> tuple[int, int]:
        """(5xx requests, total requests) across routes.

        Diagnostic routes are excluded for the same reason as latency:
        objectives measure the serving API, not the operator plane.
        """
        errors = 0
        total = 0
        for labels, child in self.http_requests_total.children():
            if labels.get("route") in DIAGNOSTIC_ENDPOINTS:
                continue
            value = int(child.value())
            total += value
            if str(labels.get("status", "")).startswith("5"):
                errors += value
        return errors, total

    def _worst_staleness(self) -> float | None:
        """Largest current staleness across served artifacts, in seconds."""
        now = time.time()
        worst: float | None = None
        for path in self._artifacts.values():
            try:
                manifest = self._read_manifest_retrying(path)
            except ReproError:
                continue
            freshest = manifest.streaming.get("last_update_unix") or manifest.created_unix
            staleness = max(0.0, now - float(freshest))
            worst = staleness if worst is None else max(worst, staleness)
        return worst

    # ------------------------------------------------------------------
    # Memory telemetry (GET /debug/memory)
    # ------------------------------------------------------------------
    def _artifact_memory(self) -> dict:
        """Per-artifact array bytes (memmapped when loaded) + scratch peaks."""
        artifacts: dict = {}
        for name, path in self._artifacts.items():
            try:
                array_bytes = (path / ARRAYS_FILENAME).stat().st_size
            except OSError:
                array_bytes = 0
            entry: dict = {"array_bytes": int(array_bytes), "loaded": False,
                           "peak_scratch_bytes": None}
            try:
                manifest = self._read_manifest_retrying(path)
            except ReproError:
                pass
            else:
                entry["loaded"] = self.cache.peek(manifest.fingerprint)
                entry["peak_scratch_bytes"] = manifest.counters.get("peak_scratch_bytes")
            artifacts[name] = entry
        return artifacts

    def _artifact_bytes_total(self) -> int:
        total = 0
        for path in self._artifacts.values():
            try:
                total += (path / ARRAYS_FILENAME).stat().st_size
            except OSError:
                pass
        return total

    def _memory_payload(self, params: dict, body: dict | None) -> dict:
        if _flag_param(params, "cached"):
            if self._last_memory is None:
                raise ServiceError("no memory snapshot collected yet", status=404)
            return self._last_memory
        try:
            top = int(params.get("top", 10))
        except (TypeError, ValueError):
            raise ServiceError("parameter 'top' must be an integer") from None
        payload = memory_snapshot(
            top=top, extra={"artifacts": self._artifact_memory()})
        self._last_memory = payload
        return payload

    def _profile_payload(self, params: dict, body: dict | None) -> dict:
        if _flag_param(params, "last"):
            if self._last_profile is None:
                raise ServiceError("no profile collected yet", status=404)
            return self._last_profile
        try:
            seconds = float(params.get("seconds", 1.0))
            interval_ms = float(params.get("interval_ms",
                                           DEFAULT_INTERVAL_SECONDS * 1000.0))
            top = int(params.get("top", 25))
        except (TypeError, ValueError):
            raise ServiceError(
                "parameters 'seconds'/'interval_ms'/'top' must be numbers"
            ) from None
        try:
            payload = collect_profile(
                seconds, interval=interval_ms / 1000.0, top=top)
        except ProfileBusyError as error:
            raise ServiceError(str(error), status=409) from None
        except ValueError as error:
            raise ServiceError(str(error)) from None
        self._last_profile = payload
        return payload

    def observe_request(self, transport: str, route: str, status: int,
                        seconds: float, *, quiet: bool = True) -> None:
        """Record one served request: latency histogram, counter, log line."""
        label = metric_route(route)
        self.http_requests_total.labels(
            transport=transport, route=label, status=str(int(status))).inc()
        self.http_request_seconds.labels(transport=transport, route=label).observe(seconds)
        log_request(transport, route, int(status), seconds, quiet=quiet)

    @staticmethod
    def _read_manifest_retrying(path: Path):
        """Manifest read that tolerates an in-flight artifact swap.

        ``save_artifact(overwrite=True)`` — the ``/update`` write path —
        swaps the artifact directory with two renames, leaving a
        microsecond window with no directory at the path.  The index cache
        already retries its reads across that window; manifest-only reads
        (``/stats`` polls) need the same treatment.
        """
        from ..errors import ArtifactError

        for attempt in range(3):
            try:
                return read_manifest(path)
            except ArtifactError:
                if attempt == 2:
                    raise
                time.sleep(0.05)
        raise AssertionError("unreachable")  # pragma: no cover

    def _manifest_summary(self, name: str | None) -> dict:
        """Per-artifact /stats summary from the manifest alone (no load)."""
        manifest = self._read_manifest_retrying(self.artifact_path(name))
        streaming = manifest.streaming
        return {
            "side": manifest.decomposition.get("side"),
            "algorithm": str(manifest.decomposition.get("algorithm", "")),
            "n_vertices": manifest.summary.get("n_vertices"),
            "max_tip_number": manifest.summary.get("max_tip_number"),
            "n_levels": manifest.summary.get("n_levels"),
            "format_version": manifest.format_version,
            "fingerprint": manifest.fingerprint,
            # The unified lineage field (also what `repro bench-history`
            # reports): the fingerprint the artifact's update stream
            # started from — equal to ``fingerprint`` until a first
            # ``/update`` moves the manifest fingerprint past it.
            "base_fingerprint": str(
                streaming.get("base_fingerprint") or manifest.fingerprint),
            "graph_fingerprint": str(manifest.graph.get("fingerprint", "")),
            "n_edges": manifest.graph.get("n_edges"),
            "has_graph": "u_offsets" in manifest.arrays,
            "loaded": self.cache.peek(manifest.fingerprint),
            # Memory observability of the wedge pipeline: the configured
            # per-chunk budget (None = library default at build time) and
            # the scratch high-water mark of the run that produced the
            # artifact's current decomposition (build or streaming repair).
            "wedge_budget": manifest.decomposition.get("wedge_budget"),
            "peak_scratch_bytes": manifest.counters.get("peak_scratch_bytes"),
            # Staleness bookkeeping: zeroed for a freshly built artifact,
            # advanced by every applied /update batch.
            "streaming": {
                "updates_applied": int(streaming.get("updates_applied", 0)),
                "edges_inserted": int(streaming.get("edges_inserted", 0)),
                "edges_deleted": int(streaming.get("edges_deleted", 0)),
                "last_update_unix": streaming.get("last_update_unix"),
                "base_fingerprint": streaming.get("base_fingerprint"),
                "modes": dict(streaming.get("modes", {})),
            },
        }

    def index_for(self, name: str | None = None) -> TipIndex:
        """The cached :class:`TipIndex` for an artifact name (loaded on demand)."""
        return self.cache.get_or_load(self._resolve(name)[1], mmap=self.mmap)

    # ------------------------------------------------------------------
    # Streaming updates (the one write path)
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_list(body: dict, key: str):
        raw = body.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise ServiceError(f'body field "{key}" must be a JSON array of [u, v] pairs')
        for pair in raw:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or any(isinstance(value, bool) or not isinstance(value, int)
                           for value in pair)):
                raise ServiceError(f'body field "{key}" must contain [u, v] integer pairs')
            # JSON integers are unbounded; anything outside int64 would blow
            # up inside numpy instead of answering 400.
            if any(not (-2**63 <= value < 2**63) for value in pair):
                raise ServiceError(f'body field "{key}" contains an id outside int64 range')
        return raw

    def _apply_update(self, artifact: str | None, body: dict | None,
                      *, replicated: bool = False) -> dict:
        """Apply one edge-update batch (the ``/update`` body).

        ``replicated=True`` marks a batch the replication coordinator is
        replaying from the leader's log: it bypasses the follower
        write guard and skips the leader fan-out hook (the record already
        exists), but runs the identical patch + repair + persist path.
        """
        if body is None:
            raise ServiceError(
                "update requires a POST body with insert/delete edge lists", status=405
            )
        from ..streaming import StreamingConfig

        inserts = self._edge_list(body, "insert")
        deletes = self._edge_list(body, "delete")
        if not inserts and not deletes:
            raise ServiceError('update body must carry "insert" and/or "delete" edges')

        name, path = self._resolve(artifact)
        if self.replication is not None and not replicated:
            self.replication.check_writable()

        with self._update_lock, self._mutating():
            # The "artifact.save" fault site fires before any state is
            # touched, so a simulated persistence failure rejects the batch
            # atomically (503) instead of leaving memory and disk torn.
            faults.fire("artifact.save")
            index = self.cache.get_or_load(path, mmap=self.mmap)
            manifest = read_manifest(path)
            decomposition = dict(manifest.decomposition)
            config_kwargs: dict = {}
            if "damage_threshold" in body:
                try:
                    config_kwargs["damage_threshold"] = float(body["damage_threshold"])
                except (TypeError, ValueError):
                    raise ServiceError('"damage_threshold" must be a number') from None
            algorithm = str(decomposition.get("algorithm") or "receipt").lower()
            config_kwargs["full_algorithm"] = algorithm
            if algorithm.startswith("receipt"):
                full_kwargs = {}
                if decomposition.get("n_partitions") is not None:
                    full_kwargs["n_partitions"] = int(decomposition["n_partitions"])
                config_kwargs["full_kwargs"] = full_kwargs
            if decomposition.get("peel_kernel"):
                config_kwargs["peel_kernel"] = str(decomposition["peel_kernel"])

            try:
                repaired, update = index.apply_delta(
                    inserts, deletes, config=StreamingConfig(**config_kwargs)
                )
            except StreamingError as error:
                # The batch conflicts with the current graph state (missing
                # delete, duplicate insert, out-of-range id); nothing was
                # modified.
                raise ServiceError(str(error), status=409) from None

            from ..peeling.base import TipDecompositionResult

            result = TipDecompositionResult(
                tip_numbers=update.tip_numbers,
                side=update.side,
                initial_butterflies=update.butterflies,
                algorithm=str(decomposition.get("algorithm", "")),
                counters=update.counters,
            )
            previous = manifest.streaming
            modes = Counter({str(key): int(value)
                             for key, value in dict(previous.get("modes", {})).items()})
            modes[update.mode] += 1
            streaming = {
                "updates_applied": int(previous.get("updates_applied", 0)) + 1,
                "edges_inserted": int(previous.get("edges_inserted", 0)) + update.inserted,
                "edges_deleted": int(previous.get("edges_deleted", 0)) + update.deleted,
                "last_update_unix": time.time(),
                "base_fingerprint": previous.get("base_fingerprint") or manifest.fingerprint,
                "modes": dict(modes),
            }
            # Write-ahead: the batch is fsync'd into the replication log
            # *before* the artifact swap.  A crash mid-append leaves a
            # torn log tail (truncated at next open; the batch was never
            # acknowledged, so that is a clean reject), and a crash
            # between append and swap is replayed from the log at the
            # next leader startup.
            record = None
            if (self.replication is not None and not replicated
                    and self.replication.role == "leader"):
                record = self.replication.record_applied(
                    name, body, update.mode, repaired)
            new_manifest = save_artifact(
                path,
                update.graph,
                result,
                config=decomposition,
                overwrite=True,
                streaming=streaming,
                center_butterflies=update.center_butterflies,
            )
            # Atomic swap: the repaired index goes straight into the cache
            # under its new fingerprint, the displaced snapshot is dropped.
            repaired.fingerprint = new_manifest.fingerprint
            self.cache.invalidate(manifest.fingerprint)
            self.cache.put(new_manifest.fingerprint, repaired)
            with self._requests_lock:
                self.update_modes[update.mode] += 1
            # Leader fan-out after the local commit, still under the
            # update lock so followers see records in apply order.
            if record:
                self.replication.push_applied(record)

        payload = update.summary()
        payload.update({
            "artifact": name,
            "fingerprint": new_manifest.fingerprint,
            "previous_fingerprint": manifest.fingerprint,
            "n_edges": update.graph.n_edges,
            "streaming": streaming,
        })
        if record:
            payload["replication"] = {
                "offset": record["offset"],
                "state": record["state"],
            }
        return payload

    # ------------------------------------------------------------------
    # Parameter parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _int_param(params: dict, key: str) -> int:
        raw = params.get(key)
        if raw is None:
            raise ServiceError(f"missing required parameter {key!r}")
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ServiceError(f"parameter {key!r} must be an integer, got {raw!r}") from None

    @staticmethod
    def _vertices_param(params: dict, body: dict | None) -> np.ndarray:
        if body is not None and "vertices" in body:
            raw = body["vertices"]
            if not isinstance(raw, list):
                raise ServiceError('body field "vertices" must be a JSON array')
            values = raw
        else:
            raw = params.get("vertices")
            if raw is None:
                raise ServiceError(
                    'missing vertices: pass ?vertices=1,2,3 or a JSON body {"vertices": [...]}'
                )
            values = [piece for piece in str(raw).split(",") if piece != ""]
        if len(values) > MAX_RESPONSE_VERTICES:
            raise ServiceError(
                f"batch of {len(values)} vertices exceeds the per-request cap "
                f"of {MAX_RESPONSE_VERTICES}"
            )
        vertices = []
        for value in values:
            # int(str(x)) rejects floats ("3.7" raises) instead of silently
            # truncating them; bool must be excluded (int(True) would be 1).
            if isinstance(value, bool):
                raise ServiceError("vertices must all be integers")
            try:
                vertices.append(int(str(value)))
            except (TypeError, ValueError):
                raise ServiceError("vertices must all be integers") from None
        return np.asarray(vertices, dtype=np.int64)

    # ------------------------------------------------------------------
    # Coalesced point lookups (the async front end's hot path)
    # ------------------------------------------------------------------
    def theta_payloads(self, artifact: str | None, vertices: list) -> list:
        """Answer many point-θ requests with one vectorized gather.

        Equivalent to ``len(vertices)`` sequential ``handle("/theta", ...)``
        calls — same payloads, same :class:`ServiceError` per bad request,
        same request accounting — but the artifact resolution (one manifest
        read) and the tip-number gather are paid once per batch.  Failures
        come back in-band as :class:`ServiceError` entries so one bad vertex
        never poisons its batch-mates.
        """
        self.count_requests("/theta", len(vertices))
        try:
            index = self.index_for(artifact)
        except ServiceError as error:
            return [error] * len(vertices)
        ids = np.asarray(vertices, dtype=np.int64)
        if ids.size and 0 <= int(ids.min()) and int(ids.max()) < index.n_vertices:
            thetas = index.tip_numbers[ids]
            return [
                {"vertex": int(vertex), "theta": int(theta)}
                for vertex, theta in zip(vertices, thetas)
            ]
        # Slow path (some vertex out of range): fall back to the point
        # query per request so error messages stay byte-identical.
        results: list = []
        for vertex in vertices:
            try:
                results.append({"vertex": int(vertex), "theta": index.theta(int(vertex))})
            except ServiceError as error:
                results.append(error)
        return results

    # ------------------------------------------------------------------
    # Route handlers (see ROUTES): each takes (params, body)
    # ------------------------------------------------------------------
    def _healthz(self, params: dict, body: dict | None) -> dict:
        # Liveness always answers 200; SLO breaches surface as a
        # ``degraded`` status so orchestrators can alarm without
        # restarting a server that is up but slow.
        slo = self.slo.evaluate()
        return {"status": slo["status"], "artifacts": self.artifact_names}

    def _slo(self, params: dict, body: dict | None) -> dict:
        if _flag_param(params, "cached"):
            cached = self.slo.last_payload
            if cached is None:
                raise ServiceError("no SLO evaluation recorded yet", status=404)
            return cached
        return self.slo.evaluate()

    def _stats(self, params: dict, body: dict | None) -> dict:
        artifact = params.get("artifact")
        payload: dict = {"artifacts": {}}
        names = [artifact] if artifact else self.artifact_names
        want_histogram = _flag_param(params, "histogram")
        for name in names:
            summary = self._manifest_summary(name)
            if want_histogram:
                # The histogram needs the index; everything else comes
                # from the manifest so a monitoring poll of /stats never
                # cold-loads (and LRU-thrashes) unqueried artifacts.
                index = self.index_for(name)
                summary["histogram"] = {
                    str(level): count for level, count in index.histogram().items()
                }
            payload["artifacts"][name] = summary
        # Cache metrics are read after the summaries so the loads they
        # triggered are reflected in the numbers.
        payload["cache"] = self.cache.stats()
        with self._requests_lock:
            payload["requests"] = dict(self.requests)
            payload["updates"] = dict(self.update_modes)
            # Uptime from the monotonic clock so an NTP step can never
            # produce a negative or jumping value mid-poll.
            payload["server"] = {
                "started_unix": self.started_unix,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "requests_total": dict(self.requests),
            }
        if self.transport_metrics:
            payload["transport"] = {
                name: provider() for name, provider in self.transport_metrics.items()
            }
        if self.replication is not None:
            payload["replication"] = self.replication.status()
        resilience: dict = {
            "breakers": self.breakers.snapshot(),
            "faults": faults.metrics(),
        }
        with self._requests_lock:
            resilience["deadline_exceeded_total"] = self.deadline_exceeded_total
        if self.replication is not None:
            resilience["retry"] = self.replication.retry_policy.stats()
            resilience["resyncs"] = self.replication.resyncs
        payload["resilience"] = resilience
        return payload

    def _update(self, params: dict, body: dict | None) -> dict:
        return self._apply_update(params.get("artifact"), body)

    def _theta(self, params: dict, body: dict | None) -> dict:
        deadline = Deadline.from_params(params)
        index = self.index_for(params.get("artifact"))
        vertex = self._int_param(params, "vertex")
        if deadline is not None and deadline.expired():
            self.count_deadline_exceeded()
            deadline.raise_if_expired("/theta")
        return {"vertex": vertex, "theta": index.theta(vertex)}

    def _theta_batch(self, params: dict, body: dict | None) -> dict:
        if body is not None and "deadline_ms" in body:
            deadline = Deadline.from_params(body)
        else:
            deadline = Deadline.from_params(params)
        index = self.index_for(params.get("artifact"))
        vertices = self._vertices_param(params, body)
        # One index gathers atomically: a request either starts within its
        # budget and gets the exact answer, or fails whole with a 503.
        if deadline is not None and deadline.expired():
            self.count_deadline_exceeded()
            deadline.raise_if_expired("/theta/batch")
        return {"vertices": vertices, "thetas": index.theta_batch(vertices)}

    def _top_k(self, params: dict, body: dict | None) -> dict:
        index = self.index_for(params.get("artifact"))
        k = self._int_param(params, "k")
        if k > MAX_RESPONSE_VERTICES:
            raise ServiceError(
                f"top-k is capped at {MAX_RESPONSE_VERTICES} vertices per "
                f"response, got k={k}"
            )
        vertices, thetas = index.top_k(k)
        return {"k": k, "vertices": vertices, "thetas": thetas}

    def _k_tip(self, params: dict, body: dict | None) -> dict:
        index = self.index_for(params.get("artifact"))
        k = self._int_param(params, "k")
        limit = (
            self._int_param(params, "limit")
            if "limit" in params else MAX_RESPONSE_VERTICES
        )
        if limit < 0:
            raise ServiceError(f"limit must be non-negative, got {limit}")
        limit = min(limit, MAX_RESPONSE_VERTICES)
        size = index.k_tip_size(k)
        members = index.k_tip_members(k, limit=limit)
        return {
            "k": k,
            "size": size,
            "truncated": bool(size > limit),
            "vertices": members,
        }

    def _community(self, params: dict, body: dict | None) -> dict:
        index = self.index_for(params.get("artifact"))
        k = self._int_param(params, "k")
        vertex = self._int_param(params, "vertex") if "vertex" in params else None
        candidates = index.k_tip_size(k)
        if candidates > MAX_COMMUNITY_VERTICES:
            raise ServiceError(
                f"level {k} has {candidates} vertices; community extraction "
                f"is capped at {MAX_COMMUNITY_VERTICES} — query a higher k"
            )
        components = index.communities(k, vertex=vertex)
        return {
            "k": k,
            "vertex": vertex,
            "n_communities": len(components),
            "communities": components,
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, route: str, params: dict | None = None, body: dict | None = None) -> dict:
        """Serve one request; returns a JSON-able payload or raises ServiceError."""
        params = params or {}
        route = route.rstrip("/") or "/"
        # Only known routes get their own counter entry; arbitrary scanner
        # paths would otherwise grow the Counter (and /stats) without bound.
        self.count_requests(route)
        entry = ROUTES.get(route)
        if entry is None:
            raise ServiceError(
                f"unknown route {route!r}; endpoints: {', '.join(ENDPOINTS)}; "
                f"diagnostics: {', '.join(DIAGNOSTIC_ENDPOINTS)}", status=404
            )
        if entry.needs_replication and self.replication is None:
            raise ServiceError(
                "replication is not configured on this server "
                "(start with --role leader or --role follower)", status=404)
        return entry.handler(self, params, body)


#: The one route table, in documentation order.  :meth:`TipService.handle`
#: dispatches from it, the async transport reads ``runs_on`` from it, and
#: :data:`ENDPOINTS`, :data:`DIAGNOSTIC_ENDPOINTS` and the metric route
#: labels are derived from it.
ROUTES: dict[str, Route] = {
    "/healthz": Route(TipService._healthz, "api"),
    "/stats": Route(TipService._stats, "api"),
    "/theta": Route(TipService._theta, "api"),
    "/theta/batch": Route(TipService._theta_batch, "api"),
    "/top-k": Route(TipService._top_k, "api"),
    "/k-tip": Route(TipService._k_tip, "api"),
    "/community": Route(TipService._community, "api"),
    # Repairs tips and fsyncs the artifact: one admission-controlled writer.
    "/update": Route(TipService._update, "api", runs_on="writer"),
    "/slo": Route(TipService._slo, "diagnostic"),
    "/debug/memory": Route(TipService._memory_payload, "diagnostic"),
    # Sampling blocks for the requested seconds.
    "/debug/profile": Route(TipService._profile_payload, "diagnostic", runs_on="executor"),
    "/replication/status": Route(
        lambda service, params, body: service.replication.status(),
        "diagnostic", needs_replication=True),
    "/replication/log": Route(
        lambda service, params, body: service.replication.log_payload(params),
        "diagnostic", needs_replication=True),
    # Replaying a pushed record runs a full streaming repair.
    "/replication/apply": Route(
        lambda service, params, body: service.replication.handle_push(body),
        "diagnostic", runs_on="executor", needs_replication=True),
    "/replication/snapshot": Route(
        lambda service, params, body: service.replication.snapshot_payload(),
        "diagnostic", needs_replication=True),
}

#: The JSON API contract: what the serving benchmarks compare against the
#: offline rendering and across versions.
ENDPOINTS = tuple(path for path, route in ROUTES.items() if route.group == "api")

#: Operator routes; they may grow or change shape between versions.
DIAGNOSTIC_ENDPOINTS = tuple(
    path for path, route in ROUTES.items() if route.group == "diagnostic")

#: Routes that get their own label value in request metrics; everything
#: else collapses into ``<unknown>`` so scanners can't grow the label set.
#: ``/metrics`` is answered by the transport, not by :data:`ROUTES`.
_COUNTED_ROUTES = frozenset(ROUTES) | {"/metrics"}


def metric_route(route: str) -> str:
    """Normalise a request path into a bounded metric label value."""
    return route if route in _COUNTED_ROUTES else "<unknown>"
