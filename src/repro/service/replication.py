"""Leader/follower replication of the ``POST /update`` stream.

The streaming repair (PR 4) is deterministic and bit-exact, which makes
replication almost embarrassingly simple: the **leader** is the only
writer — it applies each validated edge batch locally, appends it to a
monotone-offset JSONL log, and fans the record out to its followers; a
**follower** replays the same batches in the same order through the same
repair code and must land on byte-identical state.  No conflicting-write
machinery is needed, only ordering — the shape of PrkDB-style single-
leader replication.

**State fingerprints.**  Artifact *manifest* fingerprints cover wall-clock
timestamps and timing counters, so two replicas holding identical data
report different manifest fingerprints.  Replication therefore chains on
:func:`state_fingerprint` — a SHA-256 over exactly the replicated state
(graph CSR + side + tip numbers).  Every log record carries the state it
applies to (``previous_state``) and the state it produces (``state``);
a follower checks the former before applying and *asserts* the latter
after — any mismatch means the replicas diverged.

**Crash safety and recovery (PR 10).**  Appends are fsync'd; a torn
final line (writer crashed mid-append) is truncated-and-recovered at
open instead of being fatal, while mid-log corruption stays fatal.  The
log checkpoints/compacts against a snapshot (a ``checkpoint`` first
line), and a leader whose artifact is *behind* its log tip at startup
replays the missing suffix through the same repair path.  A follower
that diverges no longer freezes forever: the poll loop automatically
re-bootstraps it from a leader snapshot (``GET /replication/snapshot``),
counted in ``resyncs`` and logged once per recovery.

**Delivery** is push + poll, now wrapped in the resilience layer:
per-follower pushes and the follower's poll both go through a
budget-capped :class:`~repro.service.resilience.RetryPolicy` and a
per-target :class:`~repro.service.resilience.CircuitBreaker`, and every
network seam is a named fault site for the deterministic chaos harness
(:mod:`repro.service.faults`).  Offsets, lag, staleness, breaker states
and resync counts surface in ``/stats``, ``GET /replication/status`` and
the ``repro_replication_*`` / ``repro_resilience_*`` gauges.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil
import struct
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from pathlib import Path

import numpy as np

from ..errors import (
    CircuitOpenError,
    FaultInjectedError,
    ReplicationError,
    ServiceError,
)
from ..obs.log import get_logger
from ..obs.slo import Objective
from . import faults
from .resilience import CircuitBreakerRegistry, RetryPolicy

__all__ = [
    "ReplicationCoordinator",
    "ReplicationLog",
    "state_fingerprint",
]

_LOG = get_logger("repro.service.replication")

#: Suffix appended to the artifact path for the leader's default log
#: location.  The log must live *outside* the artifact directory: the
#: ``/update`` write path replaces that directory wholesale on every
#: applied batch.
LOG_SUFFIX = ".replog"

#: Default follower staleness promise (seconds behind the leader before
#: the ``replication-staleness`` SLO objective burns through its budget).
DEFAULT_STALENESS_THRESHOLD_SECONDS = 30.0

#: How many push-failure messages to keep per follower in ``status()``.
ERROR_HISTORY_LIMIT = 8


def state_fingerprint(index) -> str:
    """Deterministic SHA-256 of the replicated state of a loaded index.

    Covers the dual CSR (structure), the decomposed side and the tip
    numbers — everything replication must keep identical across replicas
    — and nothing time- or machine-dependent, so leader and follower
    fingerprints match exactly iff their served answers do.
    """
    digest = hashlib.sha256()
    graph = getattr(index, "graph", None)
    if graph is not None:
        digest.update(struct.pack("<qqq", graph.n_u, graph.n_v, graph.n_edges))
        csr = graph.csr_arrays()
        for key in ("u_offsets", "u_neighbors", "v_offsets", "v_neighbors"):
            digest.update(np.ascontiguousarray(csr[key], dtype=np.int64).tobytes())
    digest.update(str(index.side).encode("utf-8"))
    digest.update(np.ascontiguousarray(index.tip_numbers, dtype=np.int64).tobytes())
    return digest.hexdigest()


_RECORD_FIELDS = ("offset", "artifact", "insert", "delete",
                  "previous_state", "state")


def _validate_record(record: dict) -> dict:
    if not isinstance(record, dict):
        raise ServiceError("replication record must be a JSON object")
    missing = [key for key in _RECORD_FIELDS if key not in record]
    if missing:
        raise ServiceError(
            f"replication record is missing fields: {', '.join(missing)}")
    try:
        record["offset"] = int(record["offset"])
    except (TypeError, ValueError):
        raise ServiceError("replication record offset must be an integer") from None
    if record["offset"] < 1:
        raise ServiceError(
            f"replication record offset must be >= 1, got {record['offset']}")
    return record


class ReplicationLog:
    """Append-only JSONL log of applied update batches, monotone offsets.

    One JSON object per line; offsets are 1-based and assigned at append
    time.  Appends are flushed *and fsync'd* before they are acknowledged.

    **Torn-tail recovery.**  A process killed mid-append leaves a final
    line without its trailing newline.  At open, such a tail is either
    kept (it parses as a complete record with the expected offset — only
    the newline was lost, which is repaired) or truncated with a warning
    (``recovered_torn_tail`` is set either way).  A *complete* line that
    fails to parse, or an offset gap, is mid-log corruption and stays
    fatal — that data cannot be reconstructed.

    **Checkpoint/compaction.**  :meth:`compact` drops all but the newest
    ``retain`` records behind a first-line checkpoint
    ``{"checkpoint": {"offset": N, "state": ..., "base_state": ...}}``.
    ``base_offset`` is then N and ``records_from`` can only answer
    offsets > N; followers further behind re-bootstrap from a snapshot.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._base_offset = 0
        self._checkpoint_state: str | None = None
        self._chain_base_state: str | None = None
        self.recovered_torn_tail = False
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # Loading and torn-tail recovery
    # ------------------------------------------------------------------
    def _load(self) -> None:
        raw = self.path.read_bytes()
        if not raw:
            return
        text = raw.decode("utf-8")
        torn_tail: str | None = None
        if text.endswith("\n"):
            body = text[:-1]
            lines = body.split("\n") if body else []
        else:
            head, _, torn_tail = text.rpartition("\n")
            lines = head.split("\n") if head else []

        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReplicationError(
                    f"corrupt replication log {self.path} at line "
                    f"{line_number}: {exc}") from exc
            if (line_number == 1 and isinstance(record, dict)
                    and "checkpoint" in record and "offset" not in record):
                checkpoint = record["checkpoint"]
                self._base_offset = int(checkpoint["offset"])
                self._checkpoint_state = str(checkpoint["state"])
                base_state = checkpoint.get("base_state")
                self._chain_base_state = (
                    str(base_state) if base_state is not None else None)
                continue
            expected = self._base_offset + len(self._records) + 1
            if int(record.get("offset", -1)) != expected:
                raise ReplicationError(
                    f"replication log {self.path} offset gap at line "
                    f"{line_number}: expected {expected}, got {record.get('offset')}")
            self._records.append(record)

        if self._chain_base_state is None and self._records:
            self._chain_base_state = str(self._records[0]["previous_state"])

        if torn_tail is not None:
            self._recover_torn_tail(raw, torn_tail)

    def _recover_torn_tail(self, raw: bytes, tail: str) -> None:
        """Repair or truncate a final line that never got its newline."""
        self.recovered_torn_tail = True
        expected = self._base_offset + len(self._records) + 1
        record = None
        if tail.strip():
            try:
                parsed = json.loads(tail)
            except json.JSONDecodeError:
                parsed = None
            if isinstance(parsed, dict) and int(parsed.get("offset", -1)) == expected:
                record = parsed
        if record is not None:
            # The record reached disk intact; only the newline was lost.
            self._records.append(record)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            _LOG.warning(
                "replication log %s: repaired missing newline on final "
                "record (offset %d)", self.path, expected)
            return
        keep_bytes = len(raw) - len(tail.encode("utf-8"))
        with open(self.path, "r+b") as handle:
            handle.truncate(keep_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        _LOG.warning(
            "replication log %s: truncated torn final line (%d bytes) left "
            "by a crash mid-append; log resumes at offset %d",
            self.path, len(tail.encode("utf-8")), expected)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_offset(self) -> int:
        """Offset of the newest record (``base_offset`` when empty)."""
        with self._lock:
            return self._base_offset + len(self._records)

    @property
    def base_offset(self) -> int:
        """Offset of the checkpoint the retained records follow (0 = none)."""
        with self._lock:
            return self._base_offset

    @property
    def record_count(self) -> int:
        """How many records are physically retained (after compaction)."""
        with self._lock:
            return len(self._records)

    @property
    def checkpoint_state(self) -> str | None:
        """State fingerprint at ``base_offset`` (None when never compacted)."""
        with self._lock:
            return self._checkpoint_state

    @property
    def base_state(self) -> str | None:
        """State fingerprint the *chain* starts from (None when empty)."""
        with self._lock:
            if self._chain_base_state is not None:
                return self._chain_base_state
            if self._records:
                return str(self._records[0]["previous_state"])
            return None

    @property
    def tip_state(self) -> str | None:
        """State fingerprint at the log tip (checkpoint state when empty)."""
        with self._lock:
            if self._records:
                return str(self._records[-1]["state"])
            return self._checkpoint_state

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, record: dict) -> dict:
        """Assign the next offset, durably persist the record, return it.

        The ``log.append`` fault site simulates crashes here: ``corrupt``
        writes half the line with no newline and then dies (the torn-tail
        scenario recovery must handle), ``drop`` loses the write, and
        ``error`` fails before anything reaches disk.
        """
        with self._lock:
            record = dict(record)
            record["offset"] = self._base_offset + len(self._records) + 1
            line = json.dumps(record, sort_keys=True)
            token = faults.fire("log.append")
            if token == "drop":
                raise ReplicationError(
                    "injected fault: log append dropped before reaching disk")
            with open(self.path, "a", encoding="utf-8") as handle:
                if token == "corrupt":
                    handle.write(line[: max(1, len(line) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise ReplicationError(
                        "injected fault: writer crashed mid-append; the log "
                        "now has a torn tail")
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            if self._chain_base_state is None and not self._records:
                self._chain_base_state = str(record["previous_state"])
            self._records.append(record)
            return record

    def compact(self, *, retain: int) -> int:
        """Checkpoint-and-drop all but the newest ``retain`` records.

        Atomically rewrites the log as one checkpoint line plus the
        retained suffix; returns how many records were dropped.
        """
        retain = max(0, int(retain))
        with self._lock:
            if len(self._records) <= retain:
                return 0
            split = len(self._records) - retain
            dropped, kept = self._records[:split], self._records[split:]
            new_base_offset = self._base_offset + len(dropped)
            checkpoint = {
                "offset": new_base_offset,
                "state": str(dropped[-1]["state"]),
            }
            if self._chain_base_state is not None:
                checkpoint["base_state"] = self._chain_base_state
            staging = self.path.with_name(self.path.name + ".compact")
            with open(staging, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"checkpoint": checkpoint},
                                        sort_keys=True) + "\n")
                for record in kept:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staging, self.path)
            self._base_offset = new_base_offset
            self._checkpoint_state = checkpoint["state"]
            self._records = kept
            _LOG.info(
                "replication log %s: compacted %d records behind checkpoint "
                "offset %d (%d retained)",
                self.path, len(dropped), new_base_offset, len(kept))
            return len(dropped)

    def records_from(self, offset: int, *, limit: int | None = None) -> list[dict]:
        """Retained records with offsets >= ``offset``, oldest first.

        Offsets at or below ``base_offset`` were compacted away; callers
        detect that via the ``base_offset`` field of the log payload and
        re-bootstrap from a snapshot instead.
        """
        offset = max(1, int(offset))
        with self._lock:
            start = max(0, offset - self._base_offset - 1)
            records = self._records[start:]
        if limit is not None:
            records = records[: max(0, int(limit))]
        return [dict(record) for record in records]


def _http_json(url: str, *, payload: dict | None = None, timeout: float) -> dict:
    """One JSON request/response round trip (POST when a payload is given)."""
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", "")
        except Exception:  # noqa: BLE001 - best-effort error detail
            pass
        raise ReplicationError(
            f"{url} answered HTTP {exc.code}" + (f": {detail}" if detail else "")
        ) from None
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        raise ReplicationError(f"cannot reach {url}: {exc}") from None


class ReplicationCoordinator:
    """Role-aware replication driver attached to one :class:`TipService`.

    * ``role="leader"`` — owns the :class:`ReplicationLog`; the service
      calls :meth:`record_applied` (under its update lock) after every
      locally applied batch, which appends the record and pushes it to
      every configured follower URL through a retry policy and a
      per-follower circuit breaker, best effort.  A leader whose artifact
      is *behind* the log tip at startup (crash between log append and
      the next write) replays the missing suffix; an artifact *ahead* of
      or outside the chain is still fatal.
    * ``role="follower"`` — rejects direct ``POST /update`` (HTTP 409),
      accepts pushed records on ``POST /replication/apply``, and runs a
      daemon poll thread that pulls missed records from the leader's log.
      Both paths serialize on one apply lock, verify the fingerprint
      chain, and assert the repaired state matches the leader's record.
      On divergence (or when the leader compacted past this follower's
      offset) the poll path automatically re-bootstraps from a leader
      snapshot instead of freezing.

    Replication covers exactly one artifact; when the service serves
    several, pass ``artifact`` explicitly.  ``http_client`` is an
    injection seam for tests (socket-free in-process topologies): any
    callable with the :func:`_http_json` signature.
    """

    def __init__(
        self,
        service,
        *,
        role: str,
        artifact: str | None = None,
        log_path: str | Path | None = None,
        leader_url: str | None = None,
        follower_urls: tuple[str, ...] | list[str] = (),
        poll_interval: float = 1.0,
        push_timeout: float = 5.0,
        staleness_threshold_seconds: float = DEFAULT_STALENESS_THRESHOLD_SECONDS,
        retry_policy: RetryPolicy | None = None,
        log_compact_threshold: int | None = None,
        http_client=None,
    ):
        if role not in ("leader", "follower"):
            raise ServiceError(f"replication role must be leader or follower, got {role!r}")
        if role == "follower" and not leader_url:
            raise ServiceError("a follower needs the leader's URL (--leader)")
        if log_compact_threshold is not None and int(log_compact_threshold) < 2:
            raise ServiceError(
                f"log compact threshold must be >= 2, got {log_compact_threshold}")
        self.service = service
        self.role = role
        self.poll_interval = float(poll_interval)
        self.push_timeout = float(push_timeout)
        self.staleness_threshold_seconds = float(staleness_threshold_seconds)
        self.leader_url = leader_url.rstrip("/") if leader_url else None
        self.log_compact_threshold = (
            int(log_compact_threshold) if log_compact_threshold else None)
        self._http = http_client if http_client is not None else _http_json
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=1.0, budget_seconds=5.0,
            retryable=(ReplicationError,))
        self.breakers: CircuitBreakerRegistry = (
            getattr(service, "breakers", None) or CircuitBreakerRegistry())

        if artifact is None:
            names = service.artifact_names
            if len(names) != 1:
                raise ServiceError(
                    "replication covers one artifact; pass artifact=NAME "
                    f"(serving: {', '.join(names)})")
            artifact = names[0]
        elif artifact not in service.artifact_names:
            raise ServiceError(
                f"unknown artifact {artifact!r} "
                f"(serving: {', '.join(service.artifact_names)})", status=404)
        self.artifact = artifact

        # Current replicated-state fingerprint; maintained incrementally
        # (each applied record's post-state) after the initial computation.
        self._state = state_fingerprint(service.index_for(artifact))
        self._apply_lock = threading.Lock()
        self._stop = threading.Event()
        self._poll_thread: threading.Thread | None = None
        self.diverged: str | None = None  # divergence description until recovery
        self.resyncs = 0
        self.last_resync_unix: float | None = None
        self.recovered_records = 0

        if role == "leader":
            if log_path is None:
                log_path = Path(str(service.artifact_path(artifact)) + LOG_SUFFIX)
            self.log = ReplicationLog(log_path)
            tip = self.log.tip_state
            if tip is not None and tip != self._state:
                self.recovered_records = self._replay_log_tail()
            self.followers = {
                url.rstrip("/"): {
                    "acked_offset": 0,
                    "last_push_unix": None,
                    "last_error": None,
                    "consecutive_failures": 0,
                    "recent_errors": deque(maxlen=ERROR_HISTORY_LIMIT),
                }
                for url in follower_urls
            }
        else:
            self.log = None
            self.followers = {}
            # applied_offset is resolved lazily on first contact: the
            # follower fingerprints its snapshot into the leader's chain.
            self.applied_offset: int | None = None
            self._leader_last_offset: int | None = None
            self._last_contact_unix: float | None = None
            self._last_synced_unix: float | None = None
            self.last_error: str | None = None

        service.attach_replication(self)

    # ------------------------------------------------------------------
    # Shared surface
    # ------------------------------------------------------------------
    def objective(self) -> Objective | None:
        """The follower staleness SLO objective (None on the leader)."""
        if self.role != "follower":
            return None
        return Objective(
            name="replication-staleness",
            kind="staleness",
            description=(
                "follower replayed the leader's log within "
                f"{self.staleness_threshold_seconds:g} s"),
            target=0.999,
            threshold_seconds=self.staleness_threshold_seconds,
        )

    def check_writable(self) -> None:
        """Guard on ``POST /update``: only the leader accepts writes."""
        if self.role == "follower":
            raise ServiceError(
                "this replica is a read-only follower; send updates to the "
                f"leader at {self.leader_url}", status=409)

    def gauge_values(self) -> tuple[int, int, float | None]:
        """(offset, lag, staleness_seconds) for the replication gauges."""
        if self.role == "leader":
            last = self.log.last_offset
            lag = max((last - peer["acked_offset"] for peer in self.followers.values()),
                      default=0)
            return last, int(lag), 0.0
        applied = self.applied_offset or 0
        leader_last = self._leader_last_offset
        lag = max(0, (leader_last or applied) - applied)
        return applied, int(lag), self.staleness_seconds()

    def staleness_seconds(self) -> float | None:
        """Seconds since this follower last verified it matched the leader.

        ``None`` before the first successful sync (the SLO treats that as
        ``no_data``, not a breach); on the leader, always 0.
        """
        if self.role == "leader":
            return 0.0
        synced = self._last_synced_unix
        if synced is None:
            return None
        return max(0.0, time.time() - synced)

    def status(self) -> dict:
        """The ``GET /replication/status`` payload (also embedded in /stats)."""
        offset, lag, staleness = self.gauge_values()
        payload = {
            "role": self.role,
            "artifact": self.artifact,
            "offset": offset,
            "lag": lag,
            "staleness_seconds": staleness,
            "state": self._state,
            "diverged": self.diverged,
            "resyncs": self.resyncs,
            "last_resync_unix": self.last_resync_unix,
            "breakers": self.breakers.snapshot(),
        }
        if self.role == "leader":
            payload["followers"] = {
                url: {**peer, "recent_errors": list(peer["recent_errors"])}
                for url, peer in self.followers.items()}
            payload["base_state"] = self.log.base_state or self._state
            payload["recovered_records"] = self.recovered_records
            payload["log"] = {
                "path": str(self.log.path),
                "base_offset": self.log.base_offset,
                "record_count": self.log.record_count,
                "last_offset": self.log.last_offset,
                "recovered_torn_tail": self.log.recovered_torn_tail,
            }
        else:
            payload["leader"] = self.leader_url
            payload["leader_last_offset"] = self._leader_last_offset
            payload["last_error"] = self.last_error
        return payload

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _replay_log_tail(self) -> int:
        """Replay logged batches the artifact is missing (crash recovery).

        A crash after the fsync'd log append but before the artifact swap
        leaves the artifact one or more records behind the log tip.  The
        batches are all in the log, so recovery is a deterministic replay
        through the same repair path, asserting every recorded post-state.
        An artifact that matches *nowhere* in the chain changed outside
        the log and is still fatal.
        """
        records = self.log.records_from(1)
        start_offset = None
        if self._state == (self.log.checkpoint_state or ""):
            start_offset = self.log.base_offset
        elif records and str(records[0]["previous_state"]) == self._state:
            start_offset = records[0]["offset"] - 1
        else:
            for record in records:
                if str(record["state"]) == self._state:
                    start_offset = record["offset"]
                    break
        if start_offset is None:
            raise ReplicationError(
                f"replication log {self.log.path} tip (offset "
                f"{self.log.last_offset}) does not match the artifact's current "
                "state; the artifact changed outside the log — remove the "
                "log to start a fresh chain or restore the matching snapshot")
        replayed = 0
        for record in records:
            if record["offset"] <= start_offset:
                continue
            self.service.apply_replicated(self.artifact, _record_body(record))
            new_state = state_fingerprint(self.service.index_for(self.artifact))
            if new_state != str(record["state"]):
                raise ReplicationError(
                    f"replaying log record {record['offset']} produced state "
                    f"{new_state[:12]}... but the log recorded "
                    f"{str(record['state'])[:12]}...; the log does not match "
                    "this artifact")
            self._state = new_state
            replayed += 1
        _LOG.warning(
            "leader recovered %d logged batch(es) at startup (artifact was "
            "behind the replication log after a crash)", replayed)
        return replayed

    def record_applied(self, artifact: str, body: dict, mode: str | None,
                       repaired) -> dict:
        """Durably log one applied batch, write-ahead of the artifact swap.

        Called by the service under its update lock *before* the new
        artifact is persisted, so the fsync'd log is always at or ahead of
        the artifact on disk: a crash mid-append leaves a torn tail the
        log truncates at the next open (the batch was never acknowledged
        and the artifact never swapped — a clean reject), while a crash
        between the append and the swap is replayed deterministically by
        :meth:`_replay_log_tail` at the next startup.  Fan-out happens
        separately through :meth:`push_applied` once the artifact commit
        succeeded.
        """
        if self.role != "leader" or artifact != self.artifact:
            return {}
        previous_state = self._state
        new_state = state_fingerprint(repaired)
        record = {
            "artifact": artifact,
            "insert": list(body.get("insert") or []),
            "delete": list(body.get("delete") or []),
            "previous_state": previous_state,
            "state": new_state,
            "mode": mode,
            "applied_unix": time.time(),
        }
        if "damage_threshold" in body:
            record["damage_threshold"] = body["damage_threshold"]
        record = self.log.append(record)
        self._state = new_state
        if (self.log_compact_threshold is not None
                and self.log.record_count > self.log_compact_threshold):
            self.log.compact(retain=max(1, self.log_compact_threshold // 2))
        return record

    def push_applied(self, record: dict) -> None:
        """Fan a just-committed record out to followers (leader only).

        Push failures are recorded per follower and never fail the
        update — the poll path delivers the record later.
        """
        if record:
            self._push(record)

    def _note_push_failure(self, url: str, peer: dict, message: str) -> None:
        peer["last_error"] = message
        peer["consecutive_failures"] = int(peer["consecutive_failures"]) + 1
        peer["recent_errors"].append(message)
        _LOG.warning("replication push to %s failed: %s", url, message)

    def _push(self, record: dict) -> None:
        for url, peer in self.followers.items():
            breaker = self.breakers.get(f"push:{url}")
            try:
                token = faults.fire("replication.push")
            except FaultInjectedError as exc:
                self._note_push_failure(url, peer, str(exc))
                continue
            if token == "drop":
                self._note_push_failure(
                    url, peer, "injected fault: replication push dropped")
                continue
            outbound = record
            if token == "corrupt":
                outbound = dict(record)
                outbound["state"] = "0" * 64
            try:
                response = breaker.call(
                    self.retry_policy.call,
                    lambda u=url, r=outbound: self._http(
                        u + "/replication/apply", payload=r,
                        timeout=self.push_timeout))
            except (CircuitOpenError, ReplicationError) as exc:
                self._note_push_failure(url, peer, str(exc))
                continue
            peer["acked_offset"] = int(response.get("offset", peer["acked_offset"]))
            peer["last_push_unix"] = time.time()
            peer["last_error"] = None
            peer["consecutive_failures"] = 0

    def log_payload(self, params: dict) -> dict:
        """The ``GET /replication/log`` payload (leader only)."""
        if self.role != "leader":
            raise ServiceError(
                "this replica is a follower; fetch the log from the leader at "
                f"{self.leader_url}", status=409)
        try:
            start = int(params.get("from", 1))
            limit = int(params["limit"]) if "limit" in params else None
        except (TypeError, ValueError):
            raise ServiceError("parameters 'from'/'limit' must be integers") from None
        return {
            "artifact": self.artifact,
            "base_state": self.log.base_state or self._state,
            "base_offset": self.log.base_offset,
            "checkpoint_state": self.log.checkpoint_state,
            "last_offset": self.log.last_offset,
            "from": start,
            "records": self.log.records_from(start, limit=limit),
        }

    def snapshot_payload(self) -> dict:
        """The ``GET /replication/snapshot`` payload (leader only).

        A consistent point-in-time copy of the artifact directory plus
        the log offset/state it corresponds to — what a diverged or
        compacted-past follower re-bootstraps from.  Lock-free: uses the
        service's mutation sequence as a seqlock (odd = update in flight)
        so a follower resync can never deadlock against the leader's
        update lock.
        """
        if self.role != "leader":
            raise ServiceError(
                "this replica is a follower; fetch snapshots from the leader "
                f"at {self.leader_url}", status=409)
        root = Path(self.service.artifact_path(self.artifact))
        seq_of = getattr(self.service, "mutation_seq", lambda: 0)
        for _ in range(32):
            seq_before = seq_of()
            if seq_before % 2:
                time.sleep(0.005)
                continue
            state = self._state
            last_offset = self.log.last_offset
            try:
                files = {
                    str(path.relative_to(root)):
                        base64.b64encode(path.read_bytes()).decode("ascii")
                    for path in sorted(root.rglob("*")) if path.is_file()
                }
            except OSError:
                continue
            if seq_of() == seq_before and self._state == state:
                return {
                    "artifact": self.artifact,
                    "state": state,
                    "last_offset": last_offset,
                    "base_state": self.log.base_state or state,
                    "files": files,
                }
            time.sleep(0.005)
        raise ReplicationError(
            "could not capture a consistent leader snapshot (updates kept "
            "landing mid-read); retry when the write rate drops")

    # ------------------------------------------------------------------
    # Follower side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the follower's catch-up poll thread (no-op on the leader)."""
        if self.role != "follower" or self._poll_thread is not None:
            return
        self._poll_thread = threading.Thread(
            target=self._poll_loop, name="replication-poll", daemon=True)
        self._poll_thread.start()

    def stop(self) -> None:
        """Stop the poll thread (if running) and join it."""
        self._stop.set()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=5.0)
            self._poll_thread = None

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.sync_once()
            except (ReplicationError, ServiceError) as exc:
                self.last_error = str(exc)

    def _fetch_from_leader(self, path: str, *, timeout: float | None = None) -> dict:
        """One resilient GET against the leader (breaker + retry + faults)."""
        token = faults.fire("replication.poll")
        if token == "drop":
            raise ReplicationError(
                "injected fault: replication poll dropped")
        breaker = self.breakers.get(f"poll:{self.leader_url}")
        response = breaker.call(
            self.retry_policy.call,
            lambda: self._http(self.leader_url + path,
                               timeout=timeout or self.push_timeout))
        if token == "corrupt":
            records = response.get("records")
            if records:
                tampered = dict(records[0])
                tampered["state"] = "f" * 64
                records[0] = tampered
        return response

    def handle_push(self, record: dict | None) -> dict:
        """Apply one pushed record (``POST /replication/apply``).

        While diverged, pushes are acknowledged-but-not-applied
        (``applied: false``) rather than triggering an inline resync:
        pushes arrive under the *leader's* update lock, and a resync
        fetches a snapshot from that same leader — recovery belongs to
        the poll path, which owns no leader resources.
        """
        if record is None:
            raise ServiceError(
                "replication apply requires a POST body with one log record",
                status=405)
        if self.role != "follower":
            raise ServiceError(
                "this replica is the leader; followers accept pushed records",
                status=409)
        record = _validate_record(dict(record))
        with self._apply_lock:
            if self.diverged:
                return {"applied": False, "offset": self.applied_offset or 0,
                        "lag": self.gauge_values()[1], "diverged": True}
            self._ensure_offset_locked()
            offset = record["offset"]
            self._leader_last_offset = max(self._leader_last_offset or 0, offset)
            self._last_contact_unix = time.time()
            if offset <= self.applied_offset:
                applied = False  # duplicate delivery; already reflected
            elif offset == self.applied_offset + 1:
                self._apply_record_locked(record)
                applied = True
            else:
                # Gap: a prior push was lost.  Pull the missing prefix from
                # the leader right now instead of waiting for the poll tick
                # (pull only — never a snapshot resync, see docstring).
                self._sync_locked(allow_resync=False)
                applied = self.applied_offset >= offset
            if self.applied_offset >= (self._leader_last_offset or 0):
                self._last_synced_unix = time.time()
        return {"applied": applied, "offset": self.applied_offset,
                "lag": self.gauge_values()[1]}

    def sync_once(self) -> dict:
        """One catch-up round against the leader's log (follower only).

        This is the recovery path: a diverged follower re-bootstraps from
        a leader snapshot here before resuming the normal pull.
        """
        if self.role != "follower":
            raise ServiceError("sync_once is a follower operation", status=409)
        with self._apply_lock:
            return self._sync_locked()

    def _sync_locked(self, *, allow_resync: bool = True) -> dict:
        if self.diverged:
            if not allow_resync:
                raise ReplicationError(self.diverged)
            self._resync_locked()
        try:
            self._ensure_offset_locked()
        except ReplicationError:
            if not allow_resync or not self.diverged:
                raise
            self._resync_locked()
        response = self._fetch_from_leader(
            f"/replication/log?from={self.applied_offset + 1}")
        base_offset = int(response.get("base_offset", 0))
        if self.applied_offset < base_offset:
            # The leader compacted the log past this follower's position;
            # the records it needs no longer exist — re-bootstrap.
            if not allow_resync:
                raise ReplicationError(
                    f"leader compacted its log past offset {self.applied_offset} "
                    f"(base is now {base_offset}); snapshot re-sync required")
            self._resync_locked()
            response = self._fetch_from_leader(
                f"/replication/log?from={self.applied_offset + 1}")
        self._leader_last_offset = int(response.get("last_offset", 0))
        self._last_contact_unix = time.time()
        applied = 0
        for record in response.get("records", []):
            record = _validate_record(dict(record))
            if record["offset"] <= self.applied_offset:
                continue
            if record["offset"] != self.applied_offset + 1:
                raise ReplicationError(
                    f"leader log answered offset {record['offset']} while the "
                    f"follower expected {self.applied_offset + 1}")
            self._apply_record_locked(record)
            applied += 1
        if self.applied_offset >= (self._leader_last_offset or 0):
            self._last_synced_unix = time.time()
        self.last_error = None
        return {"applied": applied, "offset": self.applied_offset,
                "lag": max(0, (self._leader_last_offset or 0) - self.applied_offset)}

    def resync(self) -> dict:
        """Force a snapshot re-bootstrap from the leader (follower only)."""
        if self.role != "follower":
            raise ServiceError("resync is a follower operation", status=409)
        with self._apply_lock:
            self._resync_locked()
            return {"offset": self.applied_offset, "resyncs": self.resyncs}

    def _resync_locked(self) -> None:
        """Re-bootstrap this follower from a leader snapshot.

        Installs the snapshot with the same staging + rename swap the
        artifact writer uses, reloads the service's cached index, and
        rejoins the chain at the snapshot's offset.  Clears ``diverged``.
        """
        reason = self.diverged or "operator-requested resync"
        snapshot = self._fetch_from_leader("/replication/snapshot",
                                           timeout=max(self.push_timeout, 30.0))
        if str(snapshot.get("artifact")) != self.artifact:
            raise ReplicationError(
                f"leader snapshot covers artifact {snapshot.get('artifact')!r}, "
                f"not {self.artifact!r}")
        self._install_snapshot_locked(snapshot)
        self.resyncs += 1
        self.last_resync_unix = time.time()
        self.diverged = None
        self.last_error = None
        self._leader_last_offset = max(
            self._leader_last_offset or 0, int(snapshot["last_offset"]))
        if self.applied_offset >= (self._leader_last_offset or 0):
            self._last_synced_unix = time.time()
        _LOG.warning(
            "follower re-synced from a leader snapshot at offset %d "
            "(recovery #%d; cause: %s)",
            self.applied_offset, self.resyncs, reason)

    def _install_snapshot_locked(self, snapshot: dict) -> None:
        files = snapshot.get("files")
        if not isinstance(files, dict) or not files:
            raise ReplicationError("leader snapshot carries no files")
        root = Path(self.service.artifact_path(self.artifact))
        staging = root.with_name(root.name + ".resync-staging")
        retired = root.with_name(root.name + ".resync-old")
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(retired, ignore_errors=True)
        staging.mkdir(parents=True)
        try:
            for rel, encoded in files.items():
                rel_path = Path(rel)
                if rel_path.is_absolute() or ".." in rel_path.parts:
                    raise ReplicationError(
                        f"leader snapshot names an unsafe path {rel!r}")
                dest = staging / rel_path
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(base64.b64decode(encoded))
            os.rename(root, retired)
            os.rename(staging, root)
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            raise ReplicationError(f"snapshot install failed: {exc}") from None
        shutil.rmtree(retired, ignore_errors=True)
        self.service.reload_artifact(self.artifact)
        self._state = state_fingerprint(self.service.index_for(self.artifact))
        if self._state != str(snapshot.get("state")):
            raise ReplicationError(
                "installed leader snapshot fingerprints to "
                f"{self._state[:12]}... but the leader labelled it "
                f"{str(snapshot.get('state'))[:12]}...; snapshot was torn")
        self.applied_offset = int(snapshot["last_offset"])

    def _ensure_offset_locked(self) -> None:
        """Fingerprint this follower's snapshot into the leader's chain."""
        if self.applied_offset is not None:
            return
        response = self._fetch_from_leader("/replication/log?from=1")
        self._leader_last_offset = int(response.get("last_offset", 0))
        self._last_contact_unix = time.time()
        base_offset = int(response.get("base_offset", 0))
        if self._state == str(response.get("base_state", "")) and base_offset == 0:
            self.applied_offset = 0
            return
        if (response.get("checkpoint_state")
                and self._state == str(response["checkpoint_state"])):
            self.applied_offset = base_offset
            return
        for record in response.get("records", []):
            if str(record.get("state")) == self._state:
                self.applied_offset = int(record["offset"])
                return
        self.applied_offset = base_offset
        self.diverged = (
            "follower snapshot does not appear anywhere in the leader's "
            "retained log chain; re-bootstrapping from a leader snapshot")
        raise ReplicationError(self.diverged)

    def _apply_record_locked(self, record: dict) -> None:
        if self.diverged:
            raise ReplicationError(self.diverged)
        if str(record["previous_state"]) != self._state:
            self.diverged = (
                f"record {record['offset']} applies to state "
                f"{str(record['previous_state'])[:12]}... but this follower "
                f"holds {self._state[:12]}...; replicas diverged")
            raise ReplicationError(self.diverged)
        payload = self.service.apply_replicated(self.artifact, _record_body(record))
        repaired = self.service.index_for(self.artifact)
        new_state = state_fingerprint(repaired)
        if new_state != str(record["state"]):
            self.diverged = (
                f"applying record {record['offset']} produced state "
                f"{new_state[:12]}... but the leader recorded "
                f"{str(record['state'])[:12]}...; the repair diverged")
            raise ReplicationError(self.diverged)
        self._state = new_state
        self.applied_offset = record["offset"]
        _LOG.info(
            "replicated offset %d (%s): +%d/-%d edges",
            record["offset"], payload.get("mode"),
            len(record.get("insert") or []), len(record.get("delete") or []))


def _record_body(record: dict) -> dict:
    """The ``/update``-shaped body replaying one log record."""
    body = {}
    if record.get("insert"):
        body["insert"] = record["insert"]
    if record.get("delete"):
        body["delete"] = record["delete"]
    if "damage_threshold" in record:
        body["damage_threshold"] = record["damage_threshold"]
    return body
