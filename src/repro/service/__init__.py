"""Tip-index serving layer: durable, queryable decomposition artifacts.

The compute side of the library (:mod:`repro.core`, :mod:`repro.engine`)
produces a :class:`~repro.peeling.base.TipDecompositionResult` by peeling —
an operation that costs seconds to hours.  This subsystem turns that result
into a read-optimized index that answers the paper's Sec. 6 use-case
queries (θ lookup, k-tip extraction, dense-community mining) in micro- to
milliseconds, without ever re-peeling:

* :mod:`repro.service.artifacts` — versioned on-disk artifact format:
  one uncompressed ``.npz`` of arrays plus a fingerprinted JSON manifest,
  written atomically and loaded zero-copy through ``mmap``.
* :mod:`repro.service.index` — :class:`TipIndex`, the in-memory query
  engine (θ-sorted permutation + level CSR) behind every endpoint.
* :mod:`repro.service.cache` — LRU cache of loaded indexes keyed by
  manifest fingerprint, with hit/miss/eviction metrics.
* :mod:`repro.service.server` — :class:`TipService`, the transport-free
  request handler shared by the HTTP server and the offline ``repro
  query`` command.
* :mod:`repro.service.coalesce` — event-loop micro-batching: the
  θ-request coalescer and the bounded write-admission controller.
* :mod:`repro.service.aserver` — the HTTP server (``repro serve``), an
  asyncio front end: persistent HTTP/1.1 connections with pipelining, one
  vectorized batch lookup per event-loop tick, precomputed hot JSON, an
  NDJSON bulk protocol, and admission-controlled updates.
* :mod:`repro.service.build` — ``build_index_artifact``: decompose (via
  the configured execution backend) and persist in one step.
* :mod:`repro.service.replication` — leader/follower replication of the
  ``POST /update`` stream: monotone-offset JSONL log, deterministic
  state-fingerprint chain, push + poll delivery, lag/staleness metrics.
"""

from __future__ import annotations

from .artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactManifest,
    TipArtifact,
    graph_fingerprint,
    load_artifact,
    read_manifest,
    save_artifact,
)
from .aserver import AsyncTipServer, serve_async, start_server_thread
from .build import build_index_artifact
from .cache import IndexCache
from .coalesce import ThetaCoalescer, UpdateAdmissionController
from .index import TipIndex
from .replication import ReplicationCoordinator, ReplicationLog, state_fingerprint
from .server import TipService

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactManifest",
    "TipArtifact",
    "TipIndex",
    "IndexCache",
    "TipService",
    "graph_fingerprint",
    "save_artifact",
    "load_artifact",
    "read_manifest",
    "build_index_artifact",
    "AsyncTipServer",
    "ThetaCoalescer",
    "UpdateAdmissionController",
    "serve_async",
    "start_server_thread",
    "ReplicationCoordinator",
    "ReplicationLog",
    "state_fingerprint",
]
