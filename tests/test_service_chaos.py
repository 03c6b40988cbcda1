"""Chaos property: seeded fault schedules never break prefix consistency.

A hypothesis-generated :class:`~repro.service.faults.FaultPlan` (count-
capped rules over the replication fault sites) runs against a leader +
two followers wired together by a socket-free loopback HTTP client.  Under *any* such schedule:

* every successful read is byte-identical to some prefix-consistent
  snapshot of the update sequence (faults turn into failed requests or
  stale-but-consistent answers, never wrong ones);
* leader updates are never torn — each acknowledged batch advances the
  replication offset by exactly one;
* once the schedule exhausts (every rule is count-capped), the topology
  converges to lag 0 without operator action, including followers that
  diverged on corrupted records and had to re-bootstrap from a snapshot.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ReplicationError, ServiceError
from repro.service import faults
from repro.service.artifacts import save_artifact
from repro.service.faults import FaultPlan, FaultRule
from repro.service.replication import ReplicationCoordinator
from repro.service.resilience import RetryPolicy
from repro.service.server import TipService, to_jsonable

BATCHES = (
    {"insert": [[0, 20], [1, 21]]},
    {"insert": [[2, 22]], "delete": [[0, 20]]},
    {"insert": [[3, 23], [4, 24]]},
)

PROBE = {"vertices": list(range(40))}

#: The sites a schedule may break.  log.append / artifact.save are
#: exercised by the dedicated crash-recovery tests — here they would
#: (correctly) fail leader updates, which is not the property under test.
CHAOS_SITES = ("replication.push", "replication.poll")

_rule = st.fixed_dictionaries({
    "site": st.sampled_from(CHAOS_SITES),
    "action": st.sampled_from(("drop", "error", "corrupt")),
    "count": st.integers(min_value=1, max_value=3),
    "probability": st.sampled_from((0.5, 1.0)),
})

_schedule = st.fixed_dictionaries({
    "rules": st.lists(_rule, min_size=1, max_size=4),
    "seed": st.integers(min_value=0, max_value=2**16),
})


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("chaos") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


@pytest.fixture(scope="module")
def reference_snapshots(source, tmp_path_factory):
    """Canonical /theta/batch bytes after each update prefix (no faults)."""
    root = tmp_path_factory.mktemp("chaos-ref")
    artifact = root / "blocks.tipidx"
    shutil.copytree(source, artifact)
    service = TipService([artifact])
    snapshots = [_canonical(service.handle("/theta/batch", {}, dict(PROBE)))]
    for batch in BATCHES:
        service.handle("/update", {}, dict(batch))
        snapshots.append(_canonical(service.handle("/theta/batch", {}, dict(PROBE))))
    return snapshots


def _canonical(payload: dict) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True)


def _loopback(services: dict):
    """An in-process stand-in for ``_http_json``, keyed by base URL."""

    def client(url: str, *, payload=None, timeout=None):
        for base, service in services.items():
            if url.startswith(base):
                parsed = urlsplit(url[len(base):])
                params = {key: values[-1]
                          for key, values in parse_qs(parsed.query).items()}
                try:
                    result = service.handle(parsed.path, params, payload)
                except ReplicationError:
                    raise
                except ServiceError as exc:
                    # Over real HTTP this would be an HTTPError that
                    # _http_json wraps; mirror that contract.
                    raise ReplicationError(str(exc)) from None
                # Round-trip through JSON so only serializable state crosses.
                return json.loads(json.dumps(to_jsonable(result)))
        raise ReplicationError(f"no loopback service at {url}")

    return client


def _fast_retry():
    return RetryPolicy(max_attempts=2, base_delay=0.0005, max_delay=0.002,
                       budget_seconds=1.0, retryable=(ReplicationError,),
                       rng=random.Random(0))


def _try_sync(coordinator):
    try:
        coordinator.sync_once()
    except (ReplicationError, ServiceError):
        pass  # an injected poll fault; the next sync retries


def _read(service, snapshots, reads):
    """One /theta/batch read; successful answers must match a snapshot."""
    try:
        answer = _canonical(service.handle("/theta/batch", {}, dict(PROBE)))
    except ServiceError as exc:
        assert exc.status in (503,), f"unexpected read failure: {exc}"
        return
    assert answer in snapshots, "read returned a non-prefix answer"
    reads.append(answer)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=_schedule)
def test_chaos_schedule_preserves_prefix_consistency(
        schedule, source, reference_snapshots):
    plan = FaultPlan(
        [FaultRule(**rule) for rule in schedule["rules"]],
        seed=schedule["seed"])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        arts = {}
        for node in ("leader", "f1", "f2"):
            (root / node).mkdir()
            arts[node] = root / node / "blocks.tipidx"
            shutil.copytree(source, arts[node])

        leader = TipService([arts["leader"]])
        f1 = TipService([arts["f1"]])
        f2 = TipService([arts["f2"]])
        loop = _loopback({"http://leader": leader,
                          "http://f1": f1, "http://f2": f2})
        lcoord = ReplicationCoordinator(
            leader, role="leader", log_path=root / "leader.replog",
            follower_urls=("http://f1", "http://f2"),
            retry_policy=_fast_retry(), http_client=loop)
        fcoords = [
            ReplicationCoordinator(
                service, role="follower", leader_url="http://leader",
                retry_policy=_fast_retry(), http_client=loop)
            for service in (f1, f2)
        ]

        reads: list = []
        with faults.armed(plan):
            for i, batch in enumerate(BATCHES, start=1):
                payload = leader.handle("/update", {}, dict(batch))
                # Updates are never torn: each acknowledged batch advances
                # the log by exactly one offset.
                assert payload["replication"]["offset"] == i
                for service, fcoord in zip((f1, f2), fcoords):
                    _try_sync(fcoord)
                    _read(service, reference_snapshots, reads)
                _read(leader, reference_snapshots, reads)
            # Drain the schedule: keep syncing until every count-capped
            # rule has spent its budget (bounded by the rule counts).
            for _ in range(16):
                if plan.exhausted():
                    break
                for fcoord in fcoords:
                    _try_sync(fcoord)
                _read(leader, reference_snapshots, reads)

        # Faults cleared: the topology must converge to lag 0 on its own.
        for service, fcoord in zip((f1, f2), fcoords):
            for _ in range(4):
                _try_sync(fcoord)
                if (fcoord.diverged is None
                        and fcoord.status().get("lag") == 0):
                    break
            status = fcoord.status()
            assert status["lag"] == 0, f"follower never converged: {status}"
            assert fcoord.diverged is None
            answer = _canonical(service.handle("/theta/batch", {}, dict(PROBE)))
            assert answer == reference_snapshots[-1]
        assert lcoord.status()["offset"] == len(BATCHES)
