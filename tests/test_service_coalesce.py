"""Coalescer and admission-control tests (transport-free).

The contract under test is the tentpole guarantee of the async front
end: any interleaving of concurrent point-θ requests through
:class:`ThetaCoalescer` resolves with *exactly* what sequential
``TipService.handle("/theta", ...)`` calls would have produced — same
payloads, same error text, same status — no matter how the event loop
slices the batches.  Plus: the single-writer admission controller never
tears a read and rejects overflow with 503 immediately.
"""

from __future__ import annotations

import asyncio
import shutil
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import DeadlineExceededError, ServiceError, ServiceOverloadedError
from repro.service.artifacts import save_artifact
from repro.service.coalesce import ThetaCoalescer, UpdateAdmissionController
from repro.service.resilience import Deadline
from repro.service.server import TipService

N_U = 40


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(N_U, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("coalesce") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path, graph, result


def _sequential_answers(path, requests):
    """Ground truth: one handle() call per request on a fresh service."""
    service = TipService([path])
    answers = []
    for vertex, _ in requests:
        try:
            answers.append(service.handle("/theta", {"vertex": str(vertex)}))
        except ServiceError as error:
            answers.append(("error", str(error), error.status))
    return answers


async def _coalesced_answers(coalescer, requests):
    async def one(vertex, jitter):
        # Yield to the loop a request-specific number of times before
        # submitting, so hypothesis explores different batch boundaries.
        for _ in range(jitter):
            await asyncio.sleep(0)
        try:
            return await coalescer.submit(None, vertex)
        except ServiceError as error:
            return ("error", str(error), error.status)

    return await asyncio.gather(
        *(one(vertex, jitter) for vertex, jitter in requests))


class TestCoalescerEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(requests=st.lists(
        st.tuples(st.integers(-5, N_U + 5), st.integers(0, 3)),
        min_size=1, max_size=40))
    def test_any_interleaving_matches_sequential_handle(self, artifact, requests):
        path, _, _ = artifact
        expected = _sequential_answers(path, requests)
        coalescer = ThetaCoalescer(TipService([path]), max_batch=8)
        got = asyncio.run(_coalesced_answers(coalescer, requests))
        assert got == expected
        metrics = coalescer.metrics()
        assert metrics["requests_coalesced"] == len(requests)
        assert metrics["queue_depth"] == 0

    def test_single_tick_burst_is_one_batch(self, artifact):
        path, _, result = artifact

        async def run():
            coalescer = ThetaCoalescer(TipService([path]))
            futures = [coalescer.submit(None, v) for v in range(10)]
            payloads = await asyncio.gather(*futures)
            return coalescer.metrics(), payloads

        metrics, payloads = asyncio.run(run())
        assert metrics["batches_flushed"] == 1
        assert metrics["largest_batch"] == 10
        assert metrics["mean_batch_size"] == 10.0
        assert payloads == [
            {"vertex": v, "theta": int(result.tip_numbers[v])} for v in range(10)
        ]

    def test_max_batch_triggers_early_flush(self, artifact):
        path, _, _ = artifact

        async def run():
            coalescer = ThetaCoalescer(TipService([path]), max_batch=4)
            futures = [coalescer.submit(None, v % N_U) for v in range(10)]
            await asyncio.gather(*futures)
            return coalescer.metrics()

        metrics = asyncio.run(run())
        # 10 submissions in one tick with max_batch=4: two size-triggered
        # flushes (at 4 and 8) plus the call_soon flush for the tail.
        assert metrics["size_triggered_flushes"] == 2
        assert metrics["batches_flushed"] == 3
        assert metrics["largest_batch"] == 4
        assert metrics["requests_coalesced"] == 10

    def test_max_delay_accumulates_across_ticks(self, artifact):
        path, _, result = artifact

        async def run():
            coalescer = ThetaCoalescer(TipService([path]), max_delay=0.02)
            first = coalescer.submit(None, 1)
            await asyncio.sleep(0)  # a later tick: would flush if delay were 0
            assert not first.done()
            second = coalescer.submit(None, 2)
            payloads = await asyncio.gather(first, second)
            return coalescer.metrics(), payloads

        metrics, payloads = asyncio.run(run())
        assert metrics["batches_flushed"] == 1
        assert metrics["largest_batch"] == 2
        assert payloads[0] == {"vertex": 1, "theta": int(result.tip_numbers[1])}

    def test_expired_deadline_fails_in_band(self, artifact):
        path, _, result = artifact
        service = TipService([path])
        clock = [0.0]
        spent = Deadline(0.01, clock=lambda: clock[0])
        clock[0] = 1.0  # the budget ran out before the flush

        async def run():
            coalescer = ThetaCoalescer(service, max_delay=0.02)
            late = coalescer.submit(None, 1, deadline=spent)
            mate = coalescer.submit(None, 2)
            return await asyncio.gather(late, mate, return_exceptions=True)

        late, mate = asyncio.run(run())
        assert isinstance(late, DeadlineExceededError)
        assert late.status == 503
        assert mate == {"vertex": 2, "theta": int(result.tip_numbers[2])}
        assert service.deadline_exceeded_total == 1

    def test_unknown_artifact_rejects_whole_batch_in_band(self, artifact):
        path, _, _ = artifact

        async def run():
            coalescer = ThetaCoalescer(TipService([path]))
            futures = [coalescer.submit("ghost", v) for v in (0, 1)]
            return await asyncio.gather(*futures, return_exceptions=True)

        results = asyncio.run(run())
        assert all(isinstance(r, ServiceError) for r in results)
        assert all(r.status == 404 and "unknown artifact" in str(r) for r in results)

    def test_rejects_nonpositive_max_batch(self, artifact):
        path, _, _ = artifact
        with pytest.raises(ValueError, match="max_batch"):
            ThetaCoalescer(TipService([path]), max_batch=0)


class _GatedService:
    """Stub service whose /update blocks until released (admission tests)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self.concurrent = 0
        self.peak_concurrent = 0
        self._lock = threading.Lock()

    def handle(self, route, params=None, body=None):
        with self._lock:
            self.calls += 1
            self.concurrent += 1
            self.peak_concurrent = max(self.peak_concurrent, self.concurrent)
        self.started.set()
        self.release.wait(timeout=10)
        with self._lock:
            self.concurrent -= 1
        return {"ok": True, "route": route, "body": body}


class TestAdmissionController:
    def test_overflow_rejected_immediately_with_503(self):
        async def run():
            service = _GatedService()
            controller = UpdateAdmissionController(
                service, max_pending=1, retry_after_seconds=2.5)
            running = asyncio.create_task(
                controller.submit({}, {"insert": [[0, 0]]}))
            await asyncio.get_running_loop().run_in_executor(
                None, service.started.wait, 10)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                await controller.submit({}, {"insert": [[1, 1]]})
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 2.5
            service.release.set()
            first = await running
            assert first["ok"] is True
            metrics = controller.metrics()
            controller.close()
            return metrics

        metrics = asyncio.run(run())
        assert metrics["admission_rejections"] == 1
        assert metrics["admitted"] == 1
        assert metrics["completed"] == 1
        assert metrics["pending"] == 0

    def test_admitted_updates_run_strictly_one_at_a_time(self):
        async def run():
            service = _GatedService()
            service.release.set()  # no blocking; measure overlap only
            controller = UpdateAdmissionController(service, max_pending=4)
            await asyncio.gather(
                *(controller.submit({}, {"insert": [[i, i]]}) for i in range(4)))
            metrics = controller.metrics()
            controller.close()
            return service.peak_concurrent, metrics

        peak, metrics = asyncio.run(run())
        assert peak == 1  # single writer thread: never two updates at once
        assert metrics["admitted"] == 4
        assert metrics["admission_rejections"] == 0

    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ValueError, match="max_pending"):
            UpdateAdmissionController(_GatedService(), max_pending=0)


class TestMixedReadUpdateStress:
    """Coalesced reads racing the writer thread never observe a torn state.

    Every θ read during alternating insert/delete rounds must equal the
    value from one of the two consistent snapshots (base graph or graph
    with the delta applied); staleness counters are strictly monotone and
    the manifest fingerprint always matches one complete state.
    """

    def test_reads_see_only_complete_snapshots(self, artifact, tmp_path):
        path, graph, result = artifact
        working = tmp_path / "working.tipidx"
        shutil.copytree(path, working)

        # A delta of fresh edges (absent from the base graph).
        delta = []
        for u in range(N_U):
            for w in range(25):
                if not graph.has_edge(u, w):
                    delta.append([u, w])
                if len(delta) == 4:
                    break
            if len(delta) == 4:
                break
        assert len(delta) == 4

        # Ground-truth snapshots: base thetas from the fixture result and
        # post-insert thetas computed on an offline throwaway copy.
        base_thetas = {v: int(result.tip_numbers[v]) for v in range(N_U)}
        scratch = tmp_path / "scratch.tipidx"
        shutil.copytree(path, scratch)
        offline = TipService([scratch])
        offline.handle("/update", {}, {"insert": delta})
        updated_thetas = {
            v: offline.handle("/theta", {"vertex": str(v)})["theta"]
            for v in range(N_U)
        }
        assert updated_thetas != base_thetas  # the delta must be visible

        service = TipService([working])
        observations = []
        stats_seen = []

        async def run():
            coalescer = ThetaCoalescer(service, max_batch=16)
            controller = UpdateAdmissionController(service, max_pending=2)
            stop = asyncio.Event()

            async def reader(seed):
                rounds = 0
                while not stop.is_set():
                    vertex = (seed * 7 + rounds * 3) % N_U
                    payload = await coalescer.submit(None, vertex)
                    observations.append((vertex, payload["theta"]))
                    rounds += 1
                    await asyncio.sleep(0)

            async def writer():
                for _ in range(3):
                    applied = await controller.submit({}, {"insert": delta})
                    stats_seen.append(service.handle(
                        "/stats")["artifacts"]["planted-blocks.U"])
                    assert "mode" in applied
                    reverted = await controller.submit({}, {"delete": delta})
                    stats_seen.append(service.handle(
                        "/stats")["artifacts"]["planted-blocks.U"])
                    assert "mode" in reverted
                stop.set()

            readers = [asyncio.create_task(reader(seed)) for seed in range(4)]
            await writer()
            await asyncio.gather(*readers)
            controller.close()

        asyncio.run(run())

        assert len(observations) > 20
        torn = [
            (vertex, theta) for vertex, theta in observations
            if theta not in (base_thetas[vertex], updated_thetas[vertex])
        ]
        assert torn == [], f"reads outside both snapshots: {torn[:5]}"

        # Staleness bookkeeping is strictly monotone across the rounds.
        applied_counts = [s["streaming"]["updates_applied"] for s in stats_seen]
        assert applied_counts == sorted(applied_counts)
        assert applied_counts[-1] == 6
        # After the final delete round the artifact is back to base state.
        final = {
            v: service.handle("/theta", {"vertex": str(v)})["theta"]
            for v in range(N_U)
        }
        assert final == base_thetas
