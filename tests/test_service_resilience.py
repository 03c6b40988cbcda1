"""Retry policy, circuit breaker, and deadline primitives (fake clocks)."""

from __future__ import annotations

import json
import random
import types

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceError,
)
from repro.service import resilience
from repro.service.artifacts import save_artifact
from repro.service.resilience import (
    CircuitBreaker,
    CircuitBreakerRegistry,
    Deadline,
    RetryPolicy,
)
from repro.service.server import TipService


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Flaky:
    """Callable failing the first ``failures`` invocations."""

    def __init__(self, failures, exc=ConnectionError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom {self.calls}")
        return "ok"


class TestRetryPolicy:
    def _policy(self, **kwargs):
        clock = FakeClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        defaults = dict(max_attempts=3, base_delay=0.1, max_delay=1.0,
                        budget_seconds=10.0, retryable=(ConnectionError,),
                        rng=random.Random(0), sleep=sleep, clock=clock)
        defaults.update(kwargs)
        return RetryPolicy(**defaults), clock, sleeps

    def test_succeeds_after_retries(self):
        policy, _, sleeps = self._policy()
        flaky = Flaky(2)
        assert policy.call(flaky) == "ok"
        assert flaky.calls == 3
        assert len(sleeps) == 2
        assert policy.retries_total == 2

    def test_exhaustion_reraises_last_exception(self):
        policy, _, _ = self._policy()
        flaky = Flaky(99)
        with pytest.raises(ConnectionError, match="boom 3"):
            policy.call(flaky)
        assert flaky.calls == 3

    def test_non_retryable_propagates_immediately(self):
        policy, _, _ = self._policy()
        flaky = Flaky(99, exc=ValueError)
        with pytest.raises(ValueError):
            policy.call(flaky)
        assert flaky.calls == 1
        assert policy.retries_total == 0

    def test_backoff_is_capped_exponential_with_full_jitter(self):
        policy, _, _ = self._policy(base_delay=0.5, max_delay=1.0)
        for attempt, ceiling in ((0, 0.5), (1, 1.0), (2, 1.0), (5, 1.0)):
            for _ in range(20):
                assert 0.0 <= policy.backoff(attempt) <= ceiling

    def test_budget_stops_retries_early(self):
        # Budget smaller than the first backoff: one attempt, no sleeps.
        policy, _, sleeps = self._policy(
            base_delay=5.0, max_delay=5.0, budget_seconds=0.001)
        with pytest.raises(ConnectionError, match="boom 1"):
            policy.call(Flaky(99))
        assert sleeps == []
        assert policy.budget_exhausted_total == 1
        assert policy.stats()["budget_exhausted_total"] == 1

    def test_on_retry_hook_sees_attempt_and_exception(self):
        policy, _, _ = self._policy()
        seen = []
        policy.call(Flaky(1), on_retry=lambda attempt, exc: seen.append(
            (attempt, str(exc))))
        assert seen == [(0, "boom 1")]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(budget_seconds=0)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        defaults = dict(failure_threshold=3, reset_seconds=10.0, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker("test", **defaults), clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_short_circuits_with_retry_after(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "never")
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == pytest.approx(6.0)
        assert breaker.short_circuited_total == 1
        assert breaker.open_for_seconds() == pytest.approx(4.0)

    def test_half_open_probe_success_closes(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens_full_timeout(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        with pytest.raises(ConnectionError):
            breaker.call(Flaky(99))
        assert breaker.state == "open"
        assert breaker.opened_total == 2
        # The reset window restarted at the probe failure.
        clock.advance(9.0)
        assert breaker.state == "open"
        clock.advance(1.0)
        assert breaker.state == "half-open"

    def test_call_counts_failures_and_successes(self):
        breaker, _ = self._breaker(failure_threshold=2)
        flaky = Flaky(2)
        for _ in range(2):
            with pytest.raises(ConnectionError):
                breaker.call(flaky)
        assert breaker.state == "open"
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["consecutive_failures"] == 2

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServiceError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ServiceError):
            CircuitBreaker("x", reset_seconds=0)


class TestCircuitBreakerRegistry:
    def test_get_creates_once_and_configure_applies_forward(self):
        clock = FakeClock()
        registry = CircuitBreakerRegistry(
            failure_threshold=2, reset_seconds=5.0, clock=clock)
        breaker = registry.get("push:a")
        assert registry.get("push:a") is breaker
        assert breaker.failure_threshold == 2
        registry.configure(failure_threshold=7, reset_seconds=1.5)
        assert registry.get("push:b").failure_threshold == 7
        with pytest.raises(ServiceError):
            registry.configure(failure_threshold=0)
        with pytest.raises(ServiceError):
            registry.configure(reset_seconds=0)

    def test_open_count_and_oldest_open_seconds(self):
        clock = FakeClock()
        registry = CircuitBreakerRegistry(
            failure_threshold=1, reset_seconds=100.0, clock=clock)
        assert registry.open_count() == 0
        assert registry.oldest_open_seconds() == 0.0
        registry.get("a").record_failure()
        clock.advance(3.0)
        registry.get("b").record_failure()
        clock.advance(2.0)
        assert registry.open_count() == 2
        assert registry.oldest_open_seconds() == pytest.approx(5.0)
        names = [entry["name"] for entry in registry.snapshot()]
        assert names == ["a", "b"]


class TestDeadline:
    def test_lifecycle_with_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.3)
        assert deadline.remaining() == pytest.approx(0.2)
        deadline.raise_if_expired()  # still inside the budget
        clock.advance(0.3)
        assert deadline.expired() and deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.raise_if_expired("/theta")
        assert excinfo.value.status == 503
        assert "/theta" in str(excinfo.value)

    def test_from_params(self):
        assert Deadline.from_params({}) is None
        assert Deadline.from_params({"deadline_ms": []}) is None
        deadline = Deadline.from_params({"deadline_ms": ["250"]})
        assert deadline is not None and deadline.seconds == pytest.approx(0.25)
        assert Deadline.from_params(
            {"deadline_ms": 100}).seconds == pytest.approx(0.1)

    def test_from_params_rejects_bad_values(self):
        for raw in ("soon", "0", "-5", ""):
            with pytest.raises(ServiceError) as excinfo:
                Deadline.from_params({"deadline_ms": raw})
            assert excinfo.value.status == 400

    def test_rejects_non_positive_seconds(self):
        with pytest.raises(ServiceError):
            Deadline(0.0)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("deadline") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


class TestServedDeadlines:
    """The ``deadline_ms`` surface of ``/theta/batch`` on a TipService."""

    PROBE = {"vertices": ",".join(map(str, range(40)))}

    def test_deadline_param_with_time_left_is_exact(self, artifact):
        service = TipService([artifact])
        want = service.handle("/theta/batch", dict(self.PROBE))
        got = service.handle("/theta/batch",
                             dict(self.PROBE, deadline_ms="30000"))
        assert json.dumps(got, sort_keys=True, default=str) == \
            json.dumps(want, sort_keys=True, default=str)

    def test_spent_budget_is_a_whole_request_503(self, artifact, monkeypatch):
        service = TipService([artifact])
        ticks = iter(range(0, 1000, 10))  # every clock read advances 10 s
        with monkeypatch.context() as patch:
            patch.setattr(resilience, "time", types.SimpleNamespace(
                monotonic=lambda: float(next(ticks))))
            with pytest.raises(DeadlineExceededError) as excinfo:
                service.handle("/theta/batch",
                               dict(self.PROBE, deadline_ms="500"))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after > 0
        stats = service.handle("/stats")["resilience"]
        assert stats["deadline_exceeded_total"] == 1

    def test_bad_deadline_is_a_400(self, artifact):
        service = TipService([artifact])
        for bad in ("soon", "0", "-10"):
            with pytest.raises(ServiceError) as excinfo:
                service.handle(
                    "/theta/batch",
                    {"vertices": "0,1", "deadline_ms": bad})
            assert excinfo.value.status == 400
