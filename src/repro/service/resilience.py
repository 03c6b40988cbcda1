"""Retry, circuit-breaking, and deadline primitives for the serving tier.

Three small, composable pieces:

* :class:`RetryPolicy` — exponential backoff with **full jitter** (each
  sleep is uniform in ``[0, base * 2^attempt]``, capped) and a wall-clock
  **retry budget** so a sick dependency cannot absorb unbounded time.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, one per remote target, so repeated failures short-circuit
  immediately (:class:`~repro.errors.CircuitOpenError`, HTTP 503 with a
  ``Retry-After`` equal to the remaining reset timeout) instead of
  burning a retry budget per request.  :class:`CircuitBreakerRegistry`
  owns the per-target instances and feeds the ``breaker-open`` SLO
  objective via :meth:`~CircuitBreakerRegistry.oldest_open_seconds`.
* :class:`Deadline` — a per-request time budget (``deadline_ms`` query /
  body parameter): a request whose budget is spent before it is answered
  fails whole with a 503 (:class:`~repro.errors.DeadlineExceededError`,
  with ``Retry-After``) instead of returning a late answer.

All three are dependency-free and deterministic under test: the retry
RNG is injectable, and both the breaker and deadline take a ``clock``
callable (defaults to :func:`time.monotonic`).
"""

from __future__ import annotations

import random
import threading
import time

from ..errors import CircuitOpenError, DeadlineExceededError, ServiceError

__all__ = [
    "CircuitBreaker",
    "CircuitBreakerRegistry",
    "Deadline",
    "RetryPolicy",
]


class RetryPolicy:
    """Budget-capped exponential backoff with full jitter.

    ``call(fn, ...)`` invokes ``fn`` up to ``max_attempts`` times,
    sleeping ``uniform(0, min(max_delay, base_delay * 2^attempt))``
    between attempts.  Retries stop early when the accumulated elapsed
    time would exceed ``budget_seconds`` — the last exception is
    re-raised.  Only ``retryable`` exceptions are retried; anything else
    propagates immediately.
    """

    def __init__(self, *, max_attempts: int = 3, base_delay: float = 0.05,
                 max_delay: float = 2.0, budget_seconds: float = 10.0,
                 retryable: tuple = (Exception,), rng: random.Random | None = None,
                 sleep=time.sleep, clock=time.monotonic):
        if max_attempts < 1:
            raise ServiceError(f"retry max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0 or budget_seconds <= 0:
            raise ServiceError("retry delays must be >= 0 and budget > 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.budget_seconds = float(budget_seconds)
        self.retryable = retryable
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self.retries_total = 0
        self.budget_exhausted_total = 0

    def backoff(self, attempt: int) -> float:
        """The jittered sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        return self._rng.uniform(0.0, ceiling)

    def call(self, fn, *args, on_retry=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` with retries; re-raise on exhaustion.

        ``on_retry(attempt, exc)`` (if given) is invoked before each
        sleep — the coordinator uses it to count retries into metrics.
        """
        started = self._clock()
        last_exc = None
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except self.retryable as exc:
                last_exc = exc
                if attempt + 1 >= self.max_attempts:
                    break
                delay = self.backoff(attempt)
                if (self._clock() - started) + delay > self.budget_seconds:
                    with self._lock:
                        self.budget_exhausted_total += 1
                    break
                with self._lock:
                    self.retries_total += 1
                if on_retry is not None:
                    on_retry(attempt, exc)
                self._sleep(delay)
        raise last_exc

    def stats(self) -> dict:
        """JSON-able counters and configuration for ``/stats``."""
        with self._lock:
            return {
                "max_attempts": self.max_attempts,
                "base_delay_seconds": self.base_delay,
                "max_delay_seconds": self.max_delay,
                "budget_seconds": self.budget_seconds,
                "retries_total": self.retries_total,
                "budget_exhausted_total": self.budget_exhausted_total,
            }


class CircuitBreaker:
    """Closed → open → half-open breaker around calls to one target.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`call` raises :class:`~repro.errors.CircuitOpenError`
    without touching the target.  After ``reset_seconds`` the next call
    is a half-open probe: success closes the breaker, failure re-opens
    it for another full timeout.
    """

    def __init__(self, name: str, *, failure_threshold: int = 5,
                 reset_seconds: float = 15.0, clock=time.monotonic):
        if failure_threshold < 1:
            raise ServiceError(
                f"breaker failure_threshold must be >= 1, got {failure_threshold}")
        if reset_seconds <= 0:
            raise ServiceError(f"breaker reset_seconds must be > 0, got {reset_seconds}")
        self.name = str(name)
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.opened_total = 0
        self.short_circuited_total = 0

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open``, or ``half-open``."""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if (self._state == "open" and self._opened_at is not None
                and (self._clock() - self._opened_at) >= self.reset_seconds):
            self._state = "half-open"

    def allow(self) -> bool:
        """Whether a call may proceed right now (no exception variant)."""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state != "open"

    def open_for_seconds(self) -> float:
        """How long the breaker has been open (0.0 unless open)."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state != "open" or self._opened_at is None:
                return 0.0
            return max(0.0, self._clock() - self._opened_at)

    def record_success(self) -> None:
        """Note a successful call: closes the breaker, clears the streak."""
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """Note a failed call; may trip the breaker open."""
        with self._lock:
            self._consecutive_failures += 1
            tripped = (self._state == "half-open"
                       or self._consecutive_failures >= self.failure_threshold)
            if tripped and self._state != "open":
                self._state = "open"
                self._opened_at = self._clock()
                self.opened_total += 1
            elif tripped:
                self._opened_at = self._clock()

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` through the breaker; short-circuit when open."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "open":
                self.short_circuited_total += 1
                remaining = self.reset_seconds
                if self._opened_at is not None:
                    remaining = max(
                        0.0, self.reset_seconds - (self._clock() - self._opened_at))
                raise CircuitOpenError(
                    f"circuit breaker {self.name!r} is open "
                    f"({self._consecutive_failures} consecutive failures); "
                    f"retry in {remaining:.2f}s",
                    retry_after=max(0.05, remaining))
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def snapshot(self) -> dict:
        """JSON-able breaker state for ``/stats`` and ``/replication/status``."""
        with self._lock:
            self._maybe_half_open_locked()
            open_seconds = 0.0
            if self._state == "open" and self._opened_at is not None:
                open_seconds = max(0.0, self._clock() - self._opened_at)
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "open_for_seconds": round(open_seconds, 3),
                "opened_total": self.opened_total,
                "short_circuited_total": self.short_circuited_total,
            }


class CircuitBreakerRegistry:
    """Per-target breaker factory + aggregate views for metrics and SLOs."""

    def __init__(self, *, failure_threshold: int = 5, reset_seconds: float = 15.0,
                 clock=time.monotonic):
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def configure(self, *, failure_threshold: int | None = None,
                  reset_seconds: float | None = None) -> None:
        """Adjust defaults for breakers created after this call."""
        if failure_threshold is not None:
            if int(failure_threshold) < 1:
                raise ServiceError(
                    f"breaker failure_threshold must be >= 1, got {failure_threshold}")
            self.failure_threshold = int(failure_threshold)
        if reset_seconds is not None:
            if float(reset_seconds) <= 0:
                raise ServiceError(
                    f"breaker reset_seconds must be > 0, got {reset_seconds}")
            self.reset_seconds = float(reset_seconds)

    def get(self, name: str) -> CircuitBreaker:
        """The breaker for ``name``, created on first use."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name, failure_threshold=self.failure_threshold,
                    reset_seconds=self.reset_seconds, clock=self._clock)
                self._breakers[name] = breaker
            return breaker

    def open_count(self) -> int:
        """How many breakers are currently open."""
        with self._lock:
            breakers = list(self._breakers.values())
        return sum(1 for breaker in breakers if breaker.state == "open")

    def oldest_open_seconds(self) -> float:
        """Longest time any breaker has been open (the SLO staleness feed)."""
        with self._lock:
            breakers = list(self._breakers.values())
        if not breakers:
            return 0.0
        return max(breaker.open_for_seconds() for breaker in breakers)

    def snapshot(self) -> list:
        """Per-breaker snapshots, sorted by name."""
        with self._lock:
            breakers = sorted(self._breakers.values(), key=lambda item: item.name)
        return [breaker.snapshot() for breaker in breakers]


class Deadline:
    """A per-request wall-clock budget.

    Built from the ``deadline_ms`` request parameter.  Call sites check
    :meth:`expired` before answering and raise :meth:`raise_if_expired`'s
    :class:`~repro.errors.DeadlineExceededError` once it is spent.
    """

    def __init__(self, seconds: float, *, clock=None):
        if seconds <= 0:
            raise ServiceError(f"deadline must be > 0 seconds, got {seconds}")
        self.seconds = float(seconds)
        # Resolved per instance (not bound at import) so a test can swap
        # this module's clock without threading one through a request.
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()

    @classmethod
    def from_params(cls, params: dict, *, key: str = "deadline_ms",
                    clock=None) -> "Deadline | None":
        """Parse ``deadline_ms`` from a params dict; None when absent."""
        raw = params.get(key)
        if raw is None:
            return None
        if isinstance(raw, (list, tuple)):
            raw = raw[0] if raw else None
            if raw is None:
                return None
        try:
            millis = float(raw)
        except (TypeError, ValueError):
            raise ServiceError(
                f"query parameter {key!r} must be a positive number, "
                f"got {raw!r}") from None
        if millis <= 0:
            raise ServiceError(
                f"query parameter {key!r} must be a positive number, got {raw!r}")
        return cls(millis / 1000.0, clock=clock)

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left on the budget (never negative)."""
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.elapsed() >= self.seconds

    def raise_if_expired(self, what: str = "request") -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` once spent."""
        if self.expired():
            raise DeadlineExceededError(
                f"{what} exceeded its {self.seconds * 1000.0:.0f}ms deadline",
                retry_after=max(0.05, self.seconds))
