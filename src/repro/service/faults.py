"""Deterministic, seeded fault injection for the serving tier.

Production distributed systems are tested by breaking them on purpose;
this module is the repo's way of doing that *deterministically*.  A
:class:`FaultPlan` is a seeded list of rules, each binding a named fault
**site** (a call-out the serving code makes at its failure-prone seams)
to an **action**:

===========  ===========================================================
``drop``     the operation is silently lost (a dropped message / write)
``delay``    the operation is stalled for ``delay_ms`` milliseconds
``error``    :class:`~repro.errors.FaultInjectedError` is raised (503)
``corrupt``  the caller receives a tamper token and mangles its payload
===========  ===========================================================

Sites currently wired through the serving tier (see
``docs/RESILIENCE.md`` for the operator view):

* ``replication.push``  — leader → follower record fan-out
* ``replication.poll``  — follower → leader log / snapshot fetch
* ``log.append``        — replication-log append (``corrupt`` simulates a
  crash mid-append: a torn half-line reaches disk, then the writer dies)
* ``artifact.save``     — artifact persistence on the ``/update`` path
* ``transport.coalesce`` — the async front end's batched flush

Every rule owns its own :class:`random.Random` seeded from the plan seed
and the rule index, so a given plan fires the *same* faults in the same
order on every run — a failing chaos schedule is a reproducible test
case, not a flake.  The plan is armed process-wide (:func:`install`, the
:func:`armed` context manager, the ``REPRO_FAULT_PLAN`` environment
variable, or ``repro serve --fault-plan``); when nothing is armed,
:func:`fire` is a single ``None`` check and the serving hot path pays
effectively nothing.

Plan syntax (CLI / environment): rules separated by ``;`` or ``,``, each
``site:action[:key=value]...`` — for example::

    replication.push:drop:p=0.5:count=3;artifact.save:delay:ms=20

or a path to a JSON file ``{"seed": 7, "rules": [{"site": ..., "action":
..., "probability": ..., "count": ..., "after": ..., "delay_ms": ...}]}``.
A trailing ``*`` in a site matches by prefix (``replication.*``).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import FaultInjectedError, ServiceError

__all__ = [
    "ACTIONS",
    "ENV_PLAN",
    "ENV_SEED",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "active",
    "arm_from_env",
    "armed",
    "fire",
    "install",
    "metrics",
    "uninstall",
]

#: The documented fault sites (informative: plans may name future sites).
FAULT_SITES = (
    "replication.push",
    "replication.poll",
    "log.append",
    "artifact.save",
    "transport.coalesce",
)

#: The four supported actions.
ACTIONS = ("drop", "delay", "error", "corrupt")

#: Environment variables that arm a plan for any process (tests, CI, dev).
ENV_PLAN = "REPRO_FAULT_PLAN"
ENV_SEED = "REPRO_FAULT_SEED"


@dataclass
class FaultRule:
    """One site → action binding with probability / count / phase controls.

    ``probability`` is the chance each matching :func:`fire` call
    triggers; ``after`` skips the first N matching calls; ``count`` caps
    total firings (``None`` = unlimited) — count-capped rules are how
    chaos schedules guarantee the faults eventually *clear* so recovery
    can be asserted.
    """

    site: str
    action: str
    probability: float = 1.0
    count: int | None = None
    after: int = 0
    delay_seconds: float = 0.01
    fired: int = field(default=0, init=False)
    seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ServiceError(
                f"unknown fault action {self.action!r}; one of {', '.join(ACTIONS)}")
        if not 0.0 < self.probability <= 1.0:
            raise ServiceError(
                f"fault probability must be in (0, 1], got {self.probability}")
        if self.count is not None and int(self.count) < 1:
            raise ServiceError(f"fault count must be >= 1, got {self.count}")
        if self.after < 0:
            raise ServiceError(f"fault 'after' must be >= 0, got {self.after}")
        if self.delay_seconds < 0:
            raise ServiceError(f"fault delay must be >= 0, got {self.delay_seconds}")

    def matches(self, site: str) -> bool:
        """Whether this rule covers ``site`` (exact, or ``prefix*`` glob)."""
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    def exhausted(self) -> bool:
        """Whether a count-capped rule has fired its full budget."""
        return self.count is not None and self.fired >= self.count

    def summary(self) -> dict:
        """JSON-able rule state for ``/stats`` and test assertions."""
        return {
            "site": self.site,
            "action": self.action,
            "probability": self.probability,
            "count": self.count,
            "after": self.after,
            "delay_ms": round(self.delay_seconds * 1000.0, 3),
            "fired": self.fired,
            "seen": self.seen,
        }


class FaultPlan:
    """A seeded, thread-safe schedule of fault rules.

    Rules are evaluated in order on every :meth:`fire`; the first rule
    that matches the site *and* triggers (probability roll, within its
    ``after``/``count`` budget) wins.  Determinism contract: given the
    same plan and the same sequence of ``fire(site)`` calls, the same
    faults fire in the same order — each rule's RNG is seeded from
    ``(plan seed, rule index)`` and advances only on matching calls.
    """

    def __init__(self, rules, *, seed: int = 0, sleep=time.sleep):
        self.rules = [rule if isinstance(rule, FaultRule) else FaultRule(**rule)
                      for rule in rules]
        self.seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rngs = [random.Random(f"{self.seed}:{index}:{rule.site}:{rule.action}")
                      for index, rule in enumerate(self.rules)]
        self.injected_total = 0
        self.injected_by_site: dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, *, seed: int | None = None) -> "FaultPlan":
        """Build a plan from the CLI/env string syntax or a JSON file path."""
        spec = str(spec).strip()
        if not spec:
            raise ServiceError("empty fault-plan specification")
        if spec.startswith("{") or spec.endswith(".json"):
            if spec.endswith(".json"):
                try:
                    spec = Path(spec).read_text(encoding="utf-8")
                except OSError as exc:
                    raise ServiceError(f"cannot read fault plan: {exc}") from None
            try:
                payload = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ServiceError(f"fault plan is not valid JSON: {exc}") from None
            if not isinstance(payload, dict) or "rules" not in payload:
                raise ServiceError('a JSON fault plan needs a "rules" array')
            resolved_seed = seed if seed is not None else int(payload.get("seed", 0))
            rules = []
            for entry in payload["rules"]:
                if not isinstance(entry, dict):
                    raise ServiceError("each fault rule must be a JSON object")
                kwargs = dict(entry)
                if "delay_ms" in kwargs:
                    kwargs["delay_seconds"] = float(kwargs.pop("delay_ms")) / 1000.0
                rules.append(FaultRule(**kwargs))
            return cls(rules, seed=resolved_seed)
        rules = []
        for chunk in spec.replace(";", ",").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 2:
                raise ServiceError(
                    f"fault rule {chunk!r} must look like site:action[:key=value...]")
            site, action, *options = parts
            kwargs: dict = {"site": site.strip(), "action": action.strip()}
            for option in options:
                key, separator, value = option.partition("=")
                if not separator:
                    raise ServiceError(f"fault option {option!r} must be key=value")
                key = key.strip().lower()
                try:
                    if key in ("p", "probability"):
                        kwargs["probability"] = float(value)
                    elif key == "count":
                        kwargs["count"] = int(value)
                    elif key == "after":
                        kwargs["after"] = int(value)
                    elif key in ("ms", "delay_ms"):
                        kwargs["delay_seconds"] = float(value) / 1000.0
                    else:
                        raise ServiceError(f"unknown fault option {key!r}")
                except ValueError:
                    raise ServiceError(
                        f"fault option {option!r} has a non-numeric value") from None
            rules.append(FaultRule(**kwargs))
        if not rules:
            raise ServiceError("fault plan contains no rules")
        return cls(rules, seed=seed if seed is not None else 0)

    # ------------------------------------------------------------------
    def fire(self, site: str) -> str | None:
        """Evaluate the plan at one site; the first triggering rule acts.

        Returns ``None`` (nothing fired), ``"drop"`` / ``"corrupt"``
        (tokens the call site interprets), or ``"delay"`` after sleeping;
        raises :class:`~repro.errors.FaultInjectedError` for ``error``.
        """
        delay = None
        with self._lock:
            chosen = None
            for rule, rng in zip(self.rules, self._rngs):
                if not rule.matches(site) or rule.exhausted():
                    continue
                rule.seen += 1
                if rule.seen <= rule.after:
                    continue
                if rule.probability < 1.0 and rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                self.injected_total += 1
                self.injected_by_site[site] = self.injected_by_site.get(site, 0) + 1
                chosen = rule
                break
            if chosen is None:
                return None
            if chosen.action == "delay":
                delay = chosen.delay_seconds
        if delay is not None:
            self._sleep(delay)
            return "delay"
        if chosen.action == "error":
            raise FaultInjectedError(
                f"injected fault at {site} (seed {self.seed})", site=site)
        return chosen.action

    def exhausted(self) -> bool:
        """Whether every rule is count-capped and fully spent (faults cleared)."""
        with self._lock:
            return all(rule.count is not None and rule.exhausted()
                       for rule in self.rules)

    def stats(self) -> dict:
        """JSON-able plan state (rules, per-site counts) for ``/stats``."""
        with self._lock:
            return {
                "seed": self.seed,
                "injected_total": self.injected_total,
                "by_site": dict(self.injected_by_site),
                "rules": [rule.summary() for rule in self.rules],
            }


# ----------------------------------------------------------------------
# Process-wide arming
# ----------------------------------------------------------------------
_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()


def install(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (replacing any armed plan); returns it."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = plan
    return plan


def uninstall() -> None:
    """Disarm fault injection; every :func:`fire` becomes a no-op again."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


def active() -> FaultPlan | None:
    """The armed plan, or ``None`` when fault injection is disarmed."""
    return _ACTIVE


@contextmanager
def armed(plan: FaultPlan):
    """Context manager: arm ``plan`` for the block, disarm on exit."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def fire(site: str) -> str | None:
    """Evaluate the armed plan (if any) at ``site``; no-op when disarmed."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site)


def arm_from_env() -> FaultPlan | None:
    """Arm a plan from ``REPRO_FAULT_PLAN`` (+ optional seed); None if unset."""
    spec = os.environ.get(ENV_PLAN, "").strip()
    if not spec:
        return None
    seed_raw = os.environ.get(ENV_SEED, "").strip()
    seed = int(seed_raw) if seed_raw else None
    return install(FaultPlan.parse(spec, seed=seed))


def metrics() -> dict:
    """Compact armed/injected summary for the metric gauges and ``/stats``."""
    plan = _ACTIVE
    if plan is None:
        return {"armed": False, "injected_total": 0, "by_site": {}}
    stats = plan.stats()
    return {
        "armed": True,
        "seed": stats["seed"],
        "injected_total": stats["injected_total"],
        "by_site": stats["by_site"],
    }
