"""Deterministic fault injection: rules, plans, parsing, process arming."""

from __future__ import annotations

import json

import pytest

from repro.errors import FaultInjectedError, ServiceError
from repro.service import faults
from repro.service.faults import FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with fault injection disarmed."""
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultRule:
    def test_rejects_unknown_action(self):
        with pytest.raises(ServiceError):
            FaultRule(site="log.append", action="explode")

    def test_rejects_bad_probability(self):
        with pytest.raises(ServiceError):
            FaultRule(site="log.append", action="drop", probability=0.0)
        with pytest.raises(ServiceError):
            FaultRule(site="log.append", action="drop", probability=1.5)

    def test_rejects_bad_count_after_delay(self):
        with pytest.raises(ServiceError):
            FaultRule(site="s", action="drop", count=0)
        with pytest.raises(ServiceError):
            FaultRule(site="s", action="drop", after=-1)
        with pytest.raises(ServiceError):
            FaultRule(site="s", action="delay", delay_seconds=-0.1)

    def test_prefix_glob_matching(self):
        rule = FaultRule(site="replication.*", action="drop")
        assert rule.matches("replication.push")
        assert rule.matches("replication.poll")
        assert not rule.matches("artifact.save")
        exact = FaultRule(site="artifact.save", action="drop")
        assert exact.matches("artifact.save")
        assert not exact.matches("artifact.save.extra")


class TestFaultPlan:
    def test_actions_drop_error_corrupt_delay(self):
        sleeps = []
        plan = FaultPlan(
            [FaultRule(site="a", action="drop"),
             FaultRule(site="b", action="error"),
             FaultRule(site="c", action="corrupt"),
             FaultRule(site="d", action="delay", delay_seconds=0.02)],
            seed=1, sleep=sleeps.append)
        assert plan.fire("a") == "drop"
        with pytest.raises(FaultInjectedError) as excinfo:
            plan.fire("b")
        assert excinfo.value.status == 503
        assert excinfo.value.site == "b"
        assert plan.fire("c") == "corrupt"
        assert plan.fire("d") == "delay"
        assert sleeps == [0.02]
        assert plan.fire("unmatched") is None
        assert plan.stats()["injected_total"] == 4

    def test_count_caps_firings_then_exhausted(self):
        plan = FaultPlan([FaultRule(site="s", action="drop", count=2)], seed=0)
        assert plan.fire("s") == "drop"
        assert plan.fire("s") == "drop"
        assert plan.fire("s") is None
        assert plan.exhausted()

    def test_after_skips_warmup_calls(self):
        plan = FaultPlan([FaultRule(site="s", action="drop", after=2)], seed=0)
        assert plan.fire("s") is None
        assert plan.fire("s") is None
        assert plan.fire("s") == "drop"

    def test_uncapped_rules_never_exhaust(self):
        plan = FaultPlan([FaultRule(site="s", action="drop")], seed=0)
        assert not plan.exhausted()

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [FaultRule(site="s", action="drop", count=1),
             FaultRule(site="s", action="corrupt")], seed=0)
        assert plan.fire("s") == "drop"
        assert plan.fire("s") == "corrupt"  # first rule spent its budget

    def test_same_seed_same_schedule(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(site="s", action="drop", probability=0.4)], seed=seed)
            return [plan.fire("s") for _ in range(40)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # overwhelmingly likely for 40 p=0.4 rolls

    def test_probability_zero_point_impossible_sequence_is_deterministic(self):
        # Two independent plans with the same seed interleave identically
        # even when fire() calls alternate between matching sites.
        rules = [FaultRule(site="a", action="drop", probability=0.5),
                 FaultRule(site="b", action="corrupt", probability=0.5)]
        first = FaultPlan(list(rules), seed=3)
        second = FaultPlan(
            [FaultRule(**{k: getattr(r, k) for k in
                          ("site", "action", "probability")}) for r in rules],
            seed=3)
        sequence = ["a", "b", "a", "a", "b", "a", "b", "b"] * 5
        assert ([first.fire(s) for s in sequence]
                == [second.fire(s) for s in sequence])


class TestParse:
    def test_string_syntax(self):
        plan = FaultPlan.parse(
            "replication.push:drop:p=0.5:count=3;artifact.save:delay:ms=20",
            seed=9)
        assert plan.seed == 9
        assert len(plan.rules) == 2
        first, second = plan.rules
        assert (first.site, first.action, first.probability, first.count) == (
            "replication.push", "drop", 0.5, 3)
        assert (second.site, second.action) == ("artifact.save", "delay")
        assert second.delay_seconds == pytest.approx(0.02)

    def test_string_syntax_rejects_garbage(self):
        with pytest.raises(ServiceError):
            FaultPlan.parse("just-a-site")
        with pytest.raises(ServiceError):
            FaultPlan.parse("s:drop:budget=3")
        with pytest.raises(ServiceError):
            FaultPlan.parse("s:drop:p=high")
        with pytest.raises(ServiceError):
            FaultPlan.parse("   ")

    def test_inline_json(self):
        plan = FaultPlan.parse(json.dumps({
            "seed": 4,
            "rules": [{"site": "log.append", "action": "corrupt", "count": 1},
                      {"site": "replication.*", "action": "delay",
                       "delay_ms": 5}],
        }))
        assert plan.seed == 4
        assert plan.rules[1].delay_seconds == pytest.approx(0.005)

    def test_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 2, "rules": [{"site": "s", "action": "drop"}]}),
            encoding="utf-8")
        plan = FaultPlan.parse(str(path))
        assert plan.seed == 2 and plan.rules[0].site == "s"
        # An explicit seed argument overrides the file's.
        assert FaultPlan.parse(str(path), seed=77).seed == 77

    def test_json_errors(self, tmp_path):
        with pytest.raises(ServiceError):
            FaultPlan.parse("{not json")
        with pytest.raises(ServiceError):
            FaultPlan.parse('{"seed": 1}')
        with pytest.raises(ServiceError):
            FaultPlan.parse(str(tmp_path / "missing.json"))


class TestArming:
    def test_fire_is_noop_when_disarmed(self):
        assert faults.active() is None
        assert faults.fire("log.append") is None
        assert faults.metrics() == {
            "armed": False, "injected_total": 0, "by_site": {}}

    def test_armed_context_installs_and_disarms(self):
        plan = FaultPlan([FaultRule(site="s", action="drop")], seed=5)
        with faults.armed(plan):
            assert faults.active() is plan
            assert faults.fire("s") == "drop"
            payload = faults.metrics()
            assert payload["armed"] and payload["seed"] == 5
            assert payload["by_site"] == {"s": 1}
        assert faults.active() is None

    def test_arm_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_PLAN, "s:drop:count=1")
        monkeypatch.setenv(faults.ENV_SEED, "42")
        plan = faults.arm_from_env()
        assert plan is not None and plan.seed == 42
        assert faults.active() is plan
        faults.uninstall()
        monkeypatch.delenv(faults.ENV_PLAN)
        assert faults.arm_from_env() is None
