"""Bench-history regression sentinel: from snapshots to a gated trajectory.

Every benchmark in ``benchmarks/`` writes a ``BENCH_<name>.json`` snapshot,
and each snapshot gates its own headline numbers against fixed ceilings —
but nothing notices a *slow drift*: a speedup that sags 10% per PR passes
every absolute gate until the day it doesn't.  This module turns the
snapshots into an append-only JSONL **history** and checks each new run
against a rolling baseline of its own past:

* :func:`record_from_bench` distils one ``BENCH_*.json`` payload into a
  compact history record — the headline metrics named in
  :data:`METRIC_SPECS`, keyed by the payload's ``benchmark`` and ``mode``
  fields (quick and full runs never share a baseline);
* :func:`append_history` appends records to ``BENCH_history.jsonl``
  (append-only: re-running ingest adds rows, never rewrites them);
* :func:`check_regressions` compares fresh records against the rolling
  **median** of the last :data:`BASELINE_WINDOW` historical runs of the
  same (benchmark, mode, metric) — median, not mean, so one outlier run
  cannot drag the baseline — and flags values outside the spec's
  tolerance band in the metric's bad direction.

Tolerances are deliberately loose (shared CI runners jitter) and each
spec carries an ``abs_floor``: a regression must clear *both* the
relative band and the absolute floor, so near-zero metrics (an overhead
of 0.04% doubling to 0.08%) cannot trip the gate on noise.  The CLI
surface is ``repro bench-history {ingest,check,show}``; CI runs ``check``
after every bench job and fails the build on a flagged regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BASELINE_WINDOW",
    "DEFAULT_HISTORY_FILENAME",
    "METRIC_SPECS",
    "MetricSpec",
    "append_history",
    "baseline_for",
    "check_regressions",
    "extract_value",
    "format_report",
    "load_history",
    "record_from_bench",
]

DEFAULT_HISTORY_FILENAME = "BENCH_history.jsonl"

#: Historical runs the rolling baseline is the median of.  Five runs keep
#: the baseline responsive to deliberate improvements while needing three
#: bad runs in a row to drag it down.
BASELINE_WINDOW = 5


@dataclass(frozen=True)
class MetricSpec:
    """How one headline metric is read from a bench payload and judged.

    ``key`` is a dotted path; ``direction`` states which way is good
    (``"higher"`` for speedups/throughput, ``"lower"`` for overheads and
    ratios); ``tolerance`` is the relative band around the baseline and
    ``abs_floor`` the minimum absolute move — both must be exceeded in
    the bad direction before the metric counts as regressed.
    """

    key: str
    direction: str  # "higher" | "lower"
    tolerance: float
    abs_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction must be 'higher' or 'lower', got {self.direction!r}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def regressed(self, value: float, baseline: float) -> bool:
        if self.direction == "higher":
            bound = baseline * (1.0 - self.tolerance)
            return value < bound and (baseline - value) > self.abs_floor
        bound = baseline * (1.0 + self.tolerance)
        return value > bound and (value - baseline) > self.abs_floor


#: Headline metrics per benchmark (keyed by the payload's ``benchmark``
#: field).  Timing-derived metrics carry wide bands: CI runners share
#: cores, and the point is catching drifts and cliffs, not 10% jitter.
METRIC_SPECS: Dict[str, Tuple[MetricSpec, ...]] = {
    "cd_peel_kernel": (
        MetricSpec("largest_speedup", "higher", 0.50, abs_floor=0.3),
        MetricSpec("largest_fd_speedup", "higher", 0.50, abs_floor=0.3),
    ),
    "wedge_pipeline_kernels": (
        MetricSpec("largest_speedup", "higher", 0.50, abs_floor=0.2),
        MetricSpec("largest_peak_ratio", "lower", 0.50, abs_floor=0.1),
    ),
    "fd_scaling": (
        MetricSpec("process_fanout_speedup_vs_1worker", "higher", 0.60, abs_floor=0.2),
    ),
    "serving": (
        MetricSpec("offline.warm_batch_speedup_vs_repeel", "higher", 0.60, abs_floor=50.0),
        MetricSpec("async.speedup_vs_per_connection_point", "higher", 0.60, abs_floor=3.0),
        MetricSpec("resilience.recovery_seconds", "lower", 0.60, abs_floor=5.0),
    ),
    "streaming": (
        MetricSpec("session_stream.mean_speedup", "higher", 0.60, abs_floor=2.0),
    ),
    "observability": (
        MetricSpec("tracer_overhead.noop_overhead_pct", "lower", 1.00, abs_floor=2.0),
        MetricSpec("trace_fidelity.phase_gap_pct", "lower", 1.00, abs_floor=3.0),
    ),
}


def extract_value(payload: Dict[str, Any], dotted: str) -> Optional[float]:
    """Resolve a dotted path into a numeric leaf, or ``None`` if absent."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def record_from_bench(
    payload: Dict[str, Any], *, source: str, recorded_unix: float
) -> Optional[Dict[str, Any]]:
    """One history record from a bench payload; ``None`` for unknown benches."""
    benchmark = payload.get("benchmark")
    specs = METRIC_SPECS.get(str(benchmark))
    if not specs:
        return None
    metrics = {}
    for spec in specs:
        value = extract_value(payload, spec.key)
        if value is not None:
            metrics[spec.key] = value
    if not metrics:
        return None
    record = {
        "recorded_unix": float(recorded_unix),
        "benchmark": str(benchmark),
        "mode": str(payload.get("mode", "")),
        "source": str(source),
        "metrics": metrics,
    }
    # The field is named base_fingerprint everywhere (it identifies the
    # *content* a run was measured against, matching /stats); older bench
    # payloads that only carry artifact.fingerprint are accepted as-is.
    artifact = payload.get("artifact")
    if isinstance(artifact, dict):
        fingerprint = artifact.get("base_fingerprint") or artifact.get("fingerprint")
        if fingerprint:
            record["base_fingerprint"] = str(fingerprint)
    return record


def load_history(path: str | Path) -> List[Dict[str, Any]]:
    """Parse a JSONL history file; malformed lines are skipped, not fatal
    (a truncated final line from a killed CI job must not wedge the gate)."""
    path = Path(path)
    if not path.is_file():
        return []
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "benchmark" in record:
                records.append(record)
    return records


def append_history(path: str | Path, records: Iterable[Dict[str, Any]]) -> int:
    """Append records as JSONL; returns how many were written."""
    records = list(records)
    if not records:
        return 0
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def baseline_for(
    history: Sequence[Dict[str, Any]],
    benchmark: str,
    mode: str,
    metric: str,
    *,
    window: int = BASELINE_WINDOW,
) -> Optional[float]:
    """Rolling-median baseline from the last ``window`` matching runs."""
    values = [
        float(record["metrics"][metric])
        for record in history
        if record.get("benchmark") == benchmark
        and record.get("mode") == mode
        and metric in record.get("metrics", {})
    ]
    if not values:
        return None
    return float(median(values[-window:]))


def check_regressions(
    history: Sequence[Dict[str, Any]],
    records: Sequence[Dict[str, Any]],
    *,
    window: int = BASELINE_WINDOW,
) -> List[Dict[str, Any]]:
    """Judge fresh records against the history's rolling baselines.

    Returns one finding per (record, metric): ``status`` is ``"ok"``,
    ``"regression"`` or ``"no_baseline"`` (first run of a metric passes —
    there is nothing to regress from).
    """
    findings: List[Dict[str, Any]] = []
    for record in records:
        benchmark = str(record.get("benchmark", ""))
        mode = str(record.get("mode", ""))
        specs = {spec.key: spec for spec in METRIC_SPECS.get(benchmark, ())}
        for metric, value in record.get("metrics", {}).items():
            spec = specs.get(metric)
            if spec is None:
                continue
            baseline = baseline_for(history, benchmark, mode, metric, window=window)
            if baseline is None:
                status = "no_baseline"
            elif spec.regressed(float(value), baseline):
                status = "regression"
            else:
                status = "ok"
            findings.append({
                "benchmark": benchmark,
                "mode": mode,
                "metric": metric,
                "value": float(value),
                "baseline": baseline,
                "direction": spec.direction,
                "tolerance": spec.tolerance,
                "status": status,
            })
    return findings


def format_report(findings: Sequence[Dict[str, Any]]) -> str:
    """Human-readable check report (one line per finding, verdict last)."""
    if not findings:
        return "bench-history: no gated metrics found"
    lines = []
    regressions = 0
    for finding in findings:
        baseline = finding["baseline"]
        shown = "n/a" if baseline is None else f"{baseline:.4g}"
        arrow = "↑" if finding["direction"] == "higher" else "↓"
        marker = {"ok": "ok", "no_baseline": "new", "regression": "REGRESSION"}[
            finding["status"]]
        if finding["status"] == "regression":
            regressions += 1
        lines.append(
            f"  [{marker:>10}] {finding['benchmark']}/{finding['mode']} "
            f"{finding['metric']} ({arrow} better, ±{finding['tolerance']:.0%}): "
            f"{finding['value']:.4g} vs baseline {shown}"
        )
    verdict = (
        f"bench-history: {regressions} regression(s) in {len(findings)} gated metric(s)"
        if regressions else
        f"bench-history: all {len(findings)} gated metric(s) within tolerance"
    )
    return "\n".join(lines + [verdict])
