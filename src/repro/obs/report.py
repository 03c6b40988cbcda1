"""Run reports: Chrome-tracing export and the phase-time breakdown table.

``write_trace`` persists a tracer's span tree as a JSON file that loads
directly in ``chrome://tracing`` / Perfetto (``traceEvents`` complete
events) while also carrying the parent-linked span dicts under a
``spans`` key so ``repro trace-summary`` does not have to re-infer
nesting.  Files produced by other tools (bare event arrays) are still
accepted: nesting is reconstructed per thread by interval containment.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from .trace import Tracer

__all__ = ["format_summary", "load_trace", "summarize", "write_trace"]


def write_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    """Write the tracer's spans to ``path`` in Chrome tracing format."""
    payload = tracer.chrome_trace()
    payload["spans"] = tracer.export()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return payload


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load span dicts from a ``--trace-out`` file (or any Chrome trace)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "spans" in data:
        return list(data["spans"])
    events = data.get("traceEvents", []) if isinstance(data, dict) else data
    return _spans_from_events(events)


def _spans_from_events(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild parent links from complete events by per-thread containment."""
    ids = itertools.count(1)
    spans: List[Dict[str, Any]] = []
    by_thread: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            by_thread[(event.get("pid"), event.get("tid"))].append(event)
    for (pid, tid), group in by_thread.items():
        group.sort(key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))))
        stack: List[Any] = []  # (span_id, end_seconds)
        for event in group:
            start = float(event.get("ts", 0.0)) / 1e6
            dur = float(event.get("dur", 0.0)) / 1e6
            while stack and start >= stack[-1][1] - 1e-12:
                stack.pop()
            parent = stack[-1][0] if stack else None
            span_id = next(ids)
            spans.append(
                {
                    "name": event.get("name", "?"),
                    "id": span_id,
                    "parent": parent,
                    "start": start,
                    "dur": dur,
                    "tid": tid,
                    "pid": pid,
                    "attrs": dict(event.get("args", {})),
                }
            )
            stack.append((span_id, start + dur))
    spans.sort(key=lambda span: span["start"])
    return spans


def summarize(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a span list into wall time, top-level phases, per-name totals."""
    by_id = {span["id"]: span for span in spans}
    children: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in by_id:
            children[parent].append(span)
        else:
            roots.append(span)
    wall = sum(span["dur"] for span in roots)

    by_name: Dict[str, List[float]] = {}
    for span in spans:
        child_total = sum(c["dur"] for c in children.get(span["id"], ()))
        entry = by_name.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] += max(0.0, span["dur"] - child_total)

    phases: Dict[str, float] = {}
    for root in roots:
        for child in children.get(root["id"], ()):
            phases[child["name"]] = phases.get(child["name"], 0.0) + child["dur"]

    root_counts: Dict[str, int] = {}
    for root in roots:
        root_counts[root["name"]] = root_counts.get(root["name"], 0) + 1

    # FD tasks report how many min-support rounds peeled their vertices.
    fd_tasks = [span["attrs"] for span in spans
                if span["name"] == "fd.peel_subset" and "rounds" in span.get("attrs", {})]
    fd_rounds = {
        "tasks": len(fd_tasks),
        "vertices": sum(int(attrs.get("n_vertices", 0)) for attrs in fd_tasks),
        "rounds": sum(int(attrs["rounds"]) for attrs in fd_tasks),
    }

    return {
        "n_spans": len(spans),
        "wall_seconds": wall,
        "roots": [root["name"] for root in roots],
        # Deduped view for traces with many same-named roots (a serve
        # session records one streaming.update root per applied batch).
        "root_counts": root_counts,
        "phases": phases,
        "fd_rounds": fd_rounds,
        "by_name": {
            name: {"count": int(c), "total_seconds": t, "self_seconds": s}
            for name, (c, t, s) in by_name.items()
        },
    }


def format_summary(spans: Sequence[Dict[str, Any]], top: int = 20) -> str:
    """Human-readable phase-time breakdown mirroring the paper's CD/FD split."""
    summary = summarize(spans)
    wall = summary["wall_seconds"]
    lines: List[str] = []
    roots = ", ".join(
        name if count == 1 else f"{name} ×{count}"
        for name, count in summary["root_counts"].items()
    ) or "none"
    lines.append(
        f"trace: {summary['n_spans']} spans, wall {wall * 1000:.1f} ms"
        f" (root: {roots})"
    )

    phases = summary["phases"]
    if phases:
        lines.append("")
        lines.append("phase breakdown (share of root wall-clock):")
        accounted = 0.0
        for name, total in sorted(phases.items(), key=lambda kv: -kv[1]):
            accounted += total
            lines.append(_phase_row(name, total, wall))
        untraced = wall - accounted
        if wall > 0 and untraced / wall > 0.005:
            lines.append(_phase_row("(untraced)", untraced, wall))

    fd_rounds = summary["fd_rounds"]
    if fd_rounds["tasks"]:
        lines.append("")
        lines.append(
            f"fd rounds: {fd_rounds['rounds']} rounds peeled {fd_rounds['vertices']}"
            f" vertices in {fd_rounds['tasks']} subset tasks"
        )

    by_name = summary["by_name"]
    if by_name:
        lines.append("")
        lines.append(f"hottest spans (by total time, top {top}):")
        lines.append(
            f"  {'name':<30} {'count':>7} {'total ms':>10} {'self ms':>10} {'% wall':>7}"
        )
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1]["total_seconds"])
        for name, row in ranked[:top]:
            pct = 100.0 * row["total_seconds"] / wall if wall > 0 else 0.0
            lines.append(
                f"  {name:<30} {row['count']:>7} {row['total_seconds'] * 1000:>10.1f}"
                f" {row['self_seconds'] * 1000:>10.1f} {pct:>6.1f}%"
            )
    return "\n".join(lines)


def _phase_row(name: str, total: float, wall: float) -> str:
    pct = 100.0 * total / wall if wall > 0 else 0.0
    bar = "#" * max(0, min(40, round(pct / 2.5)))
    return f"  {name:<30} {total * 1000:>10.1f} ms {pct:>5.1f}%  {bar}"
