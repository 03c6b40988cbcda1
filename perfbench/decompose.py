"""decompose-* workloads: repeated ``receipt_decomposition`` calls on one side.

Untraced runs alternate a serial call (the ``repro decompose`` default) with
a 2-worker process-backend call (pool start-up included) until the time is
spent, and check every answer against the sequential BUP oracle's digest.
Traced runs alternate untraced and traced serial calls (the ratio is the
tracing overhead), then make one 2-worker call for the engine numbers.
"""

from __future__ import annotations

import time

from common import (
    MIB, SETUP_REPEATS, WORK_DIR, WorkloadResult, array_digest, cached_oracle, median,
    timed_setup_probe, vm_hwm_mb,
)
import tracing

DATASETS = {"decompose-tr-u": "tr", "decompose-or-u": "or"}
SIDE = "U"
#: The named top-level layers whose spans must cover the traced wall time.
TOP_LAYERS = ("butterfly.count", "core.cd", "core.fd")
MIN_COVERAGE = 0.95


def load_inputs(workload: str, seed: int, scale: float):
    """The workload's graph: a dataset stand-in generated from ``seed``."""
    from repro.datasets import load_dataset

    return load_dataset(DATASETS[workload], scale=scale, seed=seed)


def oracle_digest(workload: str, graph, seed: int, scale: float) -> str:
    """Digest of the sequential BUP tip numbers, cached per input."""
    from repro import bup_decomposition

    key = f"{DATASETS[workload]}-scale{scale!r}-seed{seed}-{SIDE}"
    return cached_oracle(key, lambda: {
        "digest": array_digest(bup_decomposition(graph, SIDE).tip_numbers)})["digest"]


def _call(graph, parallel: bool):
    from repro import receipt_decomposition

    kwargs = {"backend": "process", "n_threads": 2} if parallel else {}
    start = time.perf_counter()
    result = receipt_decomposition(graph, SIDE, **kwargs)
    return result, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float,
        corrupt: bool = False) -> WorkloadResult:
    report = WorkloadResult(workload)
    graph = load_inputs(workload, seed, scale)
    report.phases.append({"phase": "inputs", "n_u": graph.n_u, "n_v": graph.n_v,
                          "n_edges": graph.n_edges})
    if trace:
        return _run_traced(report, graph, seed, seconds, scale, workload)

    digests: list[tuple[str, str]] = []
    times = {"serial": [], "par": []}
    deadline = time.perf_counter() + seconds
    while True:
        pair_start = time.perf_counter()
        for mode in ("serial", "par"):
            report.attempted += 1
            try:
                result, elapsed = _call(graph, parallel=(mode == "par"))
            except Exception as error:  # a failed call is counted, not fatal
                report.fail(f"{mode} decomposition raised {error!r}")
                continue
            times[mode].append(elapsed)
            digests.append((mode, array_digest(result.tip_numbers)))
        now = time.perf_counter()
        if now + (now - pair_start) > deadline:
            break
    report.add("peak_rss_mb", vm_hwm_mb(), "MiB", 1)

    expected = oracle_digest(workload, graph, seed, scale)
    if corrupt:
        expected = "0" * 64  # self-check: a wrong expectation must count as failures
    for mode, digest in digests:
        if digest != expected:
            report.fail(f"{mode} decomposition disagrees with the BUP oracle")
    report.phases.append({"phase": "decompose", "sent": report.attempted,
                          "ok": report.attempted - report.failed, "failed": report.failed,
                          "serial_s": [round(t, 4) for t in times["serial"]],
                          "par_s": [round(t, 4) for t in times["par"]]})
    if times["serial"]:
        report.add("decompose_s", median(times["serial"]), "s", len(times["serial"]))
    if times["par"]:
        report.add("decompose_par_s", median(times["par"]), "s", len(times["par"]))
    setups = [timed_setup_probe(workload, seed, scale) for _ in range(SETUP_REPEATS)]
    report.add("setup_s", median(setups), "s", len(setups))
    return report


def _run_traced(report, graph, seed, seconds, scale, workload) -> WorkloadResult:
    plain, traced, results = trace_layers(report, graph, seconds * 0.75, f"{workload}-seed{seed}")
    report.add("trace.overhead", median(traced) / median(plain), "ratio", len(traced))
    expected = oracle_digest(workload, graph, seed, scale)
    for result in results:
        if array_digest(result.tip_numbers) != expected:
            report.fail("traced decomposition disagrees with the BUP oracle")
    return report


def trace_layers(report, graph, seconds: float, label: str, min_runs: int = 3):
    """Per-layer metrics of serial calls on ``graph``, plus one 2-worker call.

    Untraced and traced serial calls alternate for ``seconds`` (at least
    ``min_runs`` pairs); per-layer numbers are medians over the traced calls.
    Returns the untraced and traced wall times and every result.
    """
    recorder = tracing.Recorder()
    plain, traced, results = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < min_runs or time.perf_counter() + 2 * traced[-1] < deadline:
        _, elapsed = _call(graph, parallel=False)
        plain.append(elapsed)
        recorder.install()
        recorder.run_id = len(traced) + 1
        try:
            result, elapsed = _call(graph, parallel=False)
        finally:
            recorder.uninstall()
            recorder.run_id = 0
        traced.append(elapsed)
        results.append(result)
        report.attempted += 2
    par_result, _ = _call(graph, parallel=True)
    report.attempted += 1

    spans = recorder.closed()
    runs = range(1, len(traced) + 1)
    per_run = [tracing.layer_totals(spans, run_id=run_id) for run_id in runs]
    coverage = median([
        sum(span[2] - span[1] for span in spans
            if span[4] == run_id and span[3] is None and span[0] in TOP_LAYERS) / wall
        for run_id, wall in zip(runs, traced)])
    out = WORK_DIR / "traces"
    out.mkdir(parents=True, exist_ok=True)
    recorder.dump(out / f"{label}.spans.jsonl.gz")
    _decomposition_layers(report, per_run, results)
    _engine_metrics(report, par_result)
    report.add("trace.coverage", coverage, "ratio", len(traced))
    if coverage < MIN_COVERAGE:
        report.oracle_ok = False
        report.problems.append(f"named layer spans cover {coverage:.1%} of traced wall time "
                               f"(< {MIN_COVERAGE:.0%})")
    return plain, traced, results + [par_result]


def _engine_metrics(report, par_result) -> None:
    """Per-task FD seconds of one 2-worker run: the slowest task and the efficiency."""
    records = par_result.extra["subset_records"]
    fd_wall = par_result.phase_counters["fd"].elapsed_seconds
    task_seconds = [record.elapsed_seconds for record in records]
    report.add("engine.task_max_s", max(task_seconds, default=0.0), "s", len(task_seconds))
    report.add("engine.par_efficiency", sum(task_seconds) / (2 * fd_wall) if fd_wall else 0.0,
               "ratio", len(task_seconds))


def _decomposition_layers(report, per_run: list, results: list) -> None:
    """Per-layer medians over the traced decompositions (one run = one call)."""
    n = len(per_run)

    def busy(name):
        return median([totals.get(name, {}).get("busy", 0.0) for totals in per_run])

    def calls(name):
        return median([totals.get(name, {}).get("calls", 0) for totals in per_run])

    def counter(phase, field):
        return median([getattr(result.phase_counters[phase], field) for result in results])

    report.add("butterfly.count_s", busy("butterfly.count"), "s", n)
    report.add("butterfly.wedges", counter("pvBcnt", "wedges_traversed"), "count", n)
    report.add("core.cd_s", busy("core.cd"), "s", n)
    report.add("core.cd_rounds", counter("cd", "synchronization_rounds"), "count", n)
    report.add("core.cd_wedges", counter("cd", "wedges_traversed"), "count", n)
    report.add("core.huc_cost_s", busy("core.huc_cost"), "s", n)
    report.add("core.huc_recount_s", busy("core.huc_recount"), "s", n)
    report.add("core.huc_recounts", calls("core.huc_recount"), "count", n)
    report.add("core.fd_s", busy("core.fd"), "s", n)
    report.add("core.fd_wedges", counter("fd", "wedges_traversed"), "count", n)
    report.add("core.fd_support_updates", counter("fd", "support_updates"), "count", n)
    report.add("graph.induce_s", busy("graph.induce"), "s", n)
    report.add("peeling.vertex_s", busy("peeling.vertex"), "s", n)
    report.add("peeling.vertex_calls", calls("peeling.vertex"), "count", n)
    report.add("peeling.batch_s", busy("peeling.batch"), "s", n)
    report.add("peeling.batch_calls", calls("peeling.batch"), "count", n)
    heap = [tracing.merge_heap(totals) for totals in per_run]
    report.add("peeling.heap_s", median([h["busy"] for h in heap]), "s", n)
    report.add("peeling.heap_calls", median([h["calls"] for h in heap]), "count", n)
    report.add("peeling.updates_per_wedge", median(
        [r.counters.support_updates / max(1, r.counters.wedges_traversed) for r in results]),
        "ratio", n)
    report.add("kernels.gather_s", busy("kernels.gather"), "s", n)
    report.add("kernels.pair_count_s", busy("kernels.pair_count"), "s", n)
    report.add("kernels.decrement_s", busy("kernels.decrement"), "s", n)
    report.add("kernels.dgm_s", busy("kernels.dgm"), "s", n)
    report.add("kernels.dgm_compactions", calls("kernels.dgm"), "count", n)
    report.add("kernels.peak_scratch_mb",
               median([r.counters.peak_scratch_bytes for r in results]) / MIB, "MiB", n)
    report.layers = _layer_rows(per_run)


def _layer_rows(per_run: list) -> list:
    names = sorted({name for totals in per_run for name in totals})
    rows = []
    for name in names:
        rows.append({
            "span": name,
            "busy_s": median([t.get(name, {}).get("busy", 0.0) for t in per_run]),
            "self_s": median([t.get(name, {}).get("self", 0.0) for t in per_run]),
            "calls": median([t.get(name, {}).get("calls", 0) for t in per_run]),
        })
    return rows
