"""Peel-kernel smoke benchmark: batched vs reference CD, round vs per-vertex FD.

A plain script (no pytest harness) so CI can run it directly:

    PYTHONPATH=src python benchmarks/bench_peeling_smoke.py [--quick]

For each selected dataset stand-in it runs the RECEIPT CD phase twice —
once with the vectorized batched kernel, once with the per-vertex reference
loop — verifies that wedge traversal, support updates and subset contents
agree exactly, and records wall time for both.  It then runs FD on the CD
subsets twice — the min-support round peel RECEIPT uses, and one
``peel_sequential`` heap pop per vertex on every induced subset — checks
that tip numbers and wedges traversed agree, and records both wall times
and the FD and CD peak scratch.  Results are written to
``BENCH_peeling.json`` at the repository root so successive CI runs chart
the performance trajectory of the peeling hot path.

``--quick`` benchmarks the two smallest stand-ins at a reduced scale (the
CI smoke job); the default covers every registry dataset at the harness's
usual 0.4 scale.  The script exits non-zero if the kernels or the two FD
peels disagree, if FD's peak scratch exceeds CD's on any stand-in, or — in
full mode, where batches are large enough for the per-vertex interpreter
overhead to dominate the reference — if the batched kernel fails to
deliver a >= 3.5x CD-phase speedup on the largest benchmarked dataset
(raised from 3x once the wedge pipeline moved allocations off the hot
path; see ``bench_kernels.py`` for the dedicated memory-policy gates) or
round FD is not >= 2x faster than per-vertex FD on ``tr``.  Quick mode
records the speedups without gating on them (tiny graphs are
fixed-overhead-bound on both paths).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.fd import fine_grained_decomposition
from repro.datasets.registry import dataset_names, load_dataset
from repro.kernels.workspace import WedgeWorkspace
from repro.peeling.bup import peel_sequential

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICK_DATASETS = ("it", "de")
SPEEDUP_FLOOR = 3.5
#: Round FD over per-vertex FD on the FD-heaviest stand-in (full mode).
FD_SPEEDUP_FLOOR = 2.0
FD_GATED_DATASET = "tr"


def run_cd(graph, initial_supports, *, kernel: str, n_partitions: int,
           rounds: int = 1) -> dict:
    elapsed = None
    for _ in range(rounds):
        workspace = WedgeWorkspace()  # fresh arena per run: exact peak accounting
        start = time.perf_counter()
        result = coarse_grained_decomposition(
            graph,
            initial_supports,
            n_partitions,
            enable_huc=False,  # isolate the peel kernel: no re-count shortcuts
            enable_dgm=True,
            peel_kernel=kernel,
            workspace=workspace,
        )
        lap = time.perf_counter() - start
        elapsed = lap if elapsed is None else min(elapsed, lap)
    return {
        "kernel": kernel,
        "result": result,
        "cd_seconds": elapsed,
        "peak_scratch_bytes": int(result.counters.peak_scratch_bytes),
        "wedges_traversed": int(result.counters.wedges_traversed),
        "support_updates": int(result.counters.support_updates),
        "synchronization_rounds": int(result.counters.synchronization_rounds),
        "subset_sizes": [int(subset.size) for subset in result.subsets],
        "bounds": [int(bound) for bound in result.bounds],
    }


def sequential_fd(graph, cd_result) -> tuple[np.ndarray, int]:
    """FD as one ``peel_sequential`` heap pop per vertex on every subset."""
    tip_numbers = np.zeros(graph.n_u, dtype=np.int64)
    wedges = 0
    for subset in cd_result.subsets:
        if not subset.size:
            continue
        induced = graph.induced_on_u_subset(subset).graph
        tips, counters, _ = peel_sequential(induced, "U", cd_result.init_supports[subset],
                                            workspace=WedgeWorkspace())
        tip_numbers[subset] = tips
        wedges += counters.wedges_traversed
    return tip_numbers, wedges


def bench_fd(key: str, graph, cd_result, *, rounds: int) -> dict:
    """Time round FD against per-vertex FD on the same CD subsets."""
    times = {"rounds": None, "sequential": None}
    for _ in range(rounds):
        start = time.perf_counter()
        result = fine_grained_decomposition(graph, cd_result)
        lap = time.perf_counter() - start
        times["rounds"] = lap if times["rounds"] is None else min(times["rounds"], lap)
        start = time.perf_counter()
        sequential_tips, sequential_wedges = sequential_fd(graph, cd_result)
        lap = time.perf_counter() - start
        times["sequential"] = (lap if times["sequential"] is None
                               else min(times["sequential"], lap))

    if not np.array_equal(result.tip_numbers, sequential_tips):
        raise AssertionError(f"{key}: round FD and per-vertex FD disagree on tip numbers")
    if result.counters.wedges_traversed != sequential_wedges:
        raise AssertionError(
            f"{key}: round FD traversed {result.counters.wedges_traversed} wedges, "
            f"per-vertex FD {sequential_wedges}"
        )
    return {
        "fd_seconds": round(times["rounds"], 4),
        "sequential_fd_seconds": round(times["sequential"], 4),
        "fd_speedup": round(times["sequential"] / max(times["rounds"], 1e-9), 2),
        "fd_wedges_traversed": int(result.counters.wedges_traversed),
        "fd_rounds": sum(record.rounds for record in result.subset_records),
        "fd_peak_scratch_bytes": int(result.counters.peak_scratch_bytes),
    }


def bench_dataset(key: str, *, scale: float, n_partitions: int, rounds: int) -> dict:
    graph = load_dataset(key, scale=scale)
    counts = count_per_vertex_priority(graph)
    runs = {
        kernel: run_cd(graph, counts.u_counts, kernel=kernel,
                       n_partitions=n_partitions, rounds=rounds)
        for kernel in ("batched", "reference")
    }

    for counter in ("wedges_traversed", "support_updates", "synchronization_rounds",
                    "subset_sizes", "bounds"):
        if runs["batched"][counter] != runs["reference"][counter]:
            raise AssertionError(
                f"{key}: batched and reference kernels disagree on {counter}: "
                f"{runs['batched'][counter]} != {runs['reference'][counter]}"
            )

    speedup = runs["reference"]["cd_seconds"] / max(runs["batched"]["cd_seconds"], 1e-9)
    fd = bench_fd(key, graph, runs["batched"]["result"], rounds=rounds)
    return {
        "dataset": key,
        "n_u": graph.n_u,
        "n_v": graph.n_v,
        "n_edges": graph.n_edges,
        "wedges_traversed": runs["batched"]["wedges_traversed"],
        "batched_cd_seconds": round(runs["batched"]["cd_seconds"], 4),
        "reference_cd_seconds": round(runs["reference"]["cd_seconds"], 4),
        "cd_speedup": round(speedup, 2),
        "batched_peak_scratch_bytes": runs["batched"]["peak_scratch_bytes"],
        **fd,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale + two datasets (CI smoke mode)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the dataset scale multiplier")
    parser.add_argument("--partitions", type=int, default=12,
                        help="RECEIPT partitions P for the CD phase (a scaled-down "
                             "stand-in for the paper's 150, sized to the bench graphs)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_peeling.json"))
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.15 if args.quick else 0.4)
    keys = list(QUICK_DATASETS) if args.quick else dataset_names()

    rows = []
    for key in keys:
        # Best-of-3 wall times in full mode so single-run jitter cannot
        # straddle the speedup floor; quick mode times one round.
        row = bench_dataset(key, scale=scale, n_partitions=args.partitions,
                            rounds=1 if args.quick else 3)
        rows.append(row)
        print(
            f"{key}: |E|={row['n_edges']:,} wedges={row['wedges_traversed']:,} "
            f"batched={row['batched_cd_seconds']}s reference={row['reference_cd_seconds']}s "
            f"speedup={row['cd_speedup']}x | FD rounds={row['fd_seconds']}s "
            f"per-vertex={row['sequential_fd_seconds']}s speedup={row['fd_speedup']}x "
            f"peak FD/CD={row['fd_peak_scratch_bytes']:,}/"
            f"{row['batched_peak_scratch_bytes']:,} B"
        )

    # "Largest" means the heaviest CD workload — most wedges traversed, the
    # paper's work unit — not most edges, so the gate cannot be satisfied by
    # a dataset the kernel barely sweats on.
    largest = max(rows, key=lambda row: row["wedges_traversed"])
    # FD's headline is its own heaviest workload (most FD wedges traversed).
    largest_fd = max(rows, key=lambda row: row["fd_wedges_traversed"])
    report = {
        "benchmark": "cd_peel_kernel",
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "partitions": args.partitions,
        "cpu_count": os.cpu_count(),
        "datasets": rows,
        "largest_dataset": largest["dataset"],
        "largest_speedup": largest["cd_speedup"],
        "largest_fd_dataset": largest_fd["dataset"],
        "largest_fd_speedup": largest_fd["fd_speedup"],
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    failures = [
        f"FD peak scratch on {row['dataset']} ({row['fd_peak_scratch_bytes']:,} B) "
        f"exceeds CD's ({row['batched_peak_scratch_bytes']:,} B)"
        for row in rows
        if row["fd_peak_scratch_bytes"] > row["batched_peak_scratch_bytes"]
    ]
    if not args.quick:
        if largest["cd_speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"CD speedup on largest dataset ({largest['dataset']}) is "
                f"{largest['cd_speedup']}x, below the {SPEEDUP_FLOOR}x floor"
            )
        for row in rows:
            if row["dataset"] == FD_GATED_DATASET and row["fd_speedup"] < FD_SPEEDUP_FLOOR:
                failures.append(
                    f"FD speedup on {FD_GATED_DATASET} is {row['fd_speedup']}x, "
                    f"below the {FD_SPEEDUP_FLOOR}x floor"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"OK: kernels agree exactly; batched kernel is {largest['cd_speedup']}x "
        f"faster on the largest dataset ({largest['dataset']}); round FD is "
        f"{largest_fd['fd_speedup']}x faster than per-vertex FD on "
        f"{largest_fd['dataset']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
