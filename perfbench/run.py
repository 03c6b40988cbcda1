"""End-to-end benchmark of tip decomposition and tip-index serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, one after another
    python3 perfbench/run.py --self-test          # tiny scale, checks names and oracles

Workloads (see perfbench/README.md for why each exists):

* ``decompose-tr-u`` / ``decompose-or-u`` — ``receipt_decomposition`` on a
  dataset stand-in, serial and with 2 worker processes;
* ``serve-read`` — open-loop point reads against ``repro serve --transport
  async``, at a fixed rate and then a search for the highest rate that
  meets the latency limit;
* ``serve-mixed`` — the same reads at a lower rate beside update batches.

The report lists every metric with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` names for the mode.  Any
answer that disagrees with the oracle makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("decompose-tr-u", "decompose-or-u", "serve-read", "serve-mixed")
#: Per-layer metrics of the server; decompose-* runs start no server.
SERVER_LAYERS = ("service.", "streaming.")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _is_serve(workload: str) -> bool:
    return workload.startswith("serve-")


def _final_json(report, trace: bool) -> dict:
    spec = _spec()
    values = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, metric = entry["name"], report.metrics.get(entry["name"])
        if metric is not None:
            values[name] = (metric.value, metric.unit)
        elif name.startswith(SERVER_LAYERS) and not _is_serve(report.workload):
            values[name] = (0.0, entry["unit"])  # no server runs in this workload
        else:
            raise KeyError(f"{report.workload} did not measure {name!r}")
    return {
        "correct": report.correct,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def _probe(args) -> int:
    """One cold set-up in a fresh process: imports plus input generation."""
    if _is_serve(args.workload):
        import serve

        serve.build_artifact(args.seed, args.scale, Path(args.probe_out))
    else:
        import decompose

        decompose.load_inputs(args.workload, args.seed, args.scale)
    return 0


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _print_report(report, meta: dict, trace: bool) -> None:
    print(f"== {report.workload} (trace={int(trace)})")
    print("metadata " + json.dumps(meta, sort_keys=True))
    for row in report.phases:
        print("phase    " + json.dumps(row))
    if report.layers:
        print(f"{'span':36} {'busy_s':>10} {'self_s':>10} {'calls':>9}")
        for row in report.layers:
            print(f"{row['span'][:36]:36} {row['busy_s']:10.4f} {row['self_s']:10.4f} "
                  f"{row['calls']:9.0f}")
    print(f"{'metric':32} {'value':>14} {'unit':>8} {'n':>7}")
    for metric in report.metrics.values():
        print(f"{metric.name:32} {metric.value:14.6g} {metric.unit:>8} {metric.samples:7d}")
    rate = report.failed / report.attempted if report.attempted else 0.0
    print(f"{'error_rate':32} {rate:14.6g} {'fraction':>8} {report.attempted:7d}")
    for problem in report.problems:
        print(f"PROBLEM  {problem}")


def _run_one(args) -> int:
    import common

    started = time.perf_counter()
    if _is_serve(args.workload):
        import serve as module
    else:
        import decompose as module
    report = module.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                        corrupt=args.corrupt_oracle)
    meta = common.metadata(args.seed, args.scale)
    meta["seconds"] = args.seconds
    meta["wall_s"] = round(time.perf_counter() - started, 3)
    _print_report(report, meta, bool(args.trace))
    print(json.dumps(_final_json(report, bool(args.trace))))
    return 0 if report.correct else 1


def _child(args, workload: str, *extra: str) -> tuple[int, str]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--scale", repr(args.scale), *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                          stdin=subprocess.DEVNULL)
    return done.returncode, done.stdout + done.stderr


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        code, output = _child(args, workload)
        print(output, end="")
        status = status or code
    return status


def _self_test(args) -> int:
    """Every workload at tiny scale: metric names match BENCHMARK.json, oracles bite."""
    spec = _spec()
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    args.scale, args.seconds, args.seed = 0.1, 3.0, 1
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        for trace in (0, 1):
            args.trace = trace
            code, output = _child(args, workload)
            last = json.loads(output.strip().splitlines()[-1]) if output.strip() else {}
            names = set(last.get("metrics", {}))
            if code != 0 or not last.get("correct") or names != expected[trace]:
                failures.append(f"{workload} trace={trace}: exit {code}, "
                                f"missing {sorted(expected[trace] - names)}, "
                                f"extra {sorted(names - expected[trace])}\n{output[-3000:]}")
        args.trace = 0
        code, output = _child(args, workload, "--corrupt-oracle")
        last = json.loads(output.strip().splitlines()[-1]) if output.strip() else {}
        if code == 0 or last.get("failed", 0) < 1:
            failures.append(f"{workload}: a corrupted oracle value was not counted as a failure")
        print(f"self-test {workload}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(failure)
    print("self-test " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test uses 0.1)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-check: corrupt one expected value; the run must fail")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    import common

    common.adopt_orphans()
    # SIGTERM unwinds like an exception, so the finally below still stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.self_test:
            return _self_test(args)
        if args.probe_setup:
            return _probe(args)
        if args.workload == "all":
            return _run_all(args)
        return _run_one(args)
    finally:
        common.stop_descendants()


if __name__ == "__main__":
    raise SystemExit(main())
