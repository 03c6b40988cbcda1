"""Shared helpers: statistics, run metadata, oracle cache, set-up probes."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes (oracle digests, artifacts, server logs,
#: span dumps) lives here, inside the checkout and ignored by git.
WORK_DIR = ROOT / ".bench_build" / "perfbench"

MIB = 1024.0 * 1024.0
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Metric:
    """One reported number: value, unit and the sample count behind it."""

    name: str
    value: float
    unit: str
    samples: int = 1


@dataclass
class WorkloadResult:
    """Everything one workload run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    oracle_ok: bool = True
    metrics: dict = field(default_factory=dict)  # name -> Metric
    phases: list = field(default_factory=list)   # per-phase sent/ok/failed rows
    layers: list = field(default_factory=list)   # per-layer table rows (traced)
    problems: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(name, float(value), unit, int(samples))

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed operations and remember why."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.oracle_ok and self.failed == 0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MIB
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def array_digest(values) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


def cached_oracle(key: str, compute):
    """JSON-serialisable oracle result for ``key``, computed once per checkout."""
    path = WORK_DIR / "oracle" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    value = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value), encoding="utf-8")
    os.replace(tmp, path)
    return value


def src_line_count() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def commit_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def metadata(seed: int, scale: float) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit_id(),
        "seed": seed,
        "scale": scale,
        "src_lines": src_line_count(),
    }


def python_env() -> dict:
    """Environment for child Python processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"  # the server announces its port with print()
    return env


def python() -> str:
    return sys.executable or "python3"


def timed_setup_probe(workload: str, seed: int, scale: float, out: Path | None = None) -> float:
    """Seconds one cold set-up takes in a fresh process (``run.py --probe-setup``)."""
    argv = [python(), str(BENCH_DIR / "run.py"), "--probe-setup", "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale)]
    if out is not None:
        argv += ["--probe-out", str(out)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, env=python_env(), timeout=300, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent exits.

    Helpers the program starts (multiprocessing's resource tracker, pool
    workers, a server's children) would otherwise outlive their parent
    under init; adopted, ``stop_descendants`` can stop and reap them.
    """
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float = 10.0) -> None:
    """Stop every process this one started or adopted and wait until each has ended.

    The resource tracker is told to exit by closing its pipe (it ignores
    SIGTERM); anything else left gets SIGTERM, and SIGKILL after ``grace``
    seconds.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes the pipe, then waits
    except Exception:
        pass
    deadline = time.monotonic() + grace
    while True:
        _reap()
        pids = _child_pids()
        if not pids:
            return
        sig = signal.SIGKILL if time.monotonic() > deadline else signal.SIGTERM
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
