"""Execution context with synchronization accounting.

The paper's algorithms are expressed as a sequence of *parallel-for* regions
separated by barriers; the number of such regions (synchronization rounds)
is one of the headline metrics in Table 3.  This module provides a small
execution context that

* counts every parallel region and barrier so the analytical cost model can
  replay the execution for an arbitrary thread count — in-process kernels
  run on the calling thread and only *record* their regions, and
* delegates RECEIPT FD's task fan-out to an execution backend (``serial`` or
  ``process``, see :mod:`repro.engine`) — the ``process`` backend escapes
  the GIL by dispatching task descriptors to a worker pool attached to a
  shared-memory graph store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine sits above)
    from ..engine.backends import EngineBackend
    from ..engine.tasks import FdJob, FdTask, FdTaskResult

__all__ = ["BACKEND_NAMES", "ExecutionContext", "ParallelRegionRecord"]

#: Valid execution-backend names (:mod:`repro.engine.backends` and the CLI
#: import this tuple; it lives here so constructing a context does not
#: import the engine).
BACKEND_NAMES = ("serial", "process")


@dataclass
class ParallelRegionRecord:
    """Book-keeping for one executed parallel-for region."""

    name: str
    n_tasks: int
    total_work: float
    task_work: list[float] = field(default_factory=list)
    scheduling: str = "dynamic"


class ExecutionContext:
    """Execution policy + instrumentation shared by all parallel kernels.

    Parameters
    ----------
    n_threads:
        Worker count of the ``process`` backend and the thread count
        reported to the analytical cost model.  In-process kernels always
        run on the calling thread, so results and recorded regions do not
        depend on it.
    backend:
        Execution backend for the FD task fan-out (:meth:`run_fd_tasks`):
        ``"serial"`` (default) or ``"process"``.  The ``"process"`` backend
        places the graph in shared memory and fans descriptors out to
        ``n_threads`` worker processes — results are bit-identical to
        serial execution.
    """

    def __init__(self, n_threads: int = 1, *, backend: str = "serial"):
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        self.n_threads = int(n_threads)
        self.backend = backend
        self._engine: "EngineBackend | None" = None
        self._lock = threading.Lock()
        self.synchronization_rounds = 0
        self.parallel_regions: list[ParallelRegionRecord] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the engine backend (its worker pool), if created."""
        if self._engine is not None:
            self._engine.shutdown()
            self._engine = None

    @property
    def engine(self) -> "EngineBackend":
        """The lazily created execution backend behind :meth:`run_fd_tasks`.

        Exposed so callers can pre-pay startup costs (``context.engine.
        warmup()`` spawns the process pool ahead of a timed region).
        """
        if self._engine is None:
            # Imported lazily: the engine layer sits above `parallel` in the
            # module hierarchy (its tasks import the peeling kernels).
            from ..engine.backends import create_backend

            self._engine = create_backend(self.backend, n_workers=self.n_threads)
        return self._engine

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def record_barrier(self, name: str, *, n_tasks: int = 0, total_work: float = 0.0,
                       task_work: Sequence[float] | None = None,
                       scheduling: str = "dynamic") -> None:
        """Record one synchronization round without running anything.

        Peeling iterations call this directly: the "tasks" of the round are
        the vertices peeled and the "work" is the wedges they traverse.
        """
        with self._lock:
            self.synchronization_rounds += 1
            self.parallel_regions.append(
                ParallelRegionRecord(
                    name=name,
                    n_tasks=int(n_tasks),
                    total_work=float(total_work),
                    task_work=list(task_work) if task_work is not None else [],
                    scheduling=scheduling,
                )
            )

    # ------------------------------------------------------------------
    # FD task queue
    # ------------------------------------------------------------------
    def run_fd_tasks(self, job: "FdJob", tasks: "Iterable[FdTask]", *,
                     name: str = "fd_task_queue",
                     work_per_task: Sequence[float] | None = None,
                     scheduling: str = "lpt") -> "list[FdTaskResult]":
        """Dispatch FD task descriptors through the configured backend.

        This is RECEIPT FD's task queue (Alg. 4): the descriptors are
        executed in the given (LPT) order by the ``serial`` or ``process``
        backend, results come back in the same order, and one
        synchronization round is recorded for the final barrier.  When no
        explicit ``work_per_task`` is given, each descriptor's
        ``estimated_work`` is used.
        """
        task_list = list(tasks)
        if work_per_task is None:
            work = [float(task.estimated_work) for task in task_list]
        elif len(work_per_task) != len(task_list):
            raise ValueError(
                f"work_per_task has {len(work_per_task)} entries for "
                f"{len(task_list)} tasks"
            )
        else:
            work = [float(value) for value in work_per_task]
        self.record_barrier(
            name,
            n_tasks=len(task_list),
            total_work=float(sum(work)),
            task_work=work,
            scheduling=scheduling,
        )
        if not task_list:
            return []
        return self.engine.run_fd_tasks(job, task_list)
