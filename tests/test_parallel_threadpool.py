"""Unit tests for the execution context (accounting and FD task queue)."""

import pytest

from repro.parallel.threadpool import ExecutionContext


class TestConstruction:
    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ExecutionContext(0)

    def test_context_manager_shuts_down(self):
        with ExecutionContext(2, backend="process") as context:
            context.engine.warmup()
            assert context._engine is not None
        assert context._engine is None


class TestAccounting:
    def test_barrier_counting(self):
        context = ExecutionContext(2)
        context.record_barrier("a")
        context.record_barrier("b", n_tasks=4, total_work=10.0)
        assert context.synchronization_rounds == 2
        assert [region.name for region in context.parallel_regions] == ["a", "b"]

    def test_each_parallel_for_counts_one_round(self):
        # An FD task queue synchronises once at its final barrier, even
        # when it is empty (the engine is never started then).
        context = ExecutionContext(2)
        for _ in range(5):
            assert context.run_fd_tasks(None, []) == []
        assert context.synchronization_rounds == 5
        assert context._engine is None
