"""ExecutionPool: backends, ordering, budgets, failure classification."""

import time

import pytest

from repro.engine.pool import BACKENDS, ExecutionPool, Task
from repro.errors import SolverTimeoutError


# Module-level task bodies so the process backend can pickle them.
def square(value, budget=None):
    return value * value


def echo_budget(budget=None):
    return budget


def boom(budget=None):
    raise ValueError("boom")


def too_slow(budget=None):
    raise SolverTimeoutError("deadline exceeded")


def slow_square(value, budget=None):
    time.sleep(0.05)
    return value * value


class TestConstruction:
    def test_defaults(self):
        assert ExecutionPool().backend == "serial"
        assert ExecutionPool(4).backend == "process"
        assert ExecutionPool(4, "thread").backend == "thread"

    def test_jobs_zero_means_cpu_count(self):
        assert ExecutionPool(0).jobs >= 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPool(2, "quantum")

    def test_parallel_property(self):
        assert not ExecutionPool(1).parallel
        assert not ExecutionPool(4, "serial").parallel
        assert ExecutionPool(2, "thread").parallel
        # Only processes run Python at the same time.
        assert ExecutionPool(2, "process").cpu_parallel
        assert not ExecutionPool(1, "process").cpu_parallel
        assert not ExecutionPool(2, "thread").cpu_parallel


class TestRun:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_task_order(self, backend):
        pool = ExecutionPool(2, backend)
        results = pool.map(square, [(v,) for v in range(6)])
        assert [r.key for r in results] == list(range(6))
        assert [r.value for r in results] == [v * v for v in range(6)]
        assert all(r.ok for r in results)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_forwarded(self, backend):
        pool = ExecutionPool(2, backend)
        results = pool.run([Task(key=0, fn=echo_budget, budget=7.5)])
        assert results[0].value == 7.5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_error_captured_not_raised(self, backend):
        pool = ExecutionPool(2, backend)
        ok, bad = pool.run([Task(key="a", fn=square, args=(3,)),
                            Task(key="b", fn=boom)])
        assert ok.ok and ok.value == 9
        assert bad.status == "error"
        assert isinstance(bad.error, ValueError)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timeout_classified(self, backend):
        pool = ExecutionPool(2, backend)
        (result,) = pool.run([Task(key=0, fn=too_slow)])
        assert result.status == "timeout"
        assert isinstance(result.error, SolverTimeoutError)

    def test_empty_task_list(self):
        assert ExecutionPool(2, "thread").run([]) == []

    def test_progress_fires_per_task(self):
        seen = []
        pool = ExecutionPool(2, "thread")
        pool.map(square, [(v,) for v in range(4)],
                 progress=lambda r: seen.append(r.key))
        assert sorted(seen) == [0, 1, 2, 3]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_deadline_drains_queued_tasks(self, backend):
        """A shared absolute deadline is a total budget: tasks starting
        after it are drained as timeouts, not granted fresh budgets."""
        expired = time.monotonic() - 1.0
        pool = ExecutionPool(2, backend)
        results = pool.run([Task(key=i, fn=slow_square, args=(i,),
                                 deadline_at=expired)
                            for i in range(4)])
        assert [r.status for r in results] == ["timeout"] * 4

    def test_batch_deadline_caps_task_budget(self):
        pool = ExecutionPool(1)
        (result,) = pool.run([Task(key=0, fn=echo_budget, budget=100.0,
                                   deadline_at=time.monotonic() + 5.0)])
        assert result.ok
        assert result.value < 6.0

    def test_worker_times_accumulate(self):
        pool = ExecutionPool(2, "thread")
        pool.map(slow_square, [(v,) for v in range(4)])
        assert pool.worker_times
        tasks_counted = sum(count for count, _ in pool.worker_times.values())
        assert tasks_counted == 4
        assert all(busy > 0 for _, busy in pool.worker_times.values())
