"""ExecutionPool: backends, ordering, budgets, failure classification,
stopping a run early."""

import os
import threading
import time

import pytest

from repro.engine.pool import BACKENDS, ExecutionPool, Task
from repro.errors import SolverTimeoutError
from repro.status import Status


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


def sleep_then_return(key, seconds, directory, budget=None):
    """Record the running process's pid under ``directory``, then
    sleep."""
    (directory / f"{key}.pid").write_text(str(os.getpid()))
    time.sleep(seconds)
    return key


def mark_then_return(key, directory, budget=None):
    """Leave a marker under ``directory`` that this task ran."""
    (directory / f"{key}.ran").touch()
    return key


def wait_for_gate(key, gate, budget=None):
    """Block until ``gate`` is set (thread backend: the test's Event)."""
    gate.wait(60.0)
    return key


def _gone(pid, within=10.0):
    """True once ``pid`` no longer exists (killed and reaped)."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


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


class TestStop:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_stop_cancels_what_has_not_finished(self, backend, tmp_path):
        """Once ``progress`` sets ``stop``, the run returns at once: the
        tasks that would sleep a minute come back cancelled, and no
        worker process is left running them."""
        stop = threading.Event()
        tasks = [Task(key=key, fn=sleep_then_return,
                      args=(key, 0.0 if key == 0 else 60.0, tmp_path))
                 for key in range(3)]
        started = time.monotonic()
        results = ExecutionPool(2, backend).run(
            tasks, progress=lambda result: stop.set(), stop=stop)
        assert time.monotonic() - started < 10.0
        assert results[0].ok and results[0].value == 0
        assert [result.status for result in results[1:]] == [
            Status.CANCELLED] * 2
        workers = {int(path.read_text()) for path in tmp_path.glob("*.pid")}
        assert all(_gone(pid) for pid in workers - {os.getpid()})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stop_already_set_starts_nothing(self, backend, tmp_path):
        """A run handed a ``stop`` that is already set (a portfolio
        whose outer deadline expired first) runs no task, not even one
        that a worker would pick up after ``run`` returned."""
        stop = threading.Event()
        stop.set()
        tasks = [Task(key=key, fn=mark_then_return, args=(key, tmp_path))
                 for key in range(3)]
        results = ExecutionPool(2, backend).run(tasks, stop=stop)
        assert [result.key for result in results] == [0, 1, 2]
        assert [result.status for result in results] == [
            Status.CANCELLED] * 3
        time.sleep(0.5)
        assert list(tmp_path.glob("*.ran")) == []

    def test_thread_run_returns_while_a_task_still_runs(self):
        """A thread cannot be killed, but the run does not wait for it:
        once ``stop`` is set it returns with the running and the queued
        task cancelled, and the blocked thread ends when its gate
        opens."""
        stop, gate = threading.Event(), threading.Event()
        tasks = [Task(key=0, fn=square, args=(3,))] + [
            Task(key=key, fn=wait_for_gate, args=(key, gate))
            for key in (1, 2)]
        started = time.monotonic()
        try:
            results = ExecutionPool(2, "thread").run(
                tasks, progress=lambda result: stop.set(), stop=stop)
            assert time.monotonic() - started < 10.0
        finally:
            gate.set()
        assert results[0].ok and results[0].value == 9
        assert [result.status for result in results[1:]] == [
            Status.CANCELLED] * 2
