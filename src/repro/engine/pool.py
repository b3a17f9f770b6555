"""The execution pool: one API over serial / thread / process backends.

Every concurrent activity in the reproduction — iteration and component
fan-out inside the counters (over a :attr:`~ExecutionPool.cpu_parallel`
pool only), session batches (the harness's (configuration, instance)
slots among them), portfolio races — goes through
:class:`ExecutionPool` so that backend choice, per-task deadlines,
progress reporting and worker accounting live in one place.

Design notes:

* **Cooperative deadlines.**  Python cannot forcibly kill a thread, and
  killing one worker of a ``ProcessPoolExecutor`` poisons the pool, so
  budgets are cooperative: the pool forwards each task's ``budget``
  (seconds) as a keyword argument and the task is responsible for
  honouring it (our counters do, via :class:`repro.utils.deadline.Deadline`).
  A task that raises :class:`SolverTimeoutError` is reported with status
  ``"timeout"``, not as a failure.
* **Deterministic result order.**  :meth:`ExecutionPool.run` returns
  results in *task order* regardless of completion order; the optional
  ``progress`` callback fires in completion order (always from the
  submitting thread, so callbacks need no locking).
* **Graceful cancellation.**  On ``KeyboardInterrupt`` the pool cancels
  every not-yet-started task and marks it ``"cancelled"`` before
  re-raising, so a Ctrl-C stops a batch without starting more work.
* **Picklability.**  The process backend requires task callables and
  arguments to be picklable module-level objects; the fan-out and
  session modules provide such workers.
* **Telemetry transport.**  The process-wide
  :data:`repro.sat.kernel.TELEMETRY` lives per *process*, so kernel
  work done by a process-backend worker used to vanish from the
  parent's ``--stats`` totals.  ``_invoke`` snapshots the worker's
  telemetry around the task and ships the delta home in the outcome
  payload; ``_record`` folds it into the parent's instance (the same
  lock-atomic merge contract as :meth:`CallCounter.merge`) — but only
  when the outcome crossed a process boundary, because serial and
  thread workers already wrote the shared instance directly.  Totals
  are therefore backend-independent.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait,
)
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ResourceBudgetError, SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.status import Status

BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class Task:
    """One schedulable unit: ``fn(*args, budget=budget)``.

    ``budget`` is a per-task allowance in seconds, granted from the
    moment the task starts (the matrix's independent per-slot budgets).
    ``deadline_at`` is an absolute ``time.monotonic()`` timestamp shared
    by a whole batch (a counter's total ``--timeout`` split across its
    fanned-out iterations): the effective budget becomes the time left
    until it when the task starts, so queued tasks cannot each restart
    the clock.  CLOCK_MONOTONIC is system-wide, so the timestamp is
    meaningful in forked/spawned workers on the same machine.
    """

    key: object
    fn: Callable
    args: tuple = ()
    budget: float | None = None
    deadline_at: float | None = None


@dataclass
class TaskResult:
    """Outcome of one task.

    ``status`` is a :class:`repro.status.Status` (OK, TIMEOUT, BUDGET,
    ERROR or CANCELLED; legacy strings are coerced and compare equal);
    ``error`` holds the raised exception when status is not OK;
    ``worker`` identifies the executing slot ("serial", "thread-N",
    "pid-N") for the per-worker timing report.
    """

    key: object
    value: object = None
    error: BaseException | None = None
    status: Status = Status.OK
    time_seconds: float = 0.0
    worker: str = "serial"

    def __post_init__(self):
        self.status = Status.coerce(self.status)

    @property
    def ok(self) -> bool:
        return self.status is Status.OK


def _worker_tag(backend: str) -> str:
    if backend == "process":
        return f"pid-{os.getpid()}"
    if backend == "thread":
        name = threading.current_thread().name
        suffix = name.rsplit("_", 1)[-1] if "_" in name else name
        return f"thread-{suffix}"
    return "serial"


def _classify(error: BaseException) -> Status:
    if isinstance(error, SolverTimeoutError):
        return Status.TIMEOUT
    if isinstance(error, ResourceBudgetError):
        return Status.BUDGET
    return Status.ERROR


def _invoke(fn: Callable, args: tuple, budget: float | None,
            deadline_at: float | None, backend: str) -> dict:
    """Run one task, capturing outcome, worker tag and wall time.

    Runs inside the worker (thread/process) and must therefore return a
    picklable payload rather than raise: exceptions travel back inside
    the dict so the submitting side keeps the original object.
    """
    start = time.monotonic()
    tag = _worker_tag(backend)
    pid = os.getpid()
    if deadline_at is not None:
        remaining = deadline_at - start
        if remaining <= 0:
            # The batch deadline passed while this task sat queued:
            # drain it instantly instead of granting it a fresh budget.
            return {"value": None,
                    "error": SolverTimeoutError(
                        "batch deadline passed before task start"),
                    "worker": tag, "time": 0.0, "pid": pid,
                    "telemetry": {}}
        budget = remaining if budget is None else min(budget, remaining)
    before = TELEMETRY.snapshot()
    try:
        value = fn(*args, budget=budget)
        outcome = {"value": value, "error": None, "worker": tag,
                   "time": time.monotonic() - start}
    except Exception as error:  # noqa: BLE001 - reported, not swallowed
        outcome = {"value": None, "error": error, "worker": tag,
                   "time": time.monotonic() - start}
    after = TELEMETRY.snapshot()
    outcome["pid"] = pid
    # Only the task's own kernel work: the delta against the pre-task
    # snapshot (other threads of a thread-backend worker may interleave,
    # but those outcomes never cross a process boundary, so their
    # deltas are dropped on arrival rather than merged twice).
    outcome["telemetry"] = {
        key: after[key] - before.get(key, 0)
        for key in after if after[key] != before.get(key, 0)}
    return outcome


class ExecutionPool:
    """A fixed-size pool of execution slots.

    ``jobs <= 0`` means "one per CPU".  The default backend is "serial"
    for one job and "process" otherwise (the only backend that buys
    CPU-bound speedup under the GIL); "thread" serves portfolio races
    (a cancel token reaches its workers), batches and tests.
    """

    def __init__(self, jobs: int = 1, backend: str | None = None):
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = int(jobs)
        if backend is None:
            backend = "serial" if self.jobs == 1 else "process"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; pick from {BACKENDS}")
        self.backend = backend
        # worker tag -> [tasks completed, busy seconds], across runs.
        self.worker_times: dict[str, list] = {}

    @property
    def parallel(self) -> bool:
        return self.backend != "serial" and self.jobs > 1

    @property
    def cpu_parallel(self) -> bool:
        """Only processes run Python at the same time."""
        return self.backend == "process" and self.jobs > 1

    def map(self, fn: Callable, args_list: Sequence[tuple],
            budget: float | None = None, progress=None) -> list[TaskResult]:
        """Convenience: one task per argument tuple, keyed by index."""
        tasks = [Task(key=index, fn=fn, args=tuple(args), budget=budget)
                 for index, args in enumerate(args_list)]
        return self.run(tasks, progress=progress)

    def run(self, tasks: Sequence[Task], progress=None) -> list[TaskResult]:
        """Execute ``tasks``; results come back in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if not self.parallel:
            return self._run_serial(tasks, progress)
        return self._run_executor(tasks, progress)

    # ------------------------------------------------------------------
    def _record(self, task: Task, outcome: dict) -> TaskResult:
        error = outcome["error"]
        telemetry = outcome.get("telemetry")
        if telemetry and outcome.get("pid") not in (None, os.getpid()):
            # A process-backend worker's kernel counters: fold the delta
            # into this process's instance (lock-atomic), so --stats
            # totals are identical across backends.  Same-process
            # outcomes already wrote the shared instance directly.
            TELEMETRY.merge(telemetry)
        result = TaskResult(
            key=task.key, value=outcome["value"], error=error,
            status=Status.OK if error is None else _classify(error),
            time_seconds=outcome["time"], worker=outcome["worker"])
        slot = self.worker_times.setdefault(result.worker, [0, 0.0])
        slot[0] += 1
        slot[1] += result.time_seconds
        return result

    def _run_serial(self, tasks, progress) -> list[TaskResult]:
        results = []
        for task in tasks:
            outcome = _invoke(task.fn, task.args, task.budget,
                              task.deadline_at, "serial")
            result = self._record(task, outcome)
            results.append(result)
            if progress is not None:
                progress(result)
        return results

    def _run_executor(self, tasks, progress) -> list[TaskResult]:
        executor_class = (ThreadPoolExecutor if self.backend == "thread"
                          else ProcessPoolExecutor)
        results: list[TaskResult | None] = [None] * len(tasks)
        with executor_class(max_workers=self.jobs) as executor:
            futures = {}
            try:
                for index, task in enumerate(tasks):
                    future = executor.submit(_invoke, task.fn, task.args,
                                             task.budget,
                                             task.deadline_at,
                                             self.backend)
                    futures[future] = index
                pending = set(futures)
                while pending:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        task = tasks[index]
                        try:
                            outcome = future.result()
                        except BaseException as error:  # pool breakage
                            outcome = {"value": None, "error": error,
                                       "worker": f"{self.backend}-lost",
                                       "time": 0.0}
                        result = self._record(task, outcome)
                        results[index] = result
                        if progress is not None:
                            progress(result)
            except KeyboardInterrupt:
                for future, index in futures.items():
                    if future.cancel() or results[index] is None:
                        results[index] = TaskResult(
                            key=tasks[index].key, status=Status.CANCELLED,
                            worker=self.backend)
                executor.shutdown(wait=False, cancel_futures=True)
                raise
        return [result for result in results if result is not None]

    def __repr__(self) -> str:
        return f"ExecutionPool(jobs={self.jobs}, backend={self.backend!r})"
