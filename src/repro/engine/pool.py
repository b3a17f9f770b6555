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
* **Cancellation.**  Once the caller's ``stop`` event reads as set (a
  portfolio's winner landed, or its outer deadline expired), the pool
  starts no further task and stops waiting: every unfinished task comes
  back ``"cancelled"``, queued ones are cancelled, and a process pool's
  workers are killed.  An exception out of the loop (a
  ``KeyboardInterrupt``) takes the same path and then propagates, so a
  Ctrl-C leaves no worker process computing.  A thread cannot be
  stopped from outside: a thread task runs on until its own
  cooperative deadline ends it.
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
# How often a waiting executor loop reads a ``stop`` that something
# other than its progress callback may set (a deadline expiring).
_STOP_POLL_S = 0.05


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


def _stopped(stop) -> bool:
    return stop is not None and stop.is_set()


def _abandon(executor) -> None:
    """Shut ``executor`` down without waiting: cancel its queued tasks
    and kill a process pool's workers, which would otherwise compute on
    and hold up interpreter exit.  SIGKILL, not SIGTERM: a forked worker
    inherits its parent's handlers, and ``pact run`` turns SIGTERM into
    an interrupt that ends only the task at hand.  CPython before 3.14
    has no public call for this (3.14's ``kill_workers`` does the same),
    so the worker table is read before ``shutdown`` drops it."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()


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

    def run(self, tasks: Sequence[Task], progress=None,
            stop=None) -> list[TaskResult]:
        """Execute ``tasks``; results come back in task order.

        ``stop`` (a :class:`threading.Event`, or anything with
        ``is_set()``) ends the run early once it reads as set: no
        further task starts, and every task not finished by then comes
        back ``CANCELLED`` (see the module notes).  A ``stop`` already
        set starts no task at all.
        """
        tasks = list(tasks)
        results: list[TaskResult | None] = [None] * len(tasks)
        if not self.parallel:
            self._run_serial(tasks, progress, stop, results)
        elif tasks and not _stopped(stop):
            self._run_executor(tasks, progress, stop, results)
        return [result if result is not None
                else TaskResult(key=task.key, status=Status.CANCELLED,
                                worker=self.backend)
                for task, result in zip(tasks, results)]

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

    def _run_serial(self, tasks, progress, stop, results) -> None:
        for index, task in enumerate(tasks):
            if _stopped(stop):
                return
            outcome = _invoke(task.fn, task.args, task.budget,
                              task.deadline_at, "serial")
            results[index] = self._record(task, outcome)
            if progress is not None:
                progress(results[index])

    def _run_executor(self, tasks, progress, stop, results) -> None:
        executor_class = (ThreadPoolExecutor if self.backend == "thread"
                          else ProcessPoolExecutor)
        executor = executor_class(max_workers=self.jobs)
        try:
            futures = {
                executor.submit(_invoke, task.fn, task.args, task.budget,
                                task.deadline_at, self.backend): index
                for index, task in enumerate(tasks)}
            pending = set(futures)
            poll = None if stop is None else _STOP_POLL_S
            while pending and not _stopped(stop):
                done, pending = wait(pending, timeout=poll,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except BaseException as error:  # pool breakage
                        outcome = {"value": None, "error": error,
                                   "worker": f"{self.backend}-lost",
                                   "time": 0.0}
                    results[index] = self._record(tasks[index], outcome)
                    if progress is not None:
                        progress(results[index])
        except BaseException:
            _abandon(executor)
            raise
        if pending:
            _abandon(executor)
        else:
            executor.shutdown()

    def __repr__(self) -> str:
        return f"ExecutionPool(jobs={self.jobs}, backend={self.backend!r})"
