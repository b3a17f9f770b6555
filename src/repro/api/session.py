"""The Session façade: one object that owns engine lifecycle and serves
every counting workload.

A :class:`Session` wires a :class:`repro.engine.pool.ExecutionPool` and an
optional result store (:class:`repro.serve.store.SqliteStore`) behind
three verbs:

* :meth:`Session.count` — one problem, one counter (iteration or
  component fan-out when the pool is a process pool with ``jobs > 1``);
* :meth:`Session.count_batch` — many problems through the engine, under
  one request or one request each (the evaluation matrix), with the
  fingerprint cache consulted per problem, responses in input order on
  every backend;
* :meth:`Session.portfolio` — race several counters on one problem under
  a shared deadline; the first (in requested order) that solves wins,
  and the losers still running are stopped on every backend: through
  the race's cancel token in this process, by killing a process pool's
  workers.

A batch slot or portfolio entry is one pool task over its ``(Problem,
CountRequest)`` pair; only a process pool serialises the pair, the
problem as its SMT-LIB script.

The CLI and the harness are thin clients of this class; new fronts
(async services, batch endpoints) should be too.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.api.problem import Problem
from repro.api.registry import canonical_name, resolve
from repro.api.request import CountRequest, CountResponse, ProgressEvent
from repro.engine.pool import ExecutionPool, Task, TaskResult
from repro.errors import CounterError, ReproError
from repro.status import Status
from repro.utils.deadline import CooperativeDeadline, Deadline

__all__ = ["DEFAULT_PORTFOLIO", "PortfolioResult", "Session"]

DEFAULT_PORTFOLIO = ("pact:xor", "pact:prime", "pact:shift", "cdm")


def _run_spec(problem: Problem, request: CountRequest, cancel=None,
              budget: float | None = None) -> CountResponse:
    """Worker body: run one counter on one problem.

    A task carries the ``(problem, request)`` pair itself: serial and
    thread pools pass the caller's problem by reference, and a process
    pool pickles it as its script (:meth:`Problem.__reduce__`).
    ``budget`` is the pool's effective per-task allowance (already
    clamped to any shared batch deadline) and replaces the request's
    timeout; ``cancel`` is an optional shared cancel token (serial and
    thread pools only) that cuts the run short when a portfolio winner
    is found or the race's outer deadline expires.
    """
    if budget is not None:
        request = request.replace(timeout=budget)
    deadline = (CooperativeDeadline(request.timeout, cancel)
                if cancel is not None else None)
    counter = resolve(request.counter)
    try:
        return counter.count(problem, request, deadline=deadline)
    except ReproError as error:
        return CountResponse(estimate=None, status=Status.ERROR,
                             counter=counter.name, problem=problem.name,
                             detail=str(error))


class _RaceToken(threading.Event):
    """A portfolio's cancel token: set when a racer wins, and read as
    set once the race's outer ``deadline`` expires."""

    def __init__(self, deadline: Deadline | None):
        super().__init__()
        self._deadline = deadline

    def is_set(self) -> bool:
        return super().is_set() or (self._deadline is not None
                                    and self._deadline.expired())


@dataclass
class PortfolioResult:
    """Outcome of a portfolio race.

    ``winner`` is the canonical name of the first counter *in requested
    order* that solved — a deterministic rule, so a fixed seed yields the
    same winner on every serial run.  ``entries`` holds one
    :class:`CountResponse` per requested counter, in requested order,
    with per-counter timing.
    """

    problem: str
    winner: str | None
    entries: list[CountResponse]
    elapsed: float

    @property
    def solved(self) -> bool:
        return self.winner is not None

    @property
    def response(self) -> CountResponse | None:
        """The winning counter's response (None if nothing solved)."""
        for entry in self.entries:
            if entry.counter == self.winner and entry.solved:
                return entry
        return None

    def report(self) -> str:
        """The per-counter timing report."""
        lines = [f"portfolio {self.problem}: "
                 f"winner={self.winner or 'none'} "
                 f"elapsed={self.elapsed:.2f}s"]
        for entry in self.entries:
            line = (f"  {entry.counter:<12} {entry.status:>9} "
                    f"{entry.time_seconds:7.2f}s")
            if entry.solved:
                kind = "exact" if entry.exact else "approx"
                line += f"  {kind} {entry.estimate}"
            elif entry.detail:
                line += f"  ({entry.detail})"
            lines.append(line)
        return "\n".join(lines)


class Session:
    """A counting session owning pool + cache lifecycle.

    ``jobs``/``backend`` configure the execution pool (``jobs=1`` is the
    serial default; ``jobs=0`` means one worker per CPU); ``cache_dir``
    enables the fingerprint result store, a
    :class:`~repro.serve.store.SqliteStore`: a ``.sqlite``/
    ``.sqlite3``/``.db`` path is the database file, any other path a
    directory holding ``pact-cache.sqlite``.  Existing ``pool``/
    ``cache`` objects can be injected instead.  ``request`` sets the
    session's default :class:`CountRequest`, overridable per call.

    Usable as a context manager; exiting flushes the store.
    """

    def __init__(self, jobs: int = 1, backend: str | None = None,
                 cache_dir=None, pool: ExecutionPool | None = None,
                 cache=None,
                 request: CountRequest | None = None):
        self.pool = (pool if pool is not None
                     else ExecutionPool(jobs=jobs, backend=backend))
        if cache is not None:
            self.cache = cache
        elif cache_dir is not None:
            from repro.serve.store import SqliteStore, database_path
            self.cache = SqliteStore(database_path(cache_dir))
        else:
            self.cache = None
        self.request = request if request is not None else CountRequest()
        # Cache TIMEOUT outcomes?  True for batch/CLI runs (a slot that
        # timed out under this budget will time out again); the serving
        # layer sets False — there a timeout may reflect queue wait or a
        # drain cancellation, not the request's nominal budget, and must
        # not poison the store.
        self.store_timeouts = True

    # ------------------------------------------------------------------
    # the three verbs
    # ------------------------------------------------------------------
    def count(self, problem: Problem, request: CountRequest | None = None,
              *, progress=None, deadline=None, **overrides) -> CountResponse:
        """Count one problem with one counter.

        On a process pool with ``jobs > 1`` the counter's median
        iterations (or ``exact:cc``'s components) fan out across it
        (bit-identical to serial); a thread pool counts as ``jobs=1``
        does.  ``deadline`` (a
        :class:`~repro.utils.deadline.Deadline`, e.g. a
        :class:`~repro.utils.deadline.CooperativeDeadline` sharing a
        cancel token) is forwarded to the counter so an external front —
        the serving layer's drain path — can cut the run short.
        """
        request = self._request_of(request, overrides)
        counter = resolve(request.counter)
        fingerprint = self._fingerprint(problem, request, counter.name)
        cached = self._lookup(fingerprint, counter.name, problem.name)
        if cached is not None:
            self._emit(progress, "cache-hit", cached)
            return cached
        start = time.monotonic()
        try:
            response = counter.count(
                problem, request, deadline=deadline,
                pool=self.pool if self.pool.parallel else None)
        except ReproError as error:
            response = CountResponse(
                estimate=None, status=Status.ERROR, counter=counter.name,
                problem=problem.name, detail=str(error),
                time_seconds=time.monotonic() - start)
        # No flush here: close()/__exit__ (and each count_batch) persist
        # the cache once, so a counting loop is not quadratic in I/O.
        self._store(fingerprint, response)
        self._emit(progress, "completed", response)
        return response

    def count_batch(
            self, problems,
            request: CountRequest | Sequence[CountRequest] | None = None,
            *, progress=None, **overrides) -> list[CountResponse]:
        """Count many problems; responses come back in input order.

        ``request`` is one :class:`CountRequest` for every problem or a
        sequence of them, one per problem (the evaluation matrix gives
        each slot its own counter).  Problems fan out across the pool as
        whole units (each worker runs its counter serially); the
        fingerprint cache is consulted per problem and solved/timed-out
        outcomes are persisted.  Ordering and estimates are identical on
        serial, thread and process backends.  An interrupt propagates;
        every outcome stored before it stays on disk.
        """
        problems = list(problems)
        if request is None or isinstance(request, CountRequest):
            requests = [self._request_of(request, overrides)] * len(problems)
        else:
            requests = [self._request_of(each, overrides) for each in request]
            if len(requests) != len(problems):
                raise CounterError(
                    f"count_batch: {len(requests)} requests for "
                    f"{len(problems)} problems")
        names = [canonical_name(each.counter) for each in requests]
        responses: list[CountResponse | None] = [None] * len(problems)
        fingerprints: dict[int, str] = {}
        tasks: list[Task] = []
        for index, (problem, request, name) in enumerate(
                zip(problems, requests, names)):
            fingerprint = self._fingerprint(problem, request, name)
            cached = self._lookup(fingerprint, name, problem.name)
            if cached is not None:
                responses[index] = cached
                self._emit(progress, "cache-hit", cached)
                continue
            if fingerprint is not None:
                fingerprints[index] = fingerprint
            tasks.append(Task(key=index, fn=_run_spec,
                              args=(problem, request, None),
                              budget=request.timeout))

        def on_complete(task_result: TaskResult) -> None:
            index = task_result.key
            response = self._response_of(task_result,
                                         problems[index].name,
                                         names[index])
            responses[index] = response
            self._store(fingerprints.get(index), response)
            self._emit(progress, "completed", response)

        self.pool.run(tasks, progress=on_complete)
        if self.cache is not None:
            self.cache.flush()
        return [response for response in responses if response is not None]

    def portfolio(self, problem: Problem, counters=None,
                  request: CountRequest | None = None, *,
                  timeout: float | None = None, deadline=None,
                  progress=None, **overrides) -> PortfolioResult:
        """Race several counters on one problem under a shared deadline.

        The winner is the first counter in requested order that solved.
        Once a counter solves, or ``deadline`` (an outer
        :class:`~repro.utils.deadline.Deadline`, e.g. the serving
        layer's drain-cancel one) expires, the racers still running stop
        and come back ``CANCELLED``: racers in this process see the
        race's cancel token, and the pool starts no further racer and
        kills a process pool's workers.  With a fixed seed the serial
        race is fully deterministic.
        """
        request = self._request_of(request, overrides)
        if timeout is None:
            timeout = request.timeout
        names = [canonical_name(name)
                 for name in (counters or DEFAULT_PORTFOLIO)]
        start = time.monotonic()
        token = _RaceToken(deadline)
        # A token cannot cross a process boundary; the pool's ``stop``
        # reaches process workers instead.
        cancel = None if self.pool.cpu_parallel else token
        deadline_at = start + timeout if timeout is not None else None
        tasks = [Task(key=index, fn=_run_spec,
                      args=(problem, request.replace(counter=name,
                                                     timeout=timeout),
                            cancel),
                      budget=timeout, deadline_at=deadline_at)
                 for index, name in enumerate(names)]
        finished: dict[int, CountResponse] = {}

        def on_complete(task_result: TaskResult) -> None:
            response = self._response_of(task_result, problem.name,
                                         names[task_result.key])
            if response.solved:
                token.set()
            finished[task_result.key] = response
            self._emit(progress, "completed", response)

        self.pool.run(tasks, progress=on_complete, stop=token)
        winner = next((finished[index].counter for index in sorted(finished)
                       if finished[index].solved), None)
        detail = ("portfolio: winner already found" if winner is not None
                  else "portfolio: deadline expired")
        entries = []
        for index, name in enumerate(names):
            entry = finished.get(index)
            if entry is None:
                entry = CountResponse(
                    estimate=None, status=Status.CANCELLED, counter=name,
                    problem=problem.name, detail=detail)
                self._emit(progress, "cancelled", entry)
            entries.append(entry)
        outcome = PortfolioResult(problem=problem.name, winner=winner,
                                  entries=entries,
                                  elapsed=time.monotonic() - start)
        if winner is not None:
            self._emit(progress, "winner", outcome.response)
        return outcome

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request_of(self, request, overrides) -> CountRequest:
        base = request if request is not None else self.request
        return base.replace(**overrides) if overrides else base

    def _fingerprint(self, problem, request, counter) -> str | None:
        if self.cache is None:
            return None
        return problem.fingerprint(request.cache_params(counter))

    def _lookup(self, fingerprint, counter, problem) -> CountResponse | None:
        if fingerprint is None:
            return None
        entry = self.cache.get(fingerprint)
        if entry is None:
            return None
        return CountResponse.from_payload(entry, counter=counter,
                                          problem=problem)

    def _store(self, fingerprint, response: CountResponse) -> None:
        if fingerprint is None or self.cache is None:
            return
        if response.status is Status.OK or (
                self.store_timeouts
                and response.status is Status.TIMEOUT):
            self.cache.put(fingerprint, response.to_payload())

    def _response_of(self, task_result: TaskResult, problem: str,
                     counter: str) -> CountResponse:
        if task_result.ok:
            response = task_result.value
            response.worker = task_result.worker
            return response
        return CountResponse(
            estimate=None, status=task_result.status, counter=counter,
            problem=problem, detail=str(task_result.error or ""),
            time_seconds=task_result.time_seconds,
            worker=task_result.worker)

    @staticmethod
    def _emit(progress, kind: str, response: CountResponse | None) -> None:
        if progress is None or response is None:
            return
        progress(ProgressEvent(kind=kind, problem=response.problem,
                               counter=response.counter,
                               status=response.status,
                               time_seconds=response.time_seconds))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush the cache (the pool holds no persistent resources)."""
        if self.cache is not None:
            self.cache.flush()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def stats(self) -> dict:
        """Cache and per-worker accounting for reports."""
        return {
            "jobs": self.pool.jobs, "backend": self.pool.backend,
            "worker_times": {tag: list(times) for tag, times
                             in self.pool.worker_times.items()},
            "cache": self.cache.stats if self.cache is not None else None,
        }

    def __repr__(self) -> str:
        cache = self.cache.path if self.cache is not None else None
        return (f"Session(jobs={self.pool.jobs}, "
                f"backend={self.pool.backend!r}, cache={cache})")
